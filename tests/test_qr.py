import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cbrn import patterns, qr
from cbrn.errors import EmptyLabel, LabelTooLong
from cbrn.galois import syndromes

ALL_LABELS = [
    "red", "orange", "yellow", "green", "blue", "indigo", "purple",
    "square", "circle", "oval", "rectangle", "trapezoid", "triangle", "rhombus",
    "extra-large", "large", "medium", "small-medium", "small", "extra-small", "mini",
]

# 15-bit format word positions, bit i = (vertical, horizontal), LSB first
FORMAT_VERTICAL = [(0, 8), (1, 8), (2, 8), (3, 8), (4, 8), (5, 8), (7, 8), (8, 8),
                   (22, 8), (23, 8), (24, 8), (25, 8), (26, 8), (27, 8), (28, 8)]
FORMAT_HORIZONTAL = [(8, 28), (8, 27), (8, 26), (8, 25), (8, 24), (8, 23), (8, 22),
                     (8, 21), (8, 7), (8, 5), (8, 4), (8, 3), (8, 2), (8, 1), (8, 0)]

FINDER = np.array(
    [
        [1, 1, 1, 1, 1, 1, 1],
        [1, 0, 0, 0, 0, 0, 1],
        [1, 0, 1, 1, 1, 0, 1],
        [1, 0, 1, 1, 1, 0, 1],
        [1, 0, 1, 1, 1, 0, 1],
        [1, 0, 0, 0, 0, 0, 1],
        [1, 1, 1, 1, 1, 1, 1],
    ],
    dtype=np.uint8,
)

ALIGNMENT = np.array(
    [
        [1, 1, 1, 1, 1],
        [1, 0, 0, 0, 1],
        [1, 0, 1, 0, 1],
        [1, 0, 0, 0, 1],
        [1, 1, 1, 1, 1],
    ],
    dtype=np.uint8,
)


def bch_remainder(value: int) -> int:
    """Independent BCH(15,5) remainder via textbook long division over GF(2)."""
    gen = 0b10100110111
    rem = value << 10
    while rem.bit_length() >= 11:
        rem ^= gen << (rem.bit_length() - 11)
    return rem


def valid_format_words() -> set[int]:
    """All 32 legal format words (any ecc level, any mask)."""
    return {((d << 10) | bch_remainder(d)) ^ 0b101010000010010 for d in range(32)}


def read_format(modules, positions) -> int:
    value = 0
    for i, pos in enumerate(positions):
        value |= int(modules[pos]) << i
    return value


@pytest.fixture(scope="module")
def matrices():
    return {label: qr.encode_label(label) for label in ALL_LABELS}


class TestStructure:
    def test_size_and_version(self, matrices):
        # 29 modules a side is version 3; its alignment pattern at (22, 22)
        # and the format word's level-L indicator are checked below
        for m in matrices.values():
            assert m.modules.shape == (29, 29) and m.modules.dtype == np.uint8

    def test_finder_patterns_and_separators(self, matrices):
        for m in matrices.values():
            g = m.modules
            np.testing.assert_array_equal(g[0:7, 0:7], FINDER)
            np.testing.assert_array_equal(g[0:7, 22:29], FINDER)
            np.testing.assert_array_equal(g[22:29, 0:7], FINDER)
            assert not g[7, 0:8].any() and not g[0:8, 7].any()
            assert not g[7, 21:29].any() and not g[0:8, 21].any()
            assert not g[21, 0:8].any() and not g[21:29, 7].any()

    def test_timing_patterns_alternate(self, matrices):
        expected = [(k + 1) % 2 for k in range(8, 21)]
        for m in matrices.values():
            assert list(m.modules[6, 8:21]) == expected
            assert list(m.modules[8:21, 6]) == expected

    def test_alignment_pattern_at_22_22(self, matrices):
        for m in matrices.values():
            np.testing.assert_array_equal(m.modules[20:25, 20:25], ALIGNMENT)

    def test_fixed_dark_module(self, matrices):
        for m in matrices.values():
            assert m.modules[21, 8] == 1

    def test_format_words_valid_and_duplicated(self, matrices):
        legal = valid_format_words()
        for m in matrices.values():
            vert = read_format(m.modules, FORMAT_VERTICAL)
            horiz = read_format(m.modules, FORMAT_HORIZONTAL)
            assert vert == horiz
            assert vert in legal
            # low three bits of the decoded data word name the mask
            data = None
            for candidate in range(32):
                if ((candidate << 10) | bch_remainder(candidate)) ^ 0b101010000010010 == vert:
                    data = candidate
            assert data is not None and data & 0b111 == m.mask
            assert data >> 3 == 0b01  # level L indicator

    def test_data_region_holds_70_codewords_plus_remainder(self):
        rows, cols = qr._data_positions()
        assert len(set(zip(rows.tolist(), cols.tolist()))) == rows.size == 70 * 8 + 7

    def test_deterministic(self):
        a = qr.encode_label("red")
        b = qr.encode_label("red")
        assert a.mask == b.mask
        np.testing.assert_array_equal(a.modules, b.modules)


class TestCodewords:
    def test_syndromes_zero_for_all_labels(self):
        for label in ALL_LABELS:
            cw = qr.encode_codewords(label)
            assert len(cw) == 70
            assert syndromes(cw, 15) == [0] * 15

    def test_corruption_flips_a_syndrome(self):
        cw = qr.encode_codewords("red")
        for pos in range(len(cw)):
            blob = bytearray(cw)
            blob[pos] ^= 0x5A
            assert any(syndromes(bytes(blob), 15)), f"corruption at {pos} went unseen"

    def test_payload_layout_for_red(self):
        payload = qr.encode_payload("red")
        assert len(payload) == 55
        # mode nibble 0100, length 3, then 'r' 'e' 'd', then terminator
        assert payload[0] == 0x40
        assert payload[1] == 0x03 << 4 | 0x72 >> 4
        assert payload[5:7] == bytes([0xEC, 0x11])

    def test_capacity_boundary(self):
        assert len(qr.encode_payload("x" * 53)) == 55
        with pytest.raises(LabelTooLong):
            qr.encode_payload("x" * 54)

    def test_multibyte_labels_count_bytes(self):
        qr.encode_label("寿" * 17)  # 51 utf-8 bytes
        with pytest.raises(LabelTooLong):
            qr.encode_label("寿" * 18)  # 54 utf-8 bytes

    def test_empty_label(self):
        with pytest.raises(EmptyLabel):
            qr.encode_label("")


def penalty(grid) -> int:
    """Score of one grid, from a stack of one."""
    return int(qr.penalties(np.asarray(grid)[None])[0])


class TestMaskChoice:
    def test_chosen_mask_minimizes_penalty(self, matrices):
        for label, chosen in matrices.items():
            scores = [penalty(qr.encode_label(label, mask=m).modules) for m in range(8)]
            assert penalty(chosen.modules) == min(scores)
            assert chosen.mask == scores.index(min(scores))  # lowest index wins ties

    def test_forced_mask_respected(self):
        for m in range(8):
            assert qr.encode_label("red", mask=m).mask == m
        with pytest.raises(ValueError):
            qr.encode_label("red", mask=8)


def penalty_oracle(grid) -> int:
    """Line-by-line rescore of the four mask penalty rules."""
    n = len(grid)
    rows = ["".join(str(int(v)) for v in row) for row in grid]
    cols = ["".join(str(int(grid[r][c])) for r in range(n)) for c in range(n)]
    score = 0
    for line in itertools.chain(rows, cols):
        for _, run in itertools.groupby(line):
            length = len(list(run))
            if length >= 5:
                score += 3 + length - 5
    for r in range(n - 1):
        for c in range(n - 1):
            if grid[r][c] == grid[r][c + 1] == grid[r + 1][c] == grid[r + 1][c + 1]:
                score += 3
    for line in itertools.chain(rows, cols):
        for k in range(len(line) - 10):
            if line[k : k + 11] in ("10111010000", "00001011101"):
                score += 40
    dark = sum(int(v) for row in grid for v in row)
    score += 10 * (abs(100 * dark - 50 * n * n) // (5 * n * n))
    return score


class TestPenalty:
    def test_all_dark_4x4(self):
        # rule 2 on nine 2x2 blocks plus maximal imbalance
        assert penalty(np.ones((4, 4), dtype=np.uint8)) == 9 * 3 + 100

    def test_checkerboard_is_free(self):
        grid = np.indices((6, 6)).sum(axis=0) % 2
        assert penalty(grid.astype(np.uint8)) == 0

    def test_long_run_scoring(self):
        grid = np.indices((6, 6)).sum(axis=0) % 2
        grid[0, :] = 1  # one all-dark row: run of 6 -> 4 points, plus 2x2 blocks
        assert penalty(grid.astype(np.uint8)) == penalty_oracle(grid)

    @given(arrays(np.uint8, (13, 13), elements=st.integers(0, 1)))
    @settings(max_examples=40)
    def test_matches_line_oracle(self, grid):
        assert penalty(grid) == penalty_oracle(grid)

    @given(arrays(np.uint8, (29, 29), elements=st.integers(0, 1)))
    @settings(max_examples=40, deadline=None)
    def test_matches_line_oracle_at_symbol_size(self, grid):
        assert penalty(grid) == penalty_oracle(grid)

    @given(st.integers(1, 34).flatmap(
        lambda n: arrays(np.uint8, (3, n, n), elements=st.integers(0, 1))))
    @settings(max_examples=40, deadline=None)
    def test_batched_scores_equal_per_grid_scores(self, stack):
        scores = qr.penalties(stack)
        assert scores.shape == (3,)
        assert list(scores) == [penalty(grid) for grid in stack]
        assert list(scores) == [penalty_oracle(grid) for grid in stack]

    def test_stack_wider_than_64_modules_refused(self):
        assert list(qr.penalties(np.zeros((2, 64, 64), dtype=np.uint8))) == [penalty_oracle(np.zeros((64, 64)))] * 2
        with pytest.raises(ValueError, match="65 modules"):
            qr.penalties(np.zeros((1, 65, 65), dtype=np.uint8))

    def test_mask_choice_matches_oracle(self):
        labels = [label for group in patterns.default_catalog() for label in group.labels]
        assert len(labels) == 21
        # no bundled label has a tied minimum; these two do (masks 1 and 6, 0 and 1)
        for label in labels + ["label 8", "label 38"]:
            scores = [penalty_oracle(qr.encode_label(label, mask=m).modules) for m in range(8)]
            assert qr.encode_label(label).mask == scores.index(min(scores)), label


def seeded_labels(count: int, seed: int) -> list[str]:
    """Labels of 1-53 UTF-8 bytes drawn from 1-, 2-, 3- and 4-byte characters."""
    alphabet = "abcxyzABC019 -_:.寿éß€😀"
    rng = random.Random(seed)
    labels = []
    while len(labels) < count:
        size = rng.randint(1, 53)
        label = ""
        while True:
            ch = rng.choice(alphabet)
            if len((label + ch).encode("utf-8")) > size:
                break
            label += ch
        if label:
            labels.append(label)
    return labels


class TestSymbolPin:
    def test_symbols_are_pinned(self):
        # every bundled label under each forced mask, then 200 seeded labels
        # with their chosen masks; a change to the layout, the data placement,
        # the format words or the mask choice moves the digest
        digest = hashlib.sha256()
        for group in patterns.default_catalog():
            for label in group.labels:
                for m in range(8):
                    digest.update(qr.encode_label(label, mask=m).modules.tobytes())
        for label in seeded_labels(200, 18004):
            symbol = qr.encode_label(label)
            digest.update(symbol.modules.tobytes() + bytes([symbol.mask]))
        assert digest.hexdigest() == "548efd8ef291add7cb1acbcad9bea373a2d77bf58c2b0d82fedfa1730c3149fa"


class TestRender:
    def test_default_scale_gives_116(self):
        pattern = qr.render(qr.encode_label("red"))
        assert (pattern.width, pattern.height) == (116, 116)
        assert pattern.dim == 13_456

    def test_scale_one_is_module_grid(self):
        m = qr.encode_label("red")
        pattern = qr.render(m, 1)
        np.testing.assert_array_equal(pattern.bits, m.modules)

    def test_popcount_scales_by_block_area(self):
        m = qr.encode_label("green")
        dark_modules = int(m.modules.sum())
        assert qr.render(m, 4).popcount() == 16 * dark_modules

    def test_blocks_are_solid(self):
        m = qr.encode_label("red")
        pattern = qr.render(m, 3)
        blocks = pattern.bits.reshape(29, 3, 29, 3)
        assert (blocks == blocks[:, :1, :, :1]).all()

    @pytest.mark.parametrize("scale", [1, 2, 3, 4, 5])
    def test_equals_kronecker_product_with_a_dark_block(self, scale):
        for label in ("red", "label 8", "寿😀"):
            m = qr.encode_label(label)
            expected = np.kron(m.modules, np.ones((scale, scale), np.uint8))
            np.testing.assert_array_equal(qr.render(m, scale).bits, expected, strict=True)

    def test_scale_below_one_rejected(self):
        with pytest.raises(ValueError):
            qr.render(qr.encode_label("red"), 0)


class TestProviders:
    def test_random_pattern_deterministic(self):
        a = qr.random_pattern(7)
        b = qr.random_pattern(7)
        assert a == b
        assert a != qr.random_pattern(8)

    def test_random_pattern_density(self):
        pattern = qr.random_pattern(123)
        ratio = pattern.popcount() / pattern.dim
        assert 0.45 < ratio < 0.55
        assert (pattern.width, pattern.height) == (116, 116)
