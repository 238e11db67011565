"""Fixed-size QR symbol generation for short byte-mode payloads.

Symbols are always version 3 (29x29 modules) at error-correction level L,
more than enough capacity for attribute labels (53 payload bytes).  They are
rendered without a quiet zone so the default 4-pixel module scale yields the
116x116 bitmap the memory pipeline expects.  `random_pattern` is a library
source of seeded random bitmaps of the same size, for memory experiments
without symbol structure; `train` stores only symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EmptyLabel, LabelTooLong, UnencodableLabel
from .galois import rs_encode
from .patterns import BinaryPattern

SIZE = 29  # modules per side for version 3
TOTAL_CODEWORDS = 70
ECC_CODEWORDS = 15
DATA_CODEWORDS = TOTAL_CODEWORDS - ECC_CODEWORDS
CONTENT_CAPACITY = 53  # payload bytes left after the 12-bit mode/length header
FINDER_CENTERS = ((3, 3), (3, SIZE - 4), (SIZE - 4, 3))
ALIGNMENT_CENTER = (22, 22)
DEFAULT_SCALE = 4  # 29 * 4 = 116 pixels per side

_BYTE_MODE = 0b0100
_PAD_BYTES = (0xEC, 0x11)
# Level-L format word by mask index (ISO/IEC 18004 Table C.1): the level and
# mask bits, their BCH(15,5) code bits, and the fixed XOR.
_FORMAT_WORDS = (0x77C4, 0x72F3, 0x7DAA, 0x789D, 0x662F, 0x6318, 0x6C41, 0x6976)
# Format bit i, LSB first, sits at row _FORMAT_ROWS[i] of column 8 and again
# at column _FORMAT_COLS[i] of row 8.
_FORMAT_ROWS = (0, 1, 2, 3, 4, 5, 7, 8, 22, 23, 24, 25, 26, 27, 28)
_FORMAT_COLS = (28, 27, 26, 25, 24, 23, 22, 21, 7, 5, 4, 3, 2, 1, 0)

# Mask predicates by mask index; r is the row, c the column.
_MASKS = (
    lambda r, c: (r + c) % 2 == 0,
    lambda r, c: r % 2 == 0,
    lambda r, c: c % 3 == 0,
    lambda r, c: (r + c) % 3 == 0,
    lambda r, c: (r // 2 + c // 3) % 2 == 0,
    lambda r, c: (r * c) % 2 + (r * c) % 3 == 0,
    lambda r, c: ((r * c) % 2 + (r * c) % 3) % 2 == 0,
    lambda r, c: ((r + c) % 2 + (r * c) % 3) % 2 == 0,
)


@dataclass(frozen=True)
class QrMatrix:
    """A finished symbol: the module grid and the mask that produced it."""

    modules: np.ndarray  # (SIZE, SIZE) uint8, dark=1
    mask: int


def encode_payload(label: str) -> bytes:
    """Byte-mode bit stream: mode, length, data, terminator, pad bytes."""
    if label == "":
        raise EmptyLabel("label must not be empty")
    try:
        data = label.encode("utf-8")
    except UnicodeEncodeError:
        raise UnencodableLabel(f"label {label!r} is not UTF-8 text: it holds a lone surrogate") from None
    if len(data) > CONTENT_CAPACITY:
        raise LabelTooLong(
            f"label is {len(data)} bytes encoded; the symbol holds {CONTENT_CAPACITY}"
        )
    nbits = 12 + 8 * len(data)
    stream = ((_BYTE_MODE << 8 | len(data)) << 8 * len(data)) | int.from_bytes(data, "big")
    nbits_used = min(nbits + 4, DATA_CODEWORDS * 8)  # terminator, cut short at capacity
    nbytes = -(-nbits_used // 8)  # zero bits up to the byte boundary
    head = (stream << (8 * nbytes - nbits)).to_bytes(nbytes, "big")
    return head + (bytes(_PAD_BYTES) * DATA_CODEWORDS)[: DATA_CODEWORDS - nbytes]


def encode_codewords(label: str) -> bytes:
    """Payload bytes followed by error-correction bytes for a label."""
    return rs_encode(encode_payload(label), ECC_CODEWORDS)


# ---------------------------------------------------------------------------
# Module placement.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _base_matrix() -> tuple[np.ndarray, np.ndarray]:
    """Function patterns drawn, format area reserved; returns (modules, reserved)."""
    rows, cols = np.indices((SIZE, SIZE))
    ring = np.minimum.reduce([np.maximum(abs(rows - r), abs(cols - c)) for r, c in FINDER_CENTERS])
    finders = ring <= 4  # each 7x7 finder with its one-module light separator
    modules = (finders & (ring != 2) & (ring != 4)).astype(np.uint8)  # rings 0, 1, 3 dark
    ring = np.maximum(abs(rows - ALIGNMENT_CENTER[0]), abs(cols - ALIGNMENT_CENTER[1]))
    alignment = ring <= 2
    modules |= alignment & (ring != 1)  # rings 0 and 2 dark
    reserved = finders | alignment

    modules[6, 8 : SIZE - 8 : 2] = modules[8 : SIZE - 8 : 2, 6] = 1  # timing patterns
    reserved[6, 8 : SIZE - 8] = reserved[8 : SIZE - 8, 6] = True
    reserved[_FORMAT_ROWS, 8] = reserved[8, _FORMAT_COLS] = True
    modules[SIZE - 8, 8] = reserved[SIZE - 8, 8] = 1  # fixed dark module

    modules.setflags(write=False)
    reserved.setflags(write=False)
    return modules, reserved


@lru_cache(maxsize=1)
def _data_positions() -> tuple[np.ndarray, np.ndarray]:
    """Zig-zag placement order as (rows, cols): two-module columns snaking up and down."""
    _, reserved = _base_matrix()
    positions = []
    col = SIZE - 1
    upward = True
    while col > 0:
        if col == 6:  # the vertical timing column is skipped entirely
            col -= 1
        rows = range(SIZE - 1, -1, -1) if upward else range(SIZE)
        for r in rows:
            for c in (col, col - 1):
                if not reserved[r, c]:
                    positions.append((r, c))
        upward = not upward
        col -= 2
    rows, cols = np.array(positions).T
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


@lru_cache(maxsize=1)
def _templates() -> np.ndarray:
    """(8, SIZE, SIZE) finished symbols of all-light data, one per mask.

    Each holds the function patterns, the mask's format word and the mask
    itself over the data region, so XOR-ing placed data bits into it gives
    the finished masked candidate.
    """
    base, reserved = _base_matrix()
    rows, cols = np.indices((SIZE, SIZE))
    masks = np.array([predicate(rows, cols) for predicate in _MASKS])
    stack = np.where(reserved, base, masks).astype(np.uint8)
    bits = (np.array(_FORMAT_WORDS)[:, None] >> np.arange(15)) & 1
    stack[:, _FORMAT_ROWS, 8] = stack[:, 8, _FORMAT_COLS] = bits
    stack.setflags(write=False)
    return stack


@lru_cache(maxsize=1)
def _penalty_tables() -> tuple[np.ndarray, np.ndarray]:
    """The constant parts of `penalties`: (weights, imbalance).

    `weights` is a (width, 2) matrix over the stacked rule words: column 0
    weighs each word's bit count by its rule, and column 1 picks the row
    words of `dark`, whose bits count the dark modules.  `imbalance[k]` is
    the dark/light penalty of k dark modules: 10 per full 5% away from half.
    """
    n = SIZE
    widths, points = [2 * n, 2 * n, n - 1, 2 * n, n], [1, 2, 3, 40, 0]  # five, opens, blocks, finders, dark rows
    weights = np.zeros((sum(widths), 2), dtype=np.int64)
    weights[:, 0] = np.repeat(points, widths)
    weights[-n:, 1] = 1
    total = n * n
    imbalance = 10 * (np.abs(100 * np.arange(total + 1) - 50 * total) // (5 * total))
    weights.setflags(write=False)
    imbalance.setflags(write=False)
    return weights, imbalance


def penalties(stack: np.ndarray) -> np.ndarray:
    """Penalty of each symbol in a (count, SIZE, SIZE) stack; lower is better.

    Scores long same-color runs, 2x2 blocks, finder-lookalike sequences, and
    overall dark/light imbalance, the four ISO/IEC 18004 mask rules.  Each
    row and each column is packed into one uint64 word, module j at bit j,
    so every rule is a few shifts and ANDs over whole lines.
    """
    stack = np.asarray(stack, dtype=np.uint8)
    count, n = len(stack), SIZE
    grid = np.zeros((count, 2 * n, 64), dtype=np.uint8)
    grid[:, :n, :n] = stack
    grid[:, n:, :n] = stack.transpose(0, 2, 1)
    dark = np.packbits(grid, bitorder="little").view("<u8").reshape(count, 2 * n)  # rows, then columns
    after = dark >> 1  # bit j is module j + 1

    # same-colour runs of 5 or more: 3 + (length - 5) each, which is 1 per
    # same-colour window of five plus 2 for the window that opens the run;
    # bit j of `same` says modules j and j + 1 match, and runs of matches
    # are built by doubling: four matches make a window of five
    same = ~(dark ^ after) & ((1 << n - 1) - 1)
    two = same & (same >> 1)
    five = two & (two >> 2)
    opens = five & ~(same << 1)  # at a line start or after a colour change

    # same-colour 2x2 blocks, overlapping: 3 each; the block at row r and
    # column c needs modules c and c + 1 to match in rows r and r + 1, and
    # rows r and r + 1 to match at column c
    blocks = same[:, : n - 1] & same[:, 1:n] & ~(dark[:, : n - 1] ^ dark[:, 1:n])
    parts = [five, opens, blocks]

    # finder lookalikes: an 11-module window reading 0b1011101 (a 1:1:3:1:1
    # core then four light modules) or 0b1011101 << 4 (four light modules
    # then the core), 40 each; the two cannot share a start, so their bits OR
    light = ~dark & ((1 << n) - 1)
    light_after = light >> 1
    light2 = light & light_after
    light4 = light2 & (light2 >> 2)
    dark3 = dark & after & (dark >> 2)
    # the core's modules in pairs: dark then light, three dark, light then dark
    core = dark & light_after & (dark3 >> 2) & ((light & after) >> 5)
    parts.append((core & (light4 >> 7)) | (light4 & (core >> 4)))
    parts.append(dark[:, :n])
    weights, imbalance = _penalty_tables()
    score, dark_count = (np.bitwise_count(np.concatenate(parts, axis=1)) @ weights).T
    return score + imbalance[dark_count]


def encode_label(label: str, mask: int | None = None) -> QrMatrix:
    """Encode a label into a version-3 symbol.

    The mask is chosen by minimum penalty over all eight patterns (lowest
    index wins ties) unless forced explicitly.
    """
    if mask is not None and mask not in range(8):
        raise ValueError("mask must be in 0..7")
    blob = np.frombuffer(encode_codewords(label), dtype=np.uint8)
    rows, cols = _data_positions()
    data = np.zeros((SIZE, SIZE), dtype=np.uint8)
    data[rows, cols] = np.unpackbits(blob, count=rows.size)  # remainder bits stay light
    templates = _templates()
    if mask is None:
        mask = int(np.argmin(penalties(templates ^ data)))  # lowest index wins ties
    modules = templates[mask] ^ data
    modules.setflags(write=False)
    return QrMatrix(modules=modules, mask=mask)


def render(matrix: QrMatrix, scale: int = DEFAULT_SCALE) -> BinaryPattern:
    """Expand each module into a scale x scale pixel block (no quiet zone)."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    bits = np.repeat(np.repeat(matrix.modules, scale, axis=1), scale, axis=0)  # columns first: the cheaper order
    return BinaryPattern(bits)


def random_pattern(seed) -> BinaryPattern:
    """Deterministic ~50%-density bitmap of a rendered symbol's size: a library source, not a `train` option."""
    side = SIZE * DEFAULT_SCALE
    return BinaryPattern(np.random.default_rng(seed).integers(0, 2, size=(side, side), dtype=np.uint8))

