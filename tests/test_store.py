import itertools
import re
from dataclasses import fields
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cbrn import store
from cbrn.errors import (
    CbrnError,
    DimensionMismatch,
    ModelFormatError,
    UnsupportedVersion,
)
from cbrn.memory import MemorySystem, SystemConfig
from conftest import CLASSIC_PAIRS, make_toy_system, pair_classic, train_full_system


@pytest.fixture(scope="module")
def demo_text():
    return store.dumps(pair_classic(train_full_system()))


def toy():
    rng = np.random.default_rng(11)
    stored = {
        "A": [v / np.linalg.norm(v) for v in rng.random((3, 6))],
        "B": [v / np.linalg.norm(v) for v in rng.random((2, 6))],
    }
    system = make_toy_system(stored, dim=6)
    system.learn_cross_weights("A", 1, "B", 0)
    return system


def assert_same_bits(a, b):
    """Equal bit for bit: unlike array equality, -0.0 differs from 0.0."""
    np.testing.assert_array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


def assert_same_links(loaded: MemorySystem, system: MemorySystem):
    """Every ordered ball pair's link weights are equal bit for bit, a pair without an array reading as zeros."""
    for a, b in itertools.permutations(system.balls, 2):
        assert_same_bits(loaded.link_weights(a, b), system.link_weights(a, b))


def reference_row(row) -> str:
    """The row formatter without the distinct-value shortcut: one repr per value."""
    return " ".join(repr(float(x)) for x in row)


def dumped_rows(text: str) -> list[str]:
    return [line for line in text.splitlines() if line[:2] in ("w ", "v ")]


def one_row_system(w_row, v_row) -> MemorySystem:
    system = MemorySystem(SystemConfig(dim=len(w_row)))
    system.add_ball("A", ["x"])
    system.balls["A"].w[0] = w_row
    system.balls["A"].v[0] = v_row
    return system


def assert_rows_round_trip(system: MemorySystem):
    """Rows are printed as the reference formatter prints them and load back bit for bit."""
    text = store.dumps(system)
    ball = system.balls["A"]
    assert dumped_rows(text) == [f"w 0 {reference_row(ball.w[0])}", f"v 0 {reference_row(ball.v[0])}"]
    loaded = store.loads(text)
    assert_same_bits(loaded.balls["A"].w, ball.w)
    assert_same_bits(loaded.balls["A"].v, ball.v)
    assert store.dumps(loaded) == text


class TestRoundTrip:
    def test_weights_bit_exact(self):
        system = toy()
        loaded = store.loads(store.dumps(system))
        for ball_id, ball in system.balls.items():
            assert_same_bits(loaded.balls[ball_id].v, ball.v)
            assert_same_bits(loaded.balls[ball_id].w, ball.w)
            assert loaded.balls[ball_id].labels == ball.labels
        assert_same_links(loaded, system)
        assert loaded.config == system.config

    def test_resave_is_byte_identical(self, tmp_path):
        system = toy()
        first = tmp_path / "a.cbrn"
        second = tmp_path / "b.cbrn"
        store.save(system, first)
        store.save(store.load(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_same_system_serializes_identically(self):
        assert store.dumps(toy()) == store.dumps(toy())

    def test_awkward_floats_survive(self):
        assert_rows_round_trip(one_row_system(
            [1 / 3, 1e-300, -0.0, 2.2250738585072014e-308],
            [np.pi, -np.e, 1e300, 5e-324],
        ))

    def test_signed_zeros_and_repeats_keep_their_spelling(self):
        # a formatter that merged values by equality would print -0.0 as 0.0
        system = one_row_system(
            [0.0, -0.0, 0.25, 0.0, -0.0, 0.25, 1 / 3, -0.0],
            [-0.0, -0.0, -0.0, 0.0, 5e-324, -5e-324, 5e-324, 0.0],
        )
        assert_rows_round_trip(system)
        assert dumped_rows(store.dumps(system))[0] == "w 0 0.0 -0.0 0.25 0.0 -0.0 0.25 0.3333333333333333 -0.0"

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_rows_match_reference_formatter(self, data):
        dim = data.draw(st.integers(1, 40))
        values = st.one_of(
            st.sampled_from([0.0, -0.0, 1 / 3, 5e-324, -1e300]),
            st.floats(allow_nan=False, allow_infinity=False),
        )
        w, v = (data.draw(arrays(np.float64, dim, elements=values)) for _ in range(2))
        assert_rows_round_trip(one_row_system(w, v))

    def test_save_writes_what_dumps_returns(self, tmp_path):
        system = toy()
        store.save(system, tmp_path / "m.cbrn")
        assert (tmp_path / "m.cbrn").read_bytes() == store.dumps(system).encode("utf-8")

    def test_link_trained_to_zero_is_not_saved(self):
        # one step takes a link loaded at -1e20 to -1e20 + (100 + 1e20), which rounds to exactly 0
        system = MemorySystem(SystemConfig(dim=2))
        system.add_ball("A", ["a"])
        system.add_ball("B", ["b"])
        system._link_array("A", "B")[0, 0] = -1e20
        forward, _ = system.learn_cross_weights("A", 0, "B", 0)
        assert forward.error == 5e39 and forward.final_error == 5000.0
        assert system.links["A", "B"][0, 0] == 0.0 and system.trained_links() == [("B", 0, "A", 0, 100.0)]
        text = store.dumps(system)
        assert "link A" not in text
        assert store.dumps(store.loads(text)) == text

    def test_loads_makes_link_arrays_only_for_directions_with_link_records(self):
        system = MemorySystem(SystemConfig(dim=2))
        for ball_id in "ABC":
            system.add_ball(ball_id, ["x", "y"])
        assert store.loads(store.dumps(system)).links == {}
        system.learn_cross_weights("C", 1, "A", 0)
        loaded = store.loads(store.dumps(system))
        assert sorted(loaded.links) == [("A", "C"), ("C", "A")]
        assert_same_links(loaded, system)
        loaded.links["A", "C"][0, 1] = 0.0  # a direction without records, as a link trained to zero leaves it
        assert list(store.loads(store.dumps(loaded)).links) == [("C", "A")]

    def test_labels_with_spaces(self):
        system = MemorySystem(SystemConfig(dim=2))
        system.add_ball("A", ["extra large", "two  spaces"])
        loaded = store.loads(store.dumps(system))
        assert loaded.balls["A"].labels == ["extra large", "two  spaces"]


class TestHeader:
    # every field off its default
    CONFIG = SystemConfig(dim=6, theta=90.5, threshold=61.25)
    # the fields in order, then the constant lines
    KEYS = [field.name for field in fields(SystemConfig)] + ["eps_w", "eps_v", "lambda_cb", "epochs", "normalized"]

    def test_every_field_is_written_in_field_order_and_reads_back(self):
        text = store.dumps(MemorySystem(self.CONFIG))
        assert text.splitlines() == ["CBRN1", "dim 6", "theta 90.5", "threshold 61.25", "eps_w 1.0",
                                     "eps_v 1.0", "lambda_cb 1.0", "epochs 1", "normalized true", "end"]
        assert [line.split()[0] for line in text.splitlines()[1:-1]] == self.KEYS
        assert store.loads(text).config == self.CONFIG

    def test_format_doc_lists_the_header_in_field_order(self):
        doc = (Path(__file__).resolve().parents[1] / "docs" / "model-format.md").read_text(encoding="utf-8")
        grammar = doc.split("header   :", 1)[1].split("\n\n", 1)[0]
        assert re.findall(r'^\s*"(\w+)"', grammar, re.M) == self.KEYS


class TestDemoFileShape:
    def test_section_counts(self, demo_text):
        lines = demo_text.splitlines()
        assert lines[0] == "CBRN1"
        assert lines[-1] == "end"
        balls = [l for l in lines if l.startswith("ball ")]
        assert [b.split() for b in balls] == [
            ["ball", "Color", "7"],
            ["ball", "Style", "7"],
            ["ball", "Volume", "7"],
        ]
        assert sum(1 for l in lines if l.startswith("w ")) == 21
        assert sum(1 for l in lines if l.startswith("v ")) == 21
        links = [l for l in lines if l.startswith("link ")]
        assert len(links) == 6  # three pairs, both directions

    def test_links_cover_classic_pairs(self, demo_text):
        links = {tuple(l.split()[1:5]) for l in demo_text.splitlines() if l.startswith("link ")}
        for a, k, b, l in CLASSIC_PAIRS:
            assert (a, str(k), b, str(l)) in links
            assert (b, str(l), a, str(k)) in links

    def test_loaded_demo_behaves(self, demo_text):
        loaded = store.loads(demo_text)
        probe = loaded.recall_forward("Color", 0)
        result = loaded.associate("Color", probe, "Style")
        assert (result.source_neuron, result.target_neuron) == (0, 3)


def first_index(lines: list[str], prefix: str) -> int:
    return next(i for i, line in enumerate(lines) if line.startswith(prefix))


def swap_lines(lines: list[str], first: str, second: str) -> None:
    i, j = first_index(lines, first), first_index(lines, second)
    lines[i], lines[j] = lines[j], lines[i]


def repeat_w0_for_w1(lines: list[str]) -> None:
    lines[first_index(lines, "w 1 ")] = lines[first_index(lines, "w 0 ")]


def ball_after_link(lines: list[str]) -> None:
    zeros = " ".join(["0.0"] * 6)
    lines[-1:-1] = ["ball C 1", "label 0 c", f"w 0 {zeros}", f"v 0 {zeros}"]


class TestRejects:
    def test_bad_magic(self):
        with pytest.raises(UnsupportedVersion):
            store.loads("CBRN9\ndim 4\n")

    def test_empty(self):
        with pytest.raises(UnsupportedVersion):
            store.loads("")

    def test_missing_end(self):
        text = store.dumps(toy())
        with pytest.raises(ModelFormatError, match="end"):
            store.loads(text.rsplit("end", 1)[0])

    def test_truncated_ball_section(self):
        text = store.dumps(toy())
        lines = [l for l in text.splitlines() if not l.startswith("v 1")]
        with pytest.raises(ModelFormatError):
            store.loads("\n".join(lines) + "\n")

    def test_row_length_mismatch(self):
        text = store.dumps(toy())
        lines = text.splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("w 0"))
        lines[idx] = lines[idx] + " 0.5"
        with pytest.raises(DimensionMismatch):
            store.loads("\n".join(lines) + "\n")

    @pytest.mark.parametrize("kind", ["w", "v"])
    def test_non_finite_row_value(self, kind):
        text = store.dumps(toy())
        lines = text.splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith(f"{kind} 0 "))
        values = lines[idx].split()[2:]
        lines[idx] = " ".join([kind, "0", "nan", "inf", *values[2:]])
        with pytest.raises(ModelFormatError, match="non-finite"):
            store.loads("\n".join(lines) + "\n")

    def test_non_finite_link_weight(self):
        text = store.dumps(toy())
        lines = text.splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("link "))
        lines[idx] = lines[idx].rsplit(" ", 1)[0] + " -inf"
        with pytest.raises(ModelFormatError, match="not finite"):
            store.loads("\n".join(lines) + "\n")

    def test_huge_dim_refused_before_allocation(self):
        # (n, dim) float arrays for this dim would need petabytes: the
        # mismatch with the first w row must be found before any is made
        text = store.dumps(toy()).replace("dim 6\n", "dim 1000000000000000\n")
        with pytest.raises(DimensionMismatch, match="header dim is 1000000000000000"):
            store.loads(text)

    def test_link_to_unknown_ball(self):
        text = store.dumps(toy())
        lines = text.splitlines()
        lines.insert(-1, "link A 0 Zebra 0 100.0")
        with pytest.raises(ModelFormatError, match="unknown ball"):
            store.loads("\n".join(lines) + "\n")

    def test_duplicate_link_rejected(self):
        text = store.dumps(toy())
        lines = text.splitlines()
        record = next(l for l in lines if l.startswith("link "))
        lines.insert(-1, record)
        with pytest.raises(ModelFormatError, match="duplicate link"):
            store.loads("\n".join(lines) + "\n")

    def test_swapped_link_records_rejected(self):
        # records out of canonical order would load and then re-save differently
        text = store.dumps(toy())
        lines = text.splitlines()
        first = next(i for i, l in enumerate(lines) if l.startswith("link "))
        assert lines[first + 1].startswith("link ")
        lines[first], lines[first + 1] = lines[first + 1], lines[first]
        with pytest.raises(ModelFormatError, match="out of order"):
            store.loads("\n".join(lines) + "\n")

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "m.cbrn"
        text = store.dumps(toy()).replace("label 0 A-0", "label 0 A-\xff")
        path.write_bytes(text.encode("latin-1"))
        offset = text.index("\xff")  # the text before it is ASCII
        with pytest.raises(ModelFormatError, match=rf"^{re.escape(str(path))}: byte {offset} is not UTF-8 text$"):
            store.load(path)

    @pytest.mark.parametrize("place", ["label", "comment"])
    def test_lone_surrogate_in_text_is_not_utf8(self, place):
        # no file holds a lone surrogate, so `loads` refuses it as a byte that is not UTF-8
        text = store.dumps(toy())
        text = text.replace("label 0 A-0", "label 0 A-\udcff") if place == "label" else text.replace(
            "\nend\n", "\n# \udcff\nend\n")
        offset = len(text[:text.index("\udcff")].encode("utf-8"))
        with pytest.raises(ModelFormatError, match=rf"^byte {offset} is not UTF-8 text$"):
            store.loads(text)

    @pytest.mark.parametrize("weight", ["0.0", "-0.0", "0"])
    def test_zero_link_weight_rejected(self, weight):
        # a zero weight is no link, and dumps never writes one
        text = store.dumps(toy())
        lines = text.splitlines()
        lines.insert(-1, f"link A 0 B 1 {weight}")
        with pytest.raises(ModelFormatError, match="zero link weight"):
            store.loads("\n".join(lines) + "\n")

    def test_intra_ball_link_rejected(self):
        text = store.dumps(toy())
        lines = text.splitlines()
        lines.insert(-1, "link A 0 A 1 100.0")
        with pytest.raises(ModelFormatError):
            store.loads("\n".join(lines) + "\n")

    def test_content_after_end(self):
        with pytest.raises(ModelFormatError, match="after end"):
            store.loads(store.dumps(toy()) + "ball C 1\n")

    def test_inconsistent_header_values(self):
        text = store.dumps(toy()).replace("theta 100.0", "theta 50.0")
        with pytest.raises(ModelFormatError, match="header"):
            store.loads(text)  # theta must exceed the threshold

    @pytest.mark.parametrize("old, new, message", [
        ("epochs 1", "epochs 3", r"^line 8: epochs 3: this program writes only 'epochs 1'; retrain the model$"),
        ("normalized true", "normalized false",
         r"^line 9: normalized false: this program writes only 'normalized true'; retrain the model$"),
        ("eps_v 1.0", "eps_v 0.5", r"^line 6: eps_v 0.5: this program writes only 'eps_v 1.0'; retrain the model$"),
        ("lambda_cb 1.0", "lambda_cb 1.5",
         r"^line 7: lambda_cb 1.5: this program writes only 'lambda_cb 1.0'; retrain the model$"),
        ("lambda_cb 1.0", "lambda_cb 1",
         r"^line 7: lambda_cb 1: this program writes only 'lambda_cb 1.0'; retrain the model$"),
    ], ids=["epochs 3", "normalized false", "eps_v 0.5", "lambda_cb 1.5", "lambda_cb 1"])
    def test_header_this_program_cannot_train_rejected(self, old, new, message):
        text = store.dumps(toy())
        with pytest.raises(ModelFormatError, match=message):
            store.loads(text.replace(f"\n{old}\n", f"\n{new}\n"))

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: swap_lines(lines, "theta ", "threshold "), "line 3: expected 'theta', got 'threshold'"),
        (repeat_w0_for_w1, "line 15: expected 'w 1', got 'w 0'"),
        (lambda lines: swap_lines(lines, "w 0 ", "w 1 "), "line 14: expected 'w 0', got 'w 1'"),
        (lambda lines: swap_lines(lines, "label 0 ", "label 1 "), "line 11: expected 'label 0', got 'label 1'"),
        (ball_after_link, "line 29: expected 'link' or 'end', got 'ball'"),
    ], ids=["swapped header keys", "w 0 repeated, w 1 missing", "swapped w rows", "swapped labels",
            "ball after link"])
    def test_record_out_of_place(self, edit, message):
        # each of these used to load, and then re-save differently or lose a row
        lines = store.dumps(toy()).splitlines()
        edit(lines)
        with pytest.raises(ModelFormatError, match=message):
            store.loads("\n".join(lines) + "\n")

    def test_end_takes_no_arguments(self):
        with pytest.raises(ModelFormatError, match="end marker"):
            store.loads(store.dumps(toy()).replace("\nend\n", "\nend x\n"))

    def test_comments_and_blanks_tolerated(self):
        text = store.dumps(toy())
        lines = text.splitlines()
        lines.insert(1, "# a comment")
        lines.insert(4, "")
        loaded = store.loads("\n".join(lines) + "\n")
        assert set(loaded.balls) == {"A", "B"}


def read_row(rest: str, dim: int) -> np.ndarray:
    """The row reader on a `w 0` record on line 14 whose text after the word is `rest`."""
    return store._RowReader(dim).take(iter([(14, "w", rest)]), "w", 0)


def assert_reads_as_split(rest: str):
    """Each value of the row is `float` of its `str.split` token, bit for bit."""
    expected = [float(token) for token in rest.split()[1:]]
    assert_same_bits(read_row(rest, len(expected)), np.array(expected))


# spellings `float` reads: signed zeros, the smallest subnormal, repr's
# longest (24 bytes), and spellings longer than the 24-byte key that share it
SPELLINGS = ["0.0", "-0.0", "0", "-0", "5e-324", "-5e-324", "-2.2250738585072014e-308",
             "1.7976931348623157e+308", "1.000000000000000000000000000e0", "1.000000000000000000000000000e1",
             "0.25", "+.25", "2.5E-1", "1_0.5", "1e3"]
# what `str.split` splits at inside a line, alone and in runs
SEPARATORS = [" ", "  ", "\t", "\x1f", " \t\x1f ", "\u00a0", "\u3000", " \u00a0 "]
FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestRowReader:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_values_are_float_of_each_split_token(self, data):
        spelling = st.one_of(st.sampled_from(SPELLINGS), FINITE.map(repr), FINITE.map("{:.30e}".format))
        tokens = data.draw(st.lists(spelling, min_size=1, max_size=60))
        separators = data.draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(tokens), max_size=len(tokens)))
        assert_reads_as_split("0" + "".join(sep + token for sep, token in zip(separators, tokens)))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(FINITE, min_size=1, max_size=300, unique_by=repr))
    def test_row_of_distinct_values(self, values):
        assert_reads_as_split("0 " + " ".join(map(repr, values)))

    def test_full_row_of_distinct_values(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(13_456) * 10.0 ** rng.integers(-300, 300, 13_456)
        assert len(set(values.tolist())) == 13_456
        assert_same_bits(read_row("0 " + " ".join(map(repr, values.tolist())), 13_456), values)

    def test_one_reader_reads_rows_of_any_length_in_turn(self):
        # the reader's work arrays serve every row of a load: nothing of one row may reach the next
        rng = np.random.default_rng(7)
        rows = [np.zeros(50), rng.standard_normal(50) * 1e300, np.repeat(rng.standard_normal(3), [10, 20, 20]),
                -np.zeros(50), rng.standard_normal(50)]
        spacing = ["\t", " " * 40, " ", "\x1f", "  "]
        records = iter([(14 + i, "w", spacing[i].join([str(i), *map(repr, row.tolist())]))
                        for i, row in enumerate(rows)])
        reader = store._RowReader(50)
        for i, row in enumerate(rows):
            assert_same_bits(reader.take(records, "w", i), row)

    def test_unicode_digits_and_spaces_read_as_float_reads_them(self):
        rest = "0\u3000\u0661.\u0665 \u00a0\uff12\uff15\t1.5"
        assert_reads_as_split(rest)
        assert read_row(rest, 3).tolist() == [1.5, 25.0, 1.5]

    @pytest.mark.parametrize("rest, count", [
        ("0 1.0 2.0 3.0", 3), ("0", 0), ("0\u00a01.0\u3000 2.0", 2), ("0 1.0\t\t2.0\x1f3.0  4.0 5.0", 5),
    ])
    def test_wrong_count_is_a_dimension_error(self, rest, count):
        with pytest.raises(DimensionMismatch, match=rf"^line 14: w row has {count} values, header dim is 4$"):
            read_row(rest, 4)

    @pytest.mark.parametrize("token", ["abc", "1.0.0", "1\x00", "0x10", "--1", "1__0",
                                       "1.000000000000000000000000000x"])
    def test_bad_token_is_malformed(self, token):
        # beside tokens that share its first bytes: `1` its key's bytes, the long one its 24-byte key
        with pytest.raises(ModelFormatError, match=r"^line 14: malformed float in w row$"):
            read_row(f"0 1 {token} 1.000000000000000000000000000e0 1.0", 4)

    def test_loads_names_the_row_line(self):
        lines = store.dumps(toy()).splitlines()
        assert lines[13].startswith("w 0 ")
        with pytest.raises(DimensionMismatch, match=r"^line 14: w row has 7 values, header dim is 6$"):
            store.loads("\n".join([*lines[:13], lines[13] + " 0.5", *lines[14:]]) + "\n")
        with pytest.raises(ModelFormatError, match=r"^line 14: malformed float in w row$"):
            store.loads("\n".join([*lines[:13], lines[13].rsplit(" ", 1)[0] + " 0,5", *lines[14:]]) + "\n")


def row_model(tokens: list[str], after_index: str = " ") -> bytes:
    """A one-ball model whose `w 0` and `v 0` rows spell `tokens`, each row's index followed by `after_index`."""
    lines = store.dumps(one_row_system(np.zeros(len(tokens)), np.zeros(len(tokens)))).splitlines()
    rows = {f"{word} 0": f"{word} 0{after_index}{' '.join(tokens)}" for word in "wv"}
    return "".join(rows.get(line[:3], line) + "\n" for line in lines).encode()


def load_fed(path, feed: type) -> MemorySystem:
    """`store.load(path)`, requiring every `w` and `v` record to reach the row reader as a `feed`, there and in
    `store.loads` of the file's text, which must load the same system: `memoryview` for the lines a load keeps
    as bytes, `str` for the lines it decodes."""
    real = store._take

    def take(records, word, index=None):
        lineno, rest = real(records, word, index)
        assert word not in ("w", "v") or type(rest) is feed, (lineno, type(rest))
        return lineno, rest

    with patch.object(store, "_take", take):
        from_text = store.loads(path.read_bytes().decode("utf-8"))
        loaded = store.load(path)
    assert store.dumps(from_text) == store.dumps(loaded)
    return loaded


# rows of the tokens a grouping must tell apart, each with its index: runs of
# equal tokens, runs of tokens longer than the 24-byte key, neighbours that share
# their first 24 bytes, signed zeros, and runs across a gather block
ROWS = {
    "runs": ["0.5"] * 100 + ["0.25"] * 50 + ["0.5"] * 10 + ["1e3", "0.25"],
    "long runs": ["1.000000000000000000000000000e0"] * 5 + ["1.000000000000000000000000000e1"] * 5
                 + ["1.000000000000000000000000000e0"] * 2,
    "shared 24 bytes": ["0.1234567890123456789012", "0.12345678901234567890123", "0.12345678901234567890124",
                        "0.1234567890123456789012", "0.12345678901234567890124", "0.123456789012345678901245"],
    "signed zeros": ["0.0", "-0.0"] * 40 + ["-0.0"] * 3 + ["0.0"] * 3 + ["-0", "0"],
    "across a gather block": ["0.1"] * (store._GATHER - 3) + ["0.2"] * 6
                             + ["1.000000000000000000000000000e0"] * 4 + ["0.1"] * 5,
}


class TestRowFeeds:
    """`load` and `loads` parse a row as `save` writes it from its bytes, and decode every other line first."""

    @pytest.mark.parametrize("tokens", ROWS.values(), ids=ROWS)
    def test_both_feeds_read_float_of_each_token(self, tmp_path, tokens):
        expected = np.array([float(token) for token in tokens])
        for after_index, feed in ((" ", memoryview), ("\t", str)):
            path = tmp_path / "m.cbrn"
            path.write_bytes(row_model(tokens, after_index))
            loaded = load_fed(path, feed)
            assert_same_bits(loaded.balls["A"].w[0], expected)
            assert_same_bits(loaded.balls["A"].v[0], expected)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(SPELLINGS) | FINITE.map(repr), min_size=1, max_size=6).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=80)))
    def test_any_row_of_repeats_reads_the_same_from_both_feeds(self, tmp_path_factory, tokens):
        path = tmp_path_factory.mktemp("feeds") / "m.cbrn"
        rows = []
        for after_index, feed in ((" ", memoryview), ("\t", str)):
            path.write_bytes(row_model(tokens, after_index))
            rows.append(load_fed(path, feed).balls["A"].w[0].copy())
        assert_same_bits(rows[0], rows[1])
        assert_same_bits(rows[0], [float(token) for token in tokens])

    def test_a_saved_row_is_never_decoded(self, tmp_path, paired_system):
        for system in (paired_system, toy(), one_row_system([-0.0, 5e-324, 1 / 3], [1e300, -2.2250738585072014e-308, 0.0])):
            path = tmp_path / "m.cbrn"
            store.save(system, path)
            load_fed(path, memoryview)

    def test_load_of_the_paired_demo_model_is_the_system_bit_for_bit(self, tmp_path, paired_system):
        path = tmp_path / "demo.cbrn"
        store.save(paired_system, path)
        loaded = store.load(path)
        assert loaded.config == paired_system.config and loaded.balls.keys() == paired_system.balls.keys()
        for ball_id, ball in paired_system.balls.items():
            assert loaded.balls[ball_id].labels == ball.labels
            assert_same_bits(loaded.balls[ball_id].w, ball.w)
            assert_same_bits(loaded.balls[ball_id].v, ball.v)
        assert_same_links(loaded, paired_system)

    def test_one_reader_reads_kept_and_decoded_rows_in_turn(self):
        rng = np.random.default_rng(3)
        rows = [np.repeat(rng.standard_normal(2), [30, 20]), rng.standard_normal(50), -np.zeros(50), np.zeros(50)]
        # after the word, rows 1 and 3 come as `load` keeps them, a view of their bytes, and rows 0 and 2 as text
        lines = [f"w {i}{sep}{' '.join(map(repr, row.tolist()))}" for i, (row, sep) in enumerate(zip(rows, "\t \t "))]
        records = iter([(14 + i, "w", memoryview(line.encode())[2:] if i % 2 else line[2:]) for i, line in enumerate(lines)])
        reader = store._RowReader(50)
        for i, row in enumerate(rows):
            assert_same_bits(reader.take(records, "w", i), row)


class TestSave:
    @pytest.mark.parametrize("label", ["a#b", "a\nb", "a\rb", "a\u2028b", "a\n", "x ", "x\t", "a\udcffb"])
    def test_unsavable_label_leaves_existing_file_untouched(self, tmp_path, label):
        path = tmp_path / "m.cbrn"
        store.save(toy(), path)
        before = path.read_bytes()
        bad = MemorySystem(SystemConfig(dim=2))
        bad.add_ball("A", [label])
        with pytest.raises(ValueError, match="cannot contain"):
            store.save(bad, path)
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["m.cbrn"]

    @pytest.mark.parametrize("ball_id", ["", "A B", "A#", "A\tB", "A\n", " A", "A\udcff"])
    def test_unsavable_ball_id_leaves_existing_file_untouched(self, tmp_path, ball_id):
        path = tmp_path / "m.cbrn"
        store.save(toy(), path)
        before = path.read_bytes()
        bad = MemorySystem(SystemConfig(dim=2))
        bad.add_ball(ball_id, ["a"])
        with pytest.raises(ValueError, match="cannot be empty or contain"):
            store.save(bad, path)
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["m.cbrn"]

    def test_failure_while_writing_leaves_existing_file_untouched(self, tmp_path, monkeypatch):
        path = tmp_path / "m.cbrn"
        store.save(toy(), path)
        before = path.read_bytes()
        calls = []
        real = store._fmt_row

        def fail_on_third_row(row):
            calls.append(1)
            if len(calls) == 3:
                raise OSError("disk full")
            return real(row)

        monkeypatch.setattr(store, "_fmt_row", fail_on_third_row)
        with pytest.raises(OSError, match="disk full"):
            store.save(toy(), path)
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["m.cbrn"]


def fuzz_base() -> str:
    """A small model with every kind of record: header, two balls, two links."""
    system = MemorySystem(SystemConfig(dim=2))
    system.add_ball("A", ["a"])
    system.add_ball("B", ["b", "c"])
    system.store("A", 0, [0.6, 0.8])
    system.store("B", 0, [1.0, 0.0])
    system.store("B", 1, [0.0, 1.0])
    system.learn_cross_weights("A", 0, "B", 1)
    return store.dumps(system)


EDIT_TOKENS = ["-1", "0", "1", "2", "3", "9" * 30, "0.0", "-0.0", "1e999", "nan", "1_0", "A", "B", "x",
               "ball", "link", "end", "#", ""]


def assert_loads_or_raises_cbrn_error(lines: list[str], resaves_exactly: bool = False) -> None:
    text = "\n".join(lines) + "\n"
    try:
        system = store.loads(text)
    except CbrnError:
        return
    # whatever loads is a valid system: it saves and loads back to the same text
    saved = store.dumps(system)
    assert store.dumps(store.loads(saved)) == saved
    if resaves_exactly:
        assert saved == text


def loads_as(text: str, path=None):
    """The text `store.loads` saves back, or the type and message of the error it raises, after `path: ` if given."""
    try:
        return store.dumps(store.loads(text))
    except CbrnError as exc:
        return type(exc), str(exc) if path is None else f"{path}: {exc}"


def load_as(path, chunk: int):
    """`loads_as` for `store.load(path)`, reading the file `chunk` bytes at a time.

    `chunk` is the file's read buffer; 1 opens the file unbuffered, whose lines
    are read a byte at a time (binary mode refuses a buffer of 1 as line buffering).
    """
    with patch.object(store, "CHUNK_BYTES", chunk if chunk > 1 else 0):
        try:
            return store.dumps(store.load(path))
        except CbrnError as exc:
            return type(exc), str(exc)


def multibyte_base() -> str:
    """A small model whose labels hold 2-, 3- and 4-byte characters."""
    system = MemorySystem(SystemConfig(dim=2))
    system.add_ball("A", ["caf\xe9", "\u4e2d\u6587 \U0001f3b2"])
    system.add_ball("B", ["\U0001f600"])
    system.store("A", 0, [0.6, 0.8])
    system.store("A", 1, [1.0, 0.0])
    system.store("B", 0, [0.0, 1.0])
    system.learn_cross_weights("A", 1, "B", 0)
    return store.dumps(system)


def with_comments(text: str) -> str:
    lines = text.splitlines()
    return "\n".join([lines[0], "# \xfc comment", "", *(f"{line}  # n\xf6te" for line in lines[1:])]) + "\n"


BREAKS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
STREAMED = {
    "plain": lambda text: text,
    **{f"lines end {ascii(b)}": (lambda b: lambda text: text.replace("\n", b))(b) for b in BREAKS},
    "comments": with_comments,
    "no final newline": lambda text: text[:-1],
    "empty": lambda text: "",
    "BOM": lambda text: "\ufeff" + text,
    "break in a label": lambda text: text.replace("caf\xe9", "ca\x85f"),
    "fault before the end": lambda text: text.replace("\nend\n", "\nball C x\nend\n"),
}


class TestStreamedLoad:
    """`load(path)` reads the file a line at a time and gets what `loads` gets from its text, the file named in each error."""

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, store.CHUNK_BYTES])
    @pytest.mark.parametrize("variant", STREAMED)
    def test_load_matches_loads(self, tmp_path, variant, chunk):
        text = STREAMED[variant](multibyte_base())
        path = tmp_path / "m.cbrn"
        path.write_bytes(text.encode("utf-8"))
        assert load_as(path, chunk) == loads_as(text, path)

    def test_every_break_loads_the_same_system(self):
        base = multibyte_base()
        for variant in ("comments", "no final newline", *(f"lines end {ascii(b)}" for b in BREAKS)):
            assert loads_as(STREAMED[variant](base)) == base

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, store.CHUNK_BYTES])
    @pytest.mark.parametrize("bad", [b"\xff", b"\x80", b"\xe4\xb8", b"\xed\xa0\x80", b"\xf0\x9f\x8e"])
    def test_bad_byte_is_named_by_its_offset_in_the_file(self, tmp_path, chunk, bad):
        data = multibyte_base().encode("utf-8")
        for spoilt in (data.replace("\U0001f3b2".encode("utf-8"), bad), data[:-1] + bad):
            with pytest.raises(UnicodeDecodeError) as decoded:
                spoilt.decode("utf-8")
            path = tmp_path / "m.cbrn"
            path.write_bytes(spoilt)
            assert load_as(path, chunk) == (ModelFormatError, f"{path}: byte {decoded.value.start} is not UTF-8 text")

    def test_fault_before_a_bad_byte_is_the_one_reported(self, tmp_path):
        path = tmp_path / "m.cbrn"
        path.write_bytes(store.dumps(toy()).replace("dim 6", "dim x").encode("utf-8") + b"# \xff\n")
        with pytest.raises(ModelFormatError, match=rf"^{re.escape(str(path))}: line 2: dim 'x' is not an integer$"):
            store.load(path)


class TestFuzz:
    def test_every_single_token_edit(self):
        lines = fuzz_base().splitlines()
        for i, line in enumerate(lines):
            tokens = line.split(" ")
            for t in range(len(tokens)):
                for new in EDIT_TOKENS:
                    edited = " ".join(tokens[:t] + [new] + tokens[t + 1 :])
                    assert_loads_or_raises_cbrn_error(lines[:i] + [edited] + lines[i + 1 :])

    def test_every_dropped_repeated_or_swapped_line(self):
        # records only move, so whatever loads must re-save to its own text
        lines = fuzz_base().splitlines()
        for i in range(len(lines)):
            assert_loads_or_raises_cbrn_error(lines[:i] + lines[i + 1 :], resaves_exactly=True)
            assert_loads_or_raises_cbrn_error(lines[: i + 1] + lines[i:], resaves_exactly=True)
            for j in range(i + 1, len(lines)):
                swapped = list(lines)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                assert_loads_or_raises_cbrn_error(swapped, resaves_exactly=True)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_model_loads_or_raises_cbrn_error(self, tmp_path_factory, data):
        lines = fuzz_base().splitlines()
        for _ in range(data.draw(st.integers(1, 4))):
            i = data.draw(st.integers(0, len(lines) - 1))
            op = data.draw(st.sampled_from(["token", "drop", "repeat", "swap", "cut"]))
            if op == "token":
                tokens = lines[i].split(" ")
                new = data.draw(st.sampled_from(EDIT_TOKENS) | st.text(max_size=6))
                tokens[data.draw(st.integers(0, len(tokens) - 1))] = new
                lines[i] = " ".join(tokens)
            elif op == "drop" and len(lines) > 1:
                del lines[i]
            elif op == "repeat":
                lines.insert(i, lines[i])
            elif op == "swap":
                j = data.draw(st.integers(0, len(lines) - 1))
                lines[i], lines[j] = lines[j], lines[i]
            elif op == "cut":
                lines[i] = lines[i][: data.draw(st.integers(0, len(lines[i])))]
        assert_loads_or_raises_cbrn_error(lines)
        # the same text from a file: the same system, or the same error
        text = "\n".join(lines) + "\n"
        path = tmp_path_factory.mktemp("fuzz") / "m.cbrn"
        path.write_bytes(text.encode("utf-8"))
        assert load_as(path, data.draw(st.sampled_from([1, 3, 7, store.CHUNK_BYTES]))) == loads_as(text, path)
