import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cbrn import patterns, qr, store
from cbrn.errors import (
    CatalogError,
    CbrnError,
    DegeneratePattern,
    DimensionMismatch,
    DuplicateEntry,
    PbmFormatError,
)
from cbrn.patterns import BinaryPattern

bitmaps = st.integers(1, 12).flatmap(
    lambda h: st.integers(1, 12).flatmap(
        lambda w: arrays(np.uint8, (h, w), elements=st.integers(0, 1))
    )
)


class TestNormalize:
    def test_all_dark_2x2_is_symmetric(self):
        v = patterns.normalize(BinaryPattern([[1, 1], [1, 1]]))
        np.testing.assert_array_equal(v, [0.5, 0.5, 0.5, 0.5])

    def test_single_dark_bit_is_unit_vector(self):
        v = patterns.normalize(BinaryPattern([[1, 0], [0, 0]]))
        np.testing.assert_array_equal(v, [1.0, 0.0, 0.0, 0.0])

    def test_qr_pattern_has_unit_energy(self):
        rendered = qr.render(qr.encode_label("red"))
        v = patterns.normalize(rendered)
        assert abs(float(v @ v) - 1.0) <= 1e-12
        assert v.size == 13_456

    def test_all_light_raises(self):
        with pytest.raises(DegeneratePattern):
            patterns.normalize(BinaryPattern(np.zeros((3, 3), dtype=np.uint8)))

    def test_components_nonnegative_and_zero_on_light(self):
        v = patterns.normalize(BinaryPattern([[1, 0], [1, 0]]))
        assert v[1] == 0.0 and v[3] == 0.0
        assert (v >= 0).all()

    @given(bitmaps)
    def test_unit_norm_for_any_nondegenerate_pattern(self, bits):
        if not bits.any():
            bits[0, 0] = 1
        v = patterns.normalize(BinaryPattern(bits))
        assert abs(float(v @ v) - 1.0) <= 1e-12

    @given(bitmaps)
    def test_equals_the_quotient_bits_over_sqrt_popcount(self, bits):
        if not bits.any():
            bits[0, 0] = 1
        quotient = np.divide(bits.reshape(-1), math.sqrt(np.count_nonzero(bits)), dtype=np.float64)
        assert patterns.normalize(BinaryPattern(bits)).view(np.uint64).tolist() == quotient.view(np.uint64).tolist()

    @given(bitmaps)
    def test_equal_bit_sets_give_identical_vectors(self, bits):
        if not bits.any():
            bits[0, 0] = 1
        a = patterns.normalize(BinaryPattern(bits))
        b = patterns.normalize(BinaryPattern(bits.copy()))
        np.testing.assert_array_equal(a, b)


class TestBinaryPattern:
    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_grid_without_pixels_refused(self, shape):
        with pytest.raises(DimensionMismatch, match="at least one pixel"):
            BinaryPattern(np.zeros(shape, dtype=np.uint8))

    @pytest.mark.parametrize("bits, error, message", [
        (np.zeros((2, 2, 2)), DimensionMismatch, "pattern bits must be 2-D, got 3-D"),
        ([[0, 1], [2, 0]], ValueError, "pattern bits must be 0 or 1"),
    ], ids=["3-D", "pixel value 2"])
    def test_bits_other_than_a_grid_of_0_and_1_refused(self, bits, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            BinaryPattern(bits)


class TestToPattern:
    def test_roundtrip_of_stored_level(self):
        original = BinaryPattern([[1, 0, 1], [0, 1, 0]])
        v = patterns.normalize(original)
        assert patterns.to_pattern(v, 3, 2) == original

    def test_zero_vector_raises(self):
        with pytest.raises(DegeneratePattern):
            patterns.to_pattern(np.zeros(4), 2, 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_component_raises(self, bad):
        with pytest.raises(DegeneratePattern, match="^recalled vector has a non-finite component$"):
            patterns.to_pattern([bad, 1.0, 0.0, 1.0], 2, 2)

    def test_wrong_size_raises(self):
        with pytest.raises(DimensionMismatch):
            patterns.to_pattern(np.ones(5), 2, 2)


class TestPbm:
    def test_literal_format(self, tmp_path):
        path = tmp_path / "p.pbm"
        for text, bits in (("P1\n2 2\n1 0\n0 1\n", [[1, 0], [0, 1]]),
                           # pbm(5): whitespace between the pixels of a plain raster is optional
                           ("P1\n4 2\n0101\n1100\n", [[0, 1, 0, 1], [1, 1, 0, 0]])):
            path.write_text(text)
            np.testing.assert_array_equal(patterns.load_pbm(path).bits, bits)

    def test_save_then_load_identity(self, tmp_path):
        pattern = qr.render(qr.encode_label("red"))
        path = tmp_path / "red.pbm"
        patterns.save_pbm(pattern, path)
        assert patterns.load_pbm(path) == pattern

    @given(bitmaps)
    @settings(max_examples=25)
    def test_roundtrip_identity_on_bits(self, tmp_path_factory, bits):
        pattern = BinaryPattern(bits)
        path = tmp_path_factory.mktemp("pbm") / "p.pbm"
        patterns.save_pbm(pattern, path)
        assert patterns.load_pbm(path) == pattern

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "p.pbm"
        path.write_text("P4\n2 2\n1 0 0 1\n")
        with pytest.raises(PbmFormatError):
            patterns.load_pbm(path)

    def test_nonbinary_token(self, tmp_path):
        path = tmp_path / "p.pbm"
        path.write_text("P1\n2 2\n1 0\n0 2\n")
        with pytest.raises(PbmFormatError):
            patterns.load_pbm(path)

    def test_token_count_mismatch(self, tmp_path):
        path = tmp_path / "p.pbm"
        path.write_text("P1\n2 2\n1 0 0\n")
        with pytest.raises(PbmFormatError):
            patterns.load_pbm(path)

    @pytest.mark.parametrize("text, size", [("P1\n0 5\n", "0x5"), ("P1\n-1 2\n", "-1x2")])
    def test_non_positive_dimensions(self, tmp_path, text, size):
        path = tmp_path / "p.pbm"
        path.write_text(text)
        with pytest.raises(PbmFormatError, match=f"^{re.escape(str(path))}: non-positive dimensions {size}$"):
            patterns.load_pbm(path)

    def test_comments_are_ignored(self, tmp_path):
        path = tmp_path / "p.pbm"
        path.write_text("P1\n# a comment\n2 2 # trailing\n1 0\n0 1\n")
        np.testing.assert_array_equal(patterns.load_pbm(path).bits, [[1, 0], [0, 1]])


class TestCatalog:
    def test_bundled_layout(self):
        catalog = patterns.default_catalog()
        assert [g.name for g in catalog] == ["Color", "Style", "Volume"]
        assert all(len(g.labels) == 7 for g in catalog)
        assert catalog.groups[0].labels[0] == "red"
        assert catalog.groups[1].labels[3] == "rectangle"
        assert catalog.groups[2].labels[6] == "mini"

    def test_neuron_count_equals_label_count(self):
        for group in patterns.default_catalog():
            assert len(set(group.labels)) == len(group.labels)

    def test_empty_file_gives_empty_catalog(self):
        catalog = patterns.parse_catalog("# only a comment\n\n")
        assert len(catalog) == 0

    def test_duplicate_index_rejected(self):
        with pytest.raises(DuplicateEntry):
            patterns.parse_catalog("Color:0:red\nColor:0:blue\n")

    def test_duplicate_label_rejected(self):
        with pytest.raises(DuplicateEntry):
            patterns.parse_catalog("Color:0:red\nColor:1:red\n")

    def test_index_gap_rejected(self):
        with pytest.raises(CatalogError):
            patterns.parse_catalog("Color:0:red\nColor:2:blue\n")

    def test_negative_index_rejected(self):
        with pytest.raises(CatalogError, match="^line 1: index -1 is negative$"):
            patterns.parse_catalog("Color:-1:red\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(CatalogError):
            patterns.parse_catalog("Color=0=red\n")

    def test_group_name_with_space_rejected(self):
        with pytest.raises(CatalogError):
            patterns.parse_catalog("Cue Ball:0:red\n")

    def test_byte_order_mark_is_refused_on_line_1(self, tmp_path):
        # Notepad's UTF-8 BOM would otherwise join the first group's name and split it from its own group
        path = tmp_path / "cat.txt"
        path.write_bytes("Color:0:red\nStyle:0:box\n".encode("utf-8-sig"))
        with pytest.raises(CatalogError, match=re.escape("line 1: group name '\\ufeffColor' must be one printable word")):
            patterns.load_catalog(path)

    def test_load_catalog_from_file(self, tmp_path):
        path = tmp_path / "cat.txt"
        path.write_text("A:0:one\nA:1:two\nB:0:three\n")
        catalog = patterns.load_catalog(path)
        assert [g.name for g in catalog] == ["A", "B"]
        assert catalog.groups[0].labels == ("one", "two")


@pytest.mark.parametrize(
    "read, text",
    [
        (lambda path: store.dumps(store.load(path)),
         "CBRN1\ndim 2\ntheta 100.0\nthreshold 72.0\neps_w 1.0\neps_v 1.0\nlambda_cb 1.0\nepochs 1\n"
         "normalized true\nball A 1\nlabel 0 two words\nw 0 0.6 0.8\nv 0 60.0 80.0\nend\n"),
        (patterns.load_catalog, "color:0:red\ncolor:1:dark blue\nstyle:0:bold\n"),
        (patterns.load_pbm, "P1\n3 2\n1 0 1\n0 1 0\n"),
    ],
    ids=["model", "catalog", "pbm"],
)
def test_every_text_format_reads_crlf_comments_and_blank_lines_alike(tmp_path, read, text):
    """One line rule: CRLF breaks, a trailing `# comment` and a whitespace-only line change nothing."""
    first, *rest = text.splitlines()
    plain, noisy = tmp_path / "plain", tmp_path / "noisy"
    plain.write_bytes(text.encode("utf-8"))
    noisy.write_bytes("\r\n".join([first, " \t ", *(f"{line}  # note" for line in rest)]).encode("utf-8") + b"\r\n")
    assert read(noisy) == read(plain)


def joined(pieces: list[str], *, first=st.just("")):
    """Texts made of `pieces` in any order and number, after an optional `first` piece."""
    return st.tuples(first, st.lists(st.sampled_from(pieces), max_size=40)).map(
        lambda drawn: drawn[0] + "".join(drawn[1])
    )


PBM_PIECES = ["P1", "P4", "0", "1", "2", "3", "-1", "01", "9" * 5000, "x", "#", " ", "\t", "\n", "\r", "\x85",
              "\xff"]
CATALOG_PIECES = ["A", "B", "Cue Ball", ":", "0", "1", "2", "-1", "+1", "1_0", "\u0661", "red", " ", "\t", "\n",
                  "\r", "\u2028", "\ufeff", "#"]


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(joined(PBM_PIECES, first=st.sampled_from(["P1\n", "P1 2 2\n", ""])).map(
            lambda text: text.encode("latin-1")), st.binary(max_size=60)),
    )
    def test_any_pbm_loads_or_raises_cbrn_error(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("pbm") / "p.pbm"
        path.write_bytes(data)
        try:
            pattern = patterns.load_pbm(path)
        except CbrnError:
            return
        assert pattern.bits.ndim == 2 and set(np.unique(pattern.bits)) <= {0, 1}

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(joined(CATALOG_PIECES), st.text(max_size=40)))
    def test_any_catalog_parses_or_raises_cbrn_error(self, text):
        try:
            catalog = patterns.parse_catalog(text)
        except CbrnError:
            return
        for group in catalog:
            assert group.name.isprintable() and " " not in group.name
            assert group.labels and len(set(group.labels)) == len(group.labels)


# byte strings a file's lines are made of: every break `str.splitlines` knows,
# multi-byte characters, a BOM, and bytes that are not UTF-8 (a lone
# continuation byte, a cut sequence, an encoded surrogate)
BYTE_PIECES = [b"a", b" ", b"#", b"\n", b"\r", b"\r\n", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e",
               *(ch.encode("utf-8") for ch in "\x85\u2028\u2029\xe9\u4e2d\U0001f3b2\ufeff"),
               b"\xff", b"\x80", b"\xe4\xb8", b"\xed\xa0\x80"]


def lines_read(path, chunk: int) -> list[str]:
    """The lines `utf8_lines` reads through a `chunk`-byte buffer; 1 reads unbuffered, a byte at a time."""
    with open(path, "rb", buffering=chunk if chunk > 1 else 0) as file:
        return list(patterns.utf8_lines(file, CatalogError))


class TestUtf8Lines:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(BYTE_PIECES), max_size=30).map(b"".join), st.sampled_from([1, 2, 3, 7, 1 << 18]))
    def test_lines_of_the_whole_text_or_its_first_bad_byte(self, tmp_path_factory, data, chunk):
        path = tmp_path_factory.mktemp("lines") / "t.txt"
        path.write_bytes(data)
        try:
            expected = data.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            with pytest.raises(CatalogError, match=rf"^byte {exc.start} is not UTF-8 text$"):
                lines_read(path, chunk)
        else:
            assert lines_read(path, chunk) == expected

    def test_line_longer_than_a_chunk(self, tmp_path):
        text = "x" * 3000 + "\u4e2d" * 1000 + "\r\n\n" + "y" * 5000
        path = tmp_path / "t.txt"
        path.write_bytes(text.encode("utf-8"))
        assert lines_read(path, 1024) == text.splitlines()

    def test_catalog_error_names_the_file_once(self, tmp_path):
        path = tmp_path / "cat.txt"
        path.write_bytes(b"A:0:red\nA:1:caf\xc3\n")
        with pytest.raises(CatalogError, match=rf"^{re.escape(str(path))}: byte 15 is not UTF-8 text$"):
            patterns.load_catalog(path)
