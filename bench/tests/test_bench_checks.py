"""Each correctness check passes on the program's real output and rejects a corrupted one."""

import dataclasses
import re

import numpy as np
import pytest
from conftest import ROOT

import demo
import library
import oracle
import qrread
from cbrn import galois, memory, patterns, qr, store
from oracle import CheckFailed

LABELS = ["red", "extra-large", "a", "z" * 53, "ü" * 26 + "a", "中文✓😀 x-1"]


# -- QR reader -------------------------------------------------------------------


@pytest.mark.parametrize("label", LABELS)
def test_reader_decodes_the_encoder(label):
    matrix = qr.encode_label(label)
    assert qrread.read_bitmap(qr.render(matrix).bits) == (label, matrix.mask)


@pytest.mark.parametrize("mask", range(8))
def test_reader_finds_every_mask(mask):
    assert qrread.read_symbol(qr.encode_label("rhombus", mask=mask).modules) == ("rhombus", mask)


def _flipped(modules, r, c):
    grid = np.array(modules)
    grid[r, c] ^= 1
    return grid


@pytest.mark.parametrize(
    "where, message",
    [((28, 28), "syndromes"), ((10, 15), "syndromes"), ((0, 8), "format"), ((6, 11), "function module")],
)
def test_reader_rejects_one_flipped_module(where, message):
    with pytest.raises(qrread.QrReadError, match=message):
        qrread.read_symbol(_flipped(qr.encode_label("green").modules, *where))


def test_reader_rejects_a_block_mixing_colours():
    bits = np.array(qr.render(qr.encode_label("green")).bits)
    bits[1, 2] ^= 1
    with pytest.raises(qrread.QrReadError, match="mixes"):
        qrread.read_bitmap(bits)


def test_field_arithmetic_matches_a_second_implementation():
    for a in range(0, 256, 7):
        for b in range(256):
            assert qrread.gf_mul(a, b) == galois.gf_mul(a, b)


# -- overlap oracle ------------------------------------------------------------------


@pytest.fixture(scope="module")
def color_ball():
    labels = ["red", "orange", "yellow", "green", "blue", "indigo", "purple"]
    bits = [qr.render(qr.encode_label(label)).bits for label in labels]
    system = memory.MemorySystem(memory.SystemConfig())
    system.add_ball("Color", labels)
    for i, b in enumerate(bits):
        system.store("Color", i, patterns.normalize(patterns.BinaryPattern(b)))
    return system, bits


def test_oracle_matches_cue_response_and_rejects_an_altered_q(color_ball):
    system, bits = color_ball
    overlap = oracle.OverlapOracle(bits)
    for j, b in enumerate(bits):
        response = system.cue_response("Color", oracle.unit_vector(b))
        oracle.check_q(response.q, overlap.q(b), "cue")
        assert overlap.argmax(b) == response.argmax == j
        altered = response.q.copy()
        altered[(j + 1) % len(bits)] += 1e-6
        with pytest.raises(CheckFailed):
            oracle.check_q(altered, overlap.q(b), "cue")


def test_fired_set_check(color_ball):
    system, bits = color_ball
    response = system.cue_response("Color", oracle.unit_vector(bits[1]))
    oracle.check_fired(response.q, response.fired, "orange")
    with pytest.raises(CheckFailed):
        oracle.check_fired(response.q, response.fired[:1], "orange")


# -- CBRN1 model checks --------------------------------------------------------------


@pytest.fixture(scope="module")
def model_text():
    catalog = patterns.default_catalog()
    system = memory.MemorySystem.from_catalog(catalog, memory.SystemConfig())
    bitmaps = {}
    for group in catalog:
        for i, label in enumerate(group.labels):
            bitmaps[label] = qr.render(qr.encode_label(label)).bits
            system.store(group.name, i, patterns.normalize(patterns.BinaryPattern(bitmaps[label])))
    for a, k, b, l in demo.PAIRS:
        system.learn_cross_weights(a, k, b, l)
    return store.dumps(system), demo.bundled_catalog(ROOT), bitmaps


def _replace_value(text, prefix, new):
    """Change the first value of the row starting with `prefix`."""
    start = text.index("\n" + prefix) + 1
    line_end = text.index("\n", start)
    parts = text[start:line_end].split(" ")
    parts[2] = new
    return text[:start] + " ".join(parts) + text[line_end:]


def test_model_checks_pass_on_a_trained_model(model_text):
    text, catalog, bitmaps = model_text
    model = oracle.parse_model(text)
    oracle.check_model(model, catalog, bitmaps)
    oracle.check_links(model, demo.PAIRS)


@pytest.mark.parametrize("prefix, value", [("w 3 ", "0.5"), ("v 6 ", "7.0"), ("w 0 ", "-0.0")])
def test_model_check_rejects_one_altered_row(model_text, prefix, value):
    text, catalog, bitmaps = model_text
    with pytest.raises(CheckFailed):
        oracle.check_model(oracle.parse_model(_replace_value(text, prefix, value)), catalog, bitmaps)


def test_model_parser_rejects_a_short_row(model_text):
    text = model_text[0]
    start = text.index("\nw 2 ") + 1
    end = text.index("\n", start)
    with pytest.raises(CheckFailed, match="values"):
        oracle.parse_model(text[:start] + text[start:end].rsplit(" ", 1)[0] + text[end:])


@pytest.mark.parametrize("edit", [("Style 3 100.0\n", "Style 3 99.0\n"), ("link Color 0 Style 3 100.0\n", "")])
def test_link_check_rejects_an_altered_link(model_text, edit):
    text = model_text[0].replace(*edit, 1)
    with pytest.raises(CheckFailed):
        oracle.check_links(oracle.parse_model(text), demo.PAIRS)


def test_link_grid_check():
    sizes = {"Color": 7, "Style": 7, "Volume": 7}
    linked = {(a, k, b, l) for a, k, b, l in demo.PAIRS} | {(b, l, a, k) for a, k, b, l in demo.PAIRS}
    rows = [
        [a, str(k), b, str(l), "100.0" if (a, k, b, l) in linked else "0.0"]
        for a in sizes for b in sizes if a != b for k in range(7) for l in range(7)
    ]
    oracle.check_link_grid(rows, sizes, demo.PAIRS)
    rows[5][4] = "0.01"
    with pytest.raises(CheckFailed):
        oracle.check_link_grid(rows, sizes, demo.PAIRS)


# -- demo-session outputs ------------------------------------------------------------


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    work = tmp_path_factory.mktemp("demo")
    sess = demo.Session(work, demo.bundled_catalog(ROOT), seed=3)
    tally = demo.Tally(demo.hostspeed.PYTHON)
    stdout, trained = demo.run_session(sess, demo._in_process_executor(), tally,
                                       {c: [] for c in demo.COMMANDS})
    assert tally.failed == 0
    return sess, stdout, trained


def test_session_checks_pass(session):
    assert demo.check_session(*session) == 11  # of the 21 bundled labels, 11 fire alone
    demo.check_round_trip(session[0].model.read_text(encoding="utf-8"))


def test_session_check_rejects_a_flipped_recalled_pixel(session):
    sess, stdout, trained = session
    path = next(p for p in sess.work.iterdir() if p.name.startswith("assoc-"))
    original = path.read_text()
    pixels = original.split("\n")
    pixels[2] = ("0" if pixels[2][0] == "1" else "1") + pixels[2][1:]
    path.write_text("\n".join(pixels))
    try:
        with pytest.raises(CheckFailed, match="recalled"):
            demo.check_session(sess, stdout, trained)
    finally:
        path.write_text(original)


def test_session_check_rejects_an_altered_q(session):
    sess, stdout, trained = session
    i = next(i for i, argv in enumerate(sess.argvs) if argv[0] == "recall")
    altered = list(stdout)
    altered[i] = re.sub(r",(\d+\.\d+),", lambda m: f",{float(m.group(1)) + 1e-6!r},", stdout[i], count=1)
    assert altered[i] != stdout[i]
    with pytest.raises(CheckFailed, match="oracle"):
        demo.check_session(sess, altered, trained)


def test_session_check_rejects_an_altered_model_row(session):
    sess, stdout, trained = session
    with pytest.raises(CheckFailed):
        demo.check_session(sess, stdout, _replace_value(trained, "w 1 ", "0.25"))


# -- library workloads -------------------------------------------------------------------


def test_query_stream_rejects_a_flipped_recalled_pixel(monkeypatch):
    original = patterns.to_pattern

    def corrupt(vector, width, height):
        bits = np.array(original(vector, width, height).bits)
        bits[0, 0] ^= 1
        return patterns.BinaryPattern(bits)

    monkeypatch.setattr(patterns, "to_pattern", corrupt)
    with pytest.raises(CheckFailed, match="recalled") as failure:
        library.run_query(seed=1, seconds=0.1, trace=None, n=16)
    assert (failure.value.attempted, failure.value.failed) == (1, 1)  # the first query fails its check


def test_catalog_train_rejects_an_altered_q(monkeypatch):
    original = memory.MemorySystem.cue_response

    def corrupt(self, ball, probe, threshold=None):
        response = original(self, ball, probe, threshold)
        return dataclasses.replace(response, q=response.q + np.eye(len(response.q))[0] * 1e-6)

    monkeypatch.setattr(memory.MemorySystem, "cue_response", corrupt)
    with pytest.raises(CheckFailed, match="oracle"):
        library.run_catalog(seed=1, seconds=0.1, trace=None, per_ball=8)


def test_catalog_train_rejects_a_wrong_symbol(monkeypatch):
    original = qr.render

    def corrupt(matrix, scale=qr.DEFAULT_SCALE):
        bits = np.array(original(matrix, scale).bits)
        bits[40:44, 40:44] ^= 1  # one whole data module
        return patterns.BinaryPattern(bits)

    monkeypatch.setattr(qr, "render", corrupt)
    with pytest.raises(CheckFailed, match="does not decode"):
        library.run_catalog(seed=1, seconds=0.1, trace=None, per_ball=8)


def test_catalog_labels_span_1_to_53_bytes_with_multibyte_characters():
    text = library.catalog_text(seed=7, per_ball=library.CATALOG_LABELS)
    labels = [line.split(":", 2)[2] for line in text.splitlines()]
    sizes = [len(label.encode("utf-8")) for label in labels]
    assert len(labels) == 3 * library.CATALOG_LABELS
    assert min(sizes) >= 1 and max(sizes) <= 53 and 1 in sizes and 53 in sizes
    assert any(len(label) < len(label.encode("utf-8")) for label in labels)
    assert patterns.parse_catalog(text).groups[0].labels == tuple(labels[: library.CATALOG_LABELS])
    assert text == library.catalog_text(seed=7, per_ball=library.CATALOG_LABELS)
