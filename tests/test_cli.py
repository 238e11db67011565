import contextlib
import csv
import gc
import hashlib
import importlib
import io
import itertools
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import cbrn
from cbrn import cli, errors, patterns, qr, store
from cbrn.cli import build_parser, main
from cbrn.memory import THETA, THRESHOLD, MemorySystem, SystemConfig
from conftest import held_arrays, pair_classic, train_full_system


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    """Fully trained and paired demo model on disk."""
    path = tmp_path_factory.mktemp("model") / "demo.cbrn"
    store.save(pair_classic(train_full_system()), path)
    return path


@pytest.fixture(scope="module")
def red_pbm(tmp_path_factory):
    path = tmp_path_factory.mktemp("probe") / "red.pbm"
    patterns.save_pbm(qr.render(qr.encode_label("red")), path)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def toy_model(tmp_path, dim=4):
    """Small on-disk model: unit-basis patterns in two balls plus one pair."""
    system = MemorySystem(SystemConfig(dim=dim))
    system.add_ball("A", [f"a{i}" for i in range(dim)])
    system.add_ball("B", [f"b{i}" for i in range(dim)])
    eye = np.eye(dim)
    for i in range(dim):
        system.store("A", i, eye[i])
        system.store("B", i, eye[(i + 1) % dim])
    system.learn_cross_weights("A", 0, "B", 3)
    path = tmp_path / "toy.cbrn"
    store.save(system, path)
    return path


def scaled_model(path, level):
    """The README session's model, every cue row and link rewritten at `level` times its trained value, saved to `path`.

    A cue row is then `level` times its pattern and a link `level`, bit for bit
    what one step from zero toward a learning value of `level` leaves.
    """
    system = pair_classic(train_full_system())
    for ball in system.balls.values():
        for i in range(ball.n):
            ball.set_cue_row(i, level * ball.recall_row(i))
    for u in system.links.values():
        u[u != 0] = level
    store.save(system, path)
    return path


def with_header_line(path, key, value):
    """Rewrite the model at `path` with its `key` header line set to `value`; returns `path`."""
    lines = path.read_text().splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if line.split()[0] == key)
    lines[index] = f"{key} {value}\n"
    path.write_text("".join(lines))
    return path


def header_refusal(key, value):
    """The load error of a model whose `key` header line, theta or threshold, holds `value`."""
    line, written = {"theta": (3, THETA), "threshold": (4, THRESHOLD)}[key]
    return f"line {line}: {key} {value}: this program writes only '{key} {written!r}'; retrain the model"


def write_pbm(path, bits):
    patterns.save_pbm(patterns.BinaryPattern(bits), path)
    return path


def assert_recall_fails_in_one_line(capsys, tmp_path, model):
    """`recall` on a broken dim-4 model exits 3 with a one-line error; returns stderr."""
    probe = write_pbm(tmp_path / "probe.pbm", np.array([[1, 0], [0, 0]], dtype=np.uint8))
    code, _, stderr = run(capsys, "recall", "--model", model, "--ball", "A", "--pattern", probe)
    assert code == 3
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert "Traceback" not in stderr
    return stderr


class TestEncode:
    def test_writes_116_square(self, capsys, tmp_path):
        out = tmp_path / "red.pbm"
        code, stdout, _ = run(capsys, "encode", "--label", "red", "--out", out)
        assert code == 0
        pattern = patterns.load_pbm(out)
        assert (pattern.width, pattern.height) == (116, 116)
        assert pattern == qr.render(qr.encode_label("red"))
        assert "116x116" in stdout

    def test_empty_label_is_usage_error(self, capsys, tmp_path):
        code, _, stderr = run(capsys, "encode", "--label", "", "--out", tmp_path / "x.pbm")
        assert code == 2
        assert "error" in stderr

    def test_overlong_label_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "encode", "--label", "x" * 60, "--out", tmp_path / "x.pbm")
        assert code == 2

    def test_label_that_is_not_utf8_is_usage_error(self, capsys, tmp_path):
        # Python reads an argv byte that is not UTF-8, here 0xff, as the lone surrogate U+DCFF
        out = tmp_path / "x.pbm"
        assert run(capsys, "encode", "--label", "a\udcff", "--out", out) == (
            2, "", "error: label 'a\\udcff' is not UTF-8 text: it holds a lone surrogate\n")
        assert not out.exists()

    def test_label_byte_that_is_not_utf8_is_usage_error_in_a_process(self, tmp_path):
        out = tmp_path / "x.pbm"
        done = subprocess.run([sys.executable, "-m", "cbrn.cli", "encode", "--label", b"\xff", "--out", out],
                              capture_output=True, text=True, env=package_env(), timeout=120)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: label ") and done.stderr.count("\n") == 1
        assert not out.exists()

    def test_bad_scale(self, capsys, tmp_path):
        # every model has the dim of the default scale, so encode takes no scale
        code, _, stderr = run(capsys, "encode", "--label", "red", "--out", tmp_path / "x.pbm", "--scale", "4")
        assert code == 2 and "unrecognized arguments: --scale 4" in stderr
        assert not (tmp_path / "x.pbm").exists()

    @pytest.mark.parametrize("message, stderr", [
        ("Unable to allocate 3.13 GiB for an array", "error: Unable to allocate 3.13 GiB for an array\n"),
        ("", "error: out of memory\n"),
    ], ids=["numpy", "bare"])
    def test_allocation_failure_is_one_line_runtime_error(self, capsys, tmp_path, monkeypatch, message, stderr):
        def pixels(*_):
            raise MemoryError(message)

        monkeypatch.setattr(qr, "pixels", pixels)
        out = tmp_path / "x.pbm"
        assert run(capsys, "encode", "--label", "red", "--out", out) == (3, "", stderr)
        assert not out.exists()


class TestTrain:
    def test_trains_and_prints_one_row_per_catalog_entry(self, capsys, tmp_path):
        out = tmp_path / "m.cbrn"
        code, stdout, _ = run(capsys, "train", "--out", out)
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0].split() == ["ball", "neuron", "label"]
        assert [tuple(line.split(maxsplit=2)) for line in lines[1:-1]] == [
            (group.name, str(index), label) for group in patterns.default_catalog()
            for index, label in enumerate(group.labels)]
        assert lines[-1] == f"stored 21 patterns in 3 balls -> {out}"
        system = store.load(out)
        assert sum(b.n for b in system.balls.values()) == 21

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.cbrn", tmp_path / "b.cbrn"
        assert run(capsys, "train", "--out", a)[0] == 0
        assert run(capsys, "train", "--out", b)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_empty_catalog_fails(self, capsys, tmp_path):
        cat = tmp_path / "cat.txt"
        cat.write_text("# nothing\n")
        code, _, stderr = run(capsys, "train", "--out", tmp_path / "m.cbrn", "--catalog", cat)
        assert (code, stderr) == (3, f"error: {cat}: no patterns: the catalog is empty\n")

    def test_empty_catalog_is_a_catalog_error(self, tmp_path):
        cat = tmp_path / "cat.txt"
        cat.write_text("# nothing\n")
        args = build_parser().parse_args(["train", "--out", str(tmp_path / "m.cbrn"), "--catalog", str(cat)])
        with pytest.raises(errors.CatalogError, match=r": no patterns: the catalog is empty$"):
            cli.cmd_train(args)

    def test_too_long_label_is_named_and_writes_no_model(self, capsys, tmp_path):
        # a catalog fault names the file and line and, like an empty label, is a malformed file (exit 3)
        cat = tmp_path / "cat.txt"
        out = tmp_path / "m.cbrn"
        for text, fault in (("A:0:one\nB:0:two\nB:1:" + "x" * 60 + "\n",
                             "line 3: label is 60 bytes encoded; the symbol holds 53"),
                            ("A:0:" + "é" * 27 + "\n", "line 1: label is 54 bytes encoded; the symbol holds 53"),
                            ("A:0:one\nB:0:\n", "line 2: empty label")):
            cat.write_text(text, encoding="utf-8")
            code, stdout, stderr = run(capsys, "train", "--out", out, "--catalog", cat)
            assert (code, stdout, stderr) == (3, "", f"error: {cat}: {fault}\n")
            assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config file", "environment"])
    def test_provider_and_seed_are_no_options(self, capsys, tmp_path, monkeypatch, source):
        # every model stores QR symbols learnt in one step at rate 1 toward the model's constant theta, and
        # a query sets its own threshold, and every option is a flag: --provider,
        # --seed, --eps-w, --eps-v, --lambda-cb, --theta, --threshold and --config are usage errors that
        # write no model, and no CBRN_* name, not even one of a flag that exists, changes the model
        out = tmp_path / "m.cbrn"
        gone = (("provider", "random"), ("seed", "0"), ("eps_w", "0.5"), ("eps_v", "0.5"), ("lambda_cb", "0.5"),
                ("theta", "80"), ("threshold", "50"))
        if source == "environment":
            plain = tmp_path / "plain.cbrn"
            assert run(capsys, "train", "--out", plain)[0] == 0
            (tmp_path / "cat.txt").write_text("A:0:one\n")
            for key, value in (*gone, ("catalog", tmp_path / "cat.txt")):
                monkeypatch.setenv("CBRN_" + key.upper(), str(value))
            assert run(capsys, "train", "--out", out)[0] == 0
            assert out.read_bytes() == plain.read_bytes()
            return
        (tmp_path / "opts.conf").write_text("theta = 90\n")
        flags = [("--" + key.replace("_", "-"), value) for key, value in gone]
        for extra in flags if source == "flag" else [("--config", tmp_path / "opts.conf")]:
            code, stdout, stderr = run(capsys, "train", "--out", out, *extra)
            assert (code, stdout) == (2, "") and f"unrecognized arguments: {' '.join(map(str, extra))}" in stderr
            assert not out.exists()

    def test_unnormalized_is_no_option(self, capsys, tmp_path, monkeypatch):
        # every probe is a unit vector: --unnormalized and --config are usage errors, CBRN_NORMALIZED is ignored
        (tmp_path / "opts.conf").write_text("normalized = false\n")
        out = tmp_path / "m.cbrn"
        for extra in (("--unnormalized",), ("--config", tmp_path / "opts.conf")):
            code, stdout, _ = run(capsys, "train", "--out", out, *extra)
            assert (code, stdout) == (2, "")
            assert not out.exists()
        monkeypatch.setenv("CBRN_NORMALIZED", "false")
        assert run(capsys, "train", "--out", out)[0] == 0
        assert out.read_text(encoding="utf-8").splitlines()[8] == "normalized true"

    def test_non_utf8_catalog_is_runtime_error(self, capsys, tmp_path):
        cat = tmp_path / "cat.txt"
        cat.write_bytes(b"A:0:caf\xff\n")
        code, _, stderr = run(capsys, "train", "--out", tmp_path / "m.cbrn", "--catalog", cat)
        assert code == 3
        assert stderr.startswith("error: ") and stderr.count("\n") == 1 and "not UTF-8" in stderr
        assert not (tmp_path / "m.cbrn").exists()

    @pytest.mark.parametrize("target, strerror", [("no/dir/m.cbrn", "No such file or directory"),
                                                  ("outdir", "Is a directory")])
    def test_failed_save_names_the_target_and_leaves_no_temporary_file(self, capsys, tmp_path, target, strerror):
        (tmp_path / "outdir").mkdir()
        out = tmp_path / target
        code, stdout, stderr = run(capsys, "train", "--out", out)
        assert (code, stdout) == (3, "")
        assert stderr.startswith("error: [Errno ") and stderr.endswith(f"] {strerror}: {str(out)!r}\n")
        assert [path.name for path in tmp_path.rglob("*")] == ["outdir"]

    def test_huge_theta_trains_a_model_that_recalls(self, capsys, tmp_path, red_pbm):
        # cue rows at 1e308 times their patterns, where one step toward a learning value of 1e308 would
        # put them, are finite, load and recall
        out = scaled_model(tmp_path / "m.cbrn", 1e308)
        assert all(np.isfinite(ball.cue_rows()).all() for ball in store.load(out).balls.values())
        code, stdout, stderr = run(capsys, "recall", "--model", out, "--ball", "color", "--pattern", red_pbm)
        assert (code, stderr) == (0, "") and "argmax: 0" in stdout

    def test_huge_theta_tables_keep_their_columns(self, capsys, tmp_path, red_pbm):
        # q and link values past 1e9 print in e notation, not as 300-digit numbers, and pair's error in g notation
        out = scaled_model(tmp_path / "m.cbrn", 1e308)
        code, stdout, _ = run(capsys, "pair", "--model", out, "--pair", "color:0=style:3", "--out", tmp_path / "p.cbrn")
        assert code == 0 and f"Color:0 -> Style:3{'inf':>19} {THETA:>10.4f}\n" in stdout
        assert max(map(len, stdout.splitlines()[:-1])) <= 80  # the table, above the summary that names the file
        for argv in (("recall", "--ball", "color", "--pattern", red_pbm),
                     ("associate", "--from", "color", "--to", "style", "--pattern", red_pbm),
                     ("report", "--figure", "3"), ("report", "--figure", "4")):
            code, stdout, _ = run(capsys, *argv, "--model", out)
            assert code == 0 and "e+30" in stdout
            assert max(map(len, stdout.splitlines())) <= 80, argv

    @pytest.mark.parametrize("argv, message", [
        (("--theta", "50"), "theta = 50 > threshold = 72 > 0"),
        (("--theta", "72.00000001"), "theta = 72 > threshold = 72 > 0"),  # above by less than the 1e-9 margin
        (("--threshold", "0"), "theta = 100 > threshold = 0 > 0"),
        (("--threshold", "100"), "theta = 100 > threshold = 100 > 0"),
    ])
    def test_setting_under_which_nothing_trained_fires_writes_no_model(self, capsys, tmp_path, argv, message):
        # train takes no such setting, and a model whose header carries one is refused and left as it was: theta
        # and D are the model's constants, so the line is refused as text, before any `message` check could run
        out = tmp_path / "m.cbrn"
        code, stdout, stderr = run(capsys, "train", "--out", out, *argv)
        assert (code, stdout) == (2, "") and f"unrecognized arguments: {' '.join(argv)}" in stderr
        assert not out.exists()
        model = with_header_line(toy_model(tmp_path), argv[0][2:], argv[1])
        before = model.read_bytes()
        code, stdout, stderr = run(capsys, "pair", "--model", model, "--pair", "A:1=B:2")
        assert (code, stdout) == (3, "") and message not in stderr
        assert stderr == f"error: {model}: {header_refusal(argv[0][2:], argv[1])}\n"
        assert model.read_bytes() == before

    @pytest.mark.parametrize("source", ["flag", "config file", "environment"])
    def test_epochs_is_no_option(self, capsys, tmp_path, monkeypatch, source):
        # learning is one step: --epochs and --config are usage errors, CBRN_EPOCHS is ignored like any CBRN_* name
        (tmp_path / "opts.conf").write_text("epochs = 1\n")
        extra = {"flag": ("--epochs", "2"), "config file": ("--config", tmp_path / "opts.conf"), "environment": ()}
        monkeypatch.setenv("CBRN_EPOCHS", "3")
        out = tmp_path / "m.cbrn"
        code, _, stderr = run(capsys, "train", "--out", out, *extra[source])
        assert code == (0 if source == "environment" else 2)
        assert out.exists() == (source == "environment")


class TestPair:
    def test_pairs_links_and_reports(self, capsys, tmp_path):
        model = toy_model(tmp_path)
        code, stdout, _ = run(capsys, "pair", "--model", model, "--pair", "A:1=B:2")
        assert code == 0
        assert "A:1 -> B:2" in stdout and "B:2 -> A:1" in stdout
        system = store.load(model)
        assert system.links["A", "B"][1, 2] == 100.0
        assert system.links["B", "A"][2, 1] == 100.0

    def test_repair_reports_zero_delta(self, capsys, tmp_path):
        model = toy_model(tmp_path)
        run(capsys, "pair", "--model", model, "--pair", "A:1=B:2")
        code, stdout, _ = run(capsys, "pair", "--model", model, "--pair", "A:1=B:2")
        assert code == 0
        direction_lines = [l for l in stdout.splitlines() if " -> " in l and ":" in l]
        assert len(direction_lines) == 2
        for line in direction_lines:
            assert float(line.split()[-2]) == 0.0  # eta_before: the link already reads theta

    def test_intra_ball_pair_is_usage_error(self, capsys, tmp_path):
        model = toy_model(tmp_path)
        code, _, stderr = run(capsys, "pair", "--model", model, "--pair", "A:0=A:1")
        assert code == 2
        assert "ball" in stderr

    def test_bad_syntax_is_usage_error(self, capsys, tmp_path):
        model = toy_model(tmp_path)
        assert run(capsys, "pair", "--model", model, "--pair", "A:0-B:1")[0] == 2
        assert run(capsys, "pair", "--model", model, "--pair", "A:x=B:1")[0] == 2
        # one --pair value is one pair, so a comma inside it is an error
        assert run(capsys, "pair", "--model", model, "--pair", "A:1=B:2,A:2=B:0")[0] == 2

    def test_unknown_index_is_usage_error(self, capsys, tmp_path):
        model = toy_model(tmp_path)
        assert run(capsys, "pair", "--model", model, "--pair", "A:9=B:1")[0] == 2

    def test_in_place_save_replaces_the_whole_file(self, capsys, tmp_path):
        model = toy_model(tmp_path)
        code, stdout, _ = run(capsys, "pair", "--model", model, "--pair", "A:2=B:1")
        assert code == 0 and stdout.endswith(f"4 directed links -> {model}\n")
        system = store.load(model)
        assert model.read_text() == store.dumps(system)
        assert system.links["A", "B"][2, 1] != 0.0 and system.links["A", "B"][0, 3] != 0.0
        assert [f.name for f in tmp_path.iterdir()] == [model.name]

    def test_out_leaves_original_untouched(self, capsys, tmp_path):
        model = toy_model(tmp_path)
        before = model.read_bytes()
        out = tmp_path / "paired.cbrn"
        run(capsys, "pair", "--model", model, "--pair", "A:2=B:1", "--out", out)
        assert model.read_bytes() == before
        assert store.load(out).links["A", "B"][2, 1] != 0.0

    def test_a_second_link_from_one_source_into_one_ball_is_noted(self, capsys, tmp_path):
        model = tmp_path / "demo.cbrn"
        assert run(capsys, "train", "--out", model)[0] == 0
        readme = ("color:0=style:3", "style:3=volume:6", "volume:6=color:1")
        for pairs in (readme, ("color:0=style:3",)):  # the README session, then a repeated pair
            code, stdout, _ = run(capsys, "pair", "--model", model, *(f"--pair={p}" for p in pairs))
            assert code == 0 and "note:" not in stdout
        code, stdout, _ = run(capsys, "pair", "--model", model, "--pair", "color:0=style:4")
        assert code == 0 and stdout.splitlines()[-2:] == [
            "note: Color:0 links to Style:3, Style:4; associate takes the largest weight, the lowest index on a tie",
            f"8 directed links -> {model}",
        ]

    def test_a_link_loaded_far_below_theta_lands_on_theta(self, capsys, tmp_path):
        # -1e20 + (100 + 1e20) would round to 0.0, which is no link; at -1.7e308 the error's
        # square passes the float range, so eta_before reads inf, and the link still lands on theta
        for weight, eta_before in ((-1e20, "5e+39"), (-1.7e308, "inf")):
            system = MemorySystem(SystemConfig(dim=4))
            system.add_ball("A", ["a0"])
            system.add_ball("B", ["b0"])
            system._link_array("A", "B")[0, 0] = weight
            model = tmp_path / "far.cbrn"
            store.save(system, model)
            code, stdout, stderr = run(capsys, "pair", "--model", model, "--pair", "A:0=B:0")
            assert (code, stderr) == (0, "")
            assert stdout.splitlines()[1:] == [
                f"{'A:0 -> B:0':<24} {eta_before:>12} {'100.0000':>10}",
                f"{'B:0 -> A:0':<24} {'5000':>12} {'100.0000':>10}",
                f"2 directed links -> {model}",
            ]
            assert store.load(model).trained_links() == [("A", 0, "B", 0, THETA), ("B", 0, "A", 0, THETA)]

    def test_spaces_around_a_ball_name_are_stripped(self, capsys, tmp_path):
        # as int() strips the index, so the ball name is stripped: "A:1 = B:2" pairs A:1 with B:2
        model = toy_model(tmp_path)
        code, stdout, _ = run(capsys, "pair", "--model", model, "--pair", "A:1 = B:2")
        assert code == 0 and "A:1 -> B:2" in stdout
        assert store.load(model).links["A", "B"][1, 2] == 100.0

    def test_no_pairs_anywhere_is_usage_error(self, capsys, tmp_path):
        model = toy_model(tmp_path)
        assert run(capsys, "pair", "--model", model)[0] == 2


class TestRecall:
    def test_recall_table_and_argmax(self, capsys, model_path, red_pbm):
        code, stdout, _ = run(capsys, "recall", "--model", model_path, "--ball", "color",
                              "--pattern", red_pbm)
        assert code == 0
        line = next(l for l in stdout.splitlines() if " red " in l)
        assert abs(float(line.split()[2]) - 100.0) < 1e-6
        assert "argmax" in line
        assert "fired: [0]" in stdout

    def test_csv_format(self, capsys, model_path, red_pbm):
        code, stdout, _ = run(capsys, "recall", "--model", model_path, "--ball", "Color",
                              "--pattern", red_pbm, "--format", "csv")
        assert code == 0
        rows = stdout.strip().splitlines()
        assert rows[0] == "ball,neuron,label,q,fired"
        assert len(rows) == 8
        first = rows[1].split(",")
        assert first[1] == "0" and first[2] == "red" and first[4] == "1"
        assert abs(float(first[3]) - 100.0) < 1e-9

    def test_threshold_monotonicity(self, capsys, model_path, red_pbm):
        def fired(thr):
            _, stdout, _ = run(capsys, "recall", "--model", model_path, "--ball", "color",
                               "--pattern", red_pbm, "--format", "csv", "--threshold", thr)
            return {row.split(",")[1] for row in stdout.strip().splitlines()[1:]
                    if row.split(",")[4] == "1"}

        assert fired("10") >= fired("72")

    @pytest.mark.parametrize("label, own_row", [
        ("yellow", ["Color", "2", "yellow", "100.00000000000001", "1"]),
        ("orange", ["Color", "1", "orange", "100.0", "1"]),
        ("red", ["Color", "0", "red", "99.99999999999999", "0"]),
    ], ids=["above theta", "at theta", "below theta"])
    def test_threshold_at_theta_fires_a_label_whose_own_q_rounds_above_it(self, capsys, model_path, tmp_path,
                                                                           label, own_row):
        # a stored pattern answers itself at theta to within rounding: 7 bundled labels land above, 5 on it, 9 below
        probe = tmp_path / f"{label}.pbm"
        patterns.save_pbm(qr.render(qr.encode_label(label)), probe)
        code, stdout, stderr = run(capsys, "recall", "--model", model_path, "--ball", "color", "--pattern", probe,
                                   "--format", "csv", "--threshold", "100")
        rows = list(csv.reader(io.StringIO(stdout)))[1:]
        assert (code, stderr) == (0, "") and own_row in rows
        assert [row for row in rows if row[4] == "1"] == [own_row] * (own_row[4] == "1")

    def test_writes_recalled_pattern(self, capsys, model_path, red_pbm, tmp_path):
        out = tmp_path / "recalled.pbm"
        code, _, _ = run(capsys, "recall", "--model", model_path, "--ball", "color",
                         "--pattern", red_pbm, "--out", out)
        assert code == 0
        assert patterns.load_pbm(out) == qr.render(qr.encode_label("red"))

    def test_unrecognized_probe_with_out_fails(self, capsys, model_path, tmp_path):
        probe = write_pbm(tmp_path / "dot.pbm", np.eye(116, dtype=np.uint8))
        code, _, stderr = run(capsys, "recall", "--model", model_path, "--ball", "color",
                              "--pattern", probe, "--out", tmp_path / "r.pbm")
        assert code == 3
        assert "fired" in stderr or "threshold" in stderr

    def test_all_dark_probe_ties_break_low(self, capsys, tmp_path):
        model = toy_model(tmp_path)
        probe = write_pbm(tmp_path / "dark.pbm", np.ones((2, 2), dtype=np.uint8))
        code, stdout, _ = run(capsys, "recall", "--model", model, "--ball", "A",
                              "--pattern", probe, "--format", "csv")
        assert code == 0
        rows = [r.split(",") for r in stdout.strip().splitlines()[1:]]
        values = {row[3] for row in rows}
        assert len(values) == 1  # all q equal for unit-basis patterns
        assert "argmax" not in stdout  # csv stays machine readable
        _, table, _ = run(capsys, "recall", "--model", model, "--ball", "A",
                          "--pattern", probe)
        argmax_line = next(l for l in table.splitlines()
                           if "argmax" in l and l.strip() and l.strip()[0].isdigit())
        assert argmax_line.split()[0] == "0"

    def test_dimension_mismatch_is_runtime_error(self, capsys, model_path, tmp_path):
        probe = write_pbm(tmp_path / "small.pbm", np.ones((2, 2), dtype=np.uint8))
        code, _, _ = run(capsys, "recall", "--model", model_path, "--ball", "color",
                         "--pattern", probe)
        assert code == 3

    @pytest.mark.parametrize("command", [
        ("recall", "--ball", "color"),
        ("associate", "--from", "color", "--to", "style"),
    ], ids=["recall", "associate"])
    def test_probe_of_the_right_size_but_wrong_shape_is_refused(self, capsys, model_path, tmp_path, command):
        # red's own pixels, 232 wide and 58 high: the model's pixel count, not its 116x116 shape
        probe = write_pbm(tmp_path / "wide.pbm", qr.render(qr.encode_label("red")).bits.reshape(58, 232))
        out = tmp_path / "out.pbm"
        code, stdout, stderr = run(capsys, command[0], "--model", model_path, *command[1:], "--pattern", probe,
                                   "--out", out)
        assert (code, stdout) == (3, "")
        assert "232x58" in stderr and "116x116" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ("recall", "--ball", "A"),
        ("associate", "--from", "A", "--to", "B"),
    ], ids=["recall", "associate"])
    def test_model_of_non_square_dimension_is_runtime_error(self, capsys, tmp_path, command):
        # a library can save any dim; bitmaps need a square one, as a wrong-shape probe does
        model = toy_model(tmp_path, dim=5)
        probe = write_pbm(tmp_path / "probe.pbm", np.ones((2, 2), dtype=np.uint8))
        out = tmp_path / "out.pbm"
        code, stdout, stderr = run(capsys, command[0], "--model", model, *command[1:], "--pattern", probe,
                                   "--out", out)
        assert (code, stdout) == (3, "")
        assert stderr == "error: model dimension 5 is not square; cannot read or write bitmaps\n"
        assert not out.exists()

    @pytest.mark.parametrize("edit", [
        ("v 0 ", lambda line: " ".join(["v", "0", "nan", "inf", *line.split()[4:]])),
        ("dim ", lambda line: "dim 1000000000000000"),  # needs petabytes if allocated
        ("link ", lambda line: f"{line}\n{line}"),  # the same link twice
        ("link ", lambda line: line.rsplit(" ", 1)[0] + " 0.0"),  # a zero weight is no link
    ])
    def test_corrupt_model_is_one_line_runtime_error(self, capsys, tmp_path, edit):
        prefix, change = edit
        path = toy_model(tmp_path)
        lines = path.read_text().splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith(prefix))
        lines[idx] = change(lines[idx])
        path.write_text("\n".join(lines) + "\n")
        assert_recall_fails_in_one_line(capsys, tmp_path, path)

    @pytest.mark.parametrize("command", [("recall", "--ball", "A"), ("pair", "--pair", "A:0=B:1")], ids=["recall", "pair"])
    def test_model_grammar_error_names_the_file(self, capsys, tmp_path, command):
        path = toy_model(tmp_path)
        path.write_text(path.read_text().replace("dim 4\n", "dim x\n"))
        probe = write_pbm(tmp_path / "probe.pbm", np.array([[1, 0], [0, 0]], dtype=np.uint8))
        code, stdout, stderr = run(capsys, command[0], "--model", path, *command[1:],
                                   *(("--pattern", probe) if command[0] == "recall" else ()))
        assert (code, stdout, stderr) == (3, "", f"error: {path}: line 2: dim 'x' is not an integer\n")

    @pytest.mark.parametrize("command", [
        ("recall", "--ball", "A"),
        ("associate", "--from", "A", "--to", "B"),
    ], ids=["recall", "associate"])
    def test_all_light_probe_error_names_the_file(self, capsys, tmp_path, command):
        probe = write_pbm(tmp_path / "e.pbm", np.zeros((2, 2), dtype=np.uint8))
        code, stdout, stderr = run(capsys, command[0], "--model", toy_model(tmp_path), *command[1:], "--pattern", probe)
        assert (code, stdout, stderr) == (3, "", f"error: {probe}: cannot normalize an all-light pattern\n")

    def test_swapped_link_records_are_one_line_runtime_error(self, capsys, tmp_path):
        path = toy_model(tmp_path)
        lines = path.read_text().splitlines()
        first = next(i for i, l in enumerate(lines) if l.startswith("link "))
        lines[first], lines[first + 1] = lines[first + 1], lines[first]
        path.write_text("\n".join(lines) + "\n")
        stderr = assert_recall_fails_in_one_line(capsys, tmp_path, path)
        assert "out of order" in stderr

    def test_non_utf8_model_is_one_line_runtime_error(self, capsys, tmp_path):
        path = toy_model(tmp_path)
        path.write_bytes(path.read_bytes().replace(b"label 0 a0", b"label 0 a\xff"))
        stderr = assert_recall_fails_in_one_line(capsys, tmp_path, path)
        assert "not UTF-8" in stderr

    def test_unknown_ball_is_usage_error(self, capsys, model_path, red_pbm):
        code, _, _ = run(capsys, "recall", "--model", model_path, "--ball", "flavor",
                         "--pattern", red_pbm)
        assert code == 2

    @pytest.mark.parametrize("lines", [["color:0:red", "Color:0:blue"], ["Color:0:blue", "color:0:red"]])
    def test_ambiguous_ball_name_is_usage_error(self, capsys, red_pbm, tmp_path, lines):
        cat = tmp_path / "cat.txt"
        cat.write_text("\n".join(lines) + "\n")
        model = tmp_path / "m.cbrn"
        assert run(capsys, "train", "--out", model, "--catalog", cat)[0] == 0
        code, stdout, stderr = run(capsys, "recall", "--model", model, "--ball", "COLOR", "--pattern", red_pbm)
        assert (code, stdout) == (2, "")
        assert stderr == "error: ball name 'COLOR' is ambiguous; it matches ['Color', 'color']\n"
        for ball in ("color", "Color"):  # an exact name still resolves
            code, stdout, _ = run(capsys, "recall", "--model", model, "--ball", ball, "--pattern", red_pbm)
            assert code == 0 and stdout.startswith(f"ball {ball},")

    def test_missing_model_is_runtime_error(self, capsys, red_pbm, tmp_path):
        code, _, _ = run(capsys, "recall", "--model", tmp_path / "nope.cbrn",
                         "--ball", "color", "--pattern", red_pbm)
        assert code == 3


class TestAssociate:
    def test_red_recalls_rectangle(self, capsys, model_path, red_pbm, tmp_path):
        out = tmp_path / "assoc.pbm"
        code, stdout, _ = run(capsys, "associate", "--model", model_path, "--from", "color",
                              "--pattern", red_pbm, "--to", "style", "--out", out)
        assert code == 0
        assert "Color:0 -> Style:3" in stdout
        assert "rectangle" in stdout
        assert patterns.load_pbm(out) == qr.render(qr.encode_label("rectangle"))

    def test_out_writes_the_row_associate_returned(self, capsys, model_path, red_pbm, tmp_path, monkeypatch):
        calls = []
        recall_forward = MemorySystem.recall_forward

        def counted(system, ball_id, neuron):
            calls.append((ball_id, neuron))
            return recall_forward(system, ball_id, neuron)

        monkeypatch.setattr(MemorySystem, "recall_forward", counted)
        out = tmp_path / "assoc.pbm"
        assert run(capsys, "associate", "--model", model_path, "--from", "color",
                   "--pattern", red_pbm, "--to", "style", "--out", out)[0] == 0
        assert calls == [("Style", 3)]
        assert patterns.load_pbm(out) == qr.render(qr.encode_label("rectangle"))

    def test_chain_ends_at_color_1(self, capsys, model_path, red_pbm, tmp_path):
        hops = [("color", "style"), ("style", "volume"), ("volume", "color")]
        probe = red_pbm
        last = None
        for i, (src, dst) in enumerate(hops):
            out = tmp_path / f"hop{i}.pbm"
            code, stdout, _ = run(capsys, "associate", "--model", model_path, "--from", src,
                                  "--pattern", probe, "--to", dst, "--out", out)
            assert code == 0
            probe = out
            last = stdout
        assert "Color:1" in last and "orange" in last
        assert patterns.load_pbm(probe) == qr.render(qr.encode_label("orange"))

    def test_csv_output(self, capsys, model_path, red_pbm):
        code, stdout, _ = run(capsys, "associate", "--model", model_path, "--from", "color",
                              "--pattern", red_pbm, "--to", "style", "--format", "csv")
        assert code == 0
        rows = stdout.strip().splitlines()
        assert rows[0] == "from_ball,from_neuron,to_ball,to_neuron,to_label,q"
        assert rows[1].split(",") == ["Color", "0", "Style", "3", "rectangle", "100.0"]

    def test_unlinked_pair_is_no_association(self, capsys, model_path, red_pbm, tmp_path):
        code, _, stderr = run(capsys, "associate", "--model", model_path, "--from", "color",
                              "--pattern", red_pbm, "--to", "volume",
                              "--out", tmp_path / "x.pbm")
        assert code == 3
        assert "link" in stderr

    def test_unrecognized_probe_is_no_recognition(self, capsys, model_path, tmp_path):
        probe = write_pbm(tmp_path / "noise.pbm", np.eye(116, dtype=np.uint8))
        code, _, _ = run(capsys, "associate", "--model", model_path, "--from", "color",
                         "--pattern", probe, "--to", "style")
        assert code == 3

    @pytest.mark.parametrize("probe", ["red", "diagonal"])
    def test_same_ball_is_usage_error_whatever_the_probe(self, capsys, model_path, red_pbm, tmp_path, probe):
        if probe == "diagonal":  # recognized by no neuron
            pattern = write_pbm(tmp_path / "noise.pbm", np.eye(116, dtype=np.uint8))
        else:
            pattern = red_pbm
        code, stdout, stderr = run(capsys, "associate", "--model", model_path, "--from", "color",
                                   "--pattern", pattern, "--to", "Color", "--out", tmp_path / "x.pbm")
        assert (code, stdout) == (2, "")
        assert stderr == "error: cue neurons within one ball are not connected\n"
        assert not (tmp_path / "x.pbm").exists()


class TestReport:
    def test_figure3_argmax_positions(self, capsys, model_path):
        code, stdout, _ = run(capsys, "report", "--model", model_path, "--figure", "3",
                              "--format", "csv")
        assert code == 0
        rows = [r.split(",") for r in stdout.strip().splitlines()[1:]]
        assert len(rows) == 21
        by_ball = {}
        for ball, probe_neuron, neuron, label, q, fired in rows:
            by_ball.setdefault(ball, []).append((int(neuron), float(q)))
        best = {ball: max(vals, key=lambda nv: nv[1])[0] for ball, vals in by_ball.items()}
        assert best == {"Color": 0, "Style": 3, "Volume": 6}

    def test_figure3_probe_override(self, capsys, model_path):
        code, stdout, _ = run(capsys, "report", "--model", model_path, "--figure", "3",
                              "--probe", "color:2", "--format", "csv")
        assert code == 0
        rows = [r.split(",") for r in stdout.strip().splitlines()[1:]]
        assert len(rows) == 7
        best = max(rows, key=lambda r: float(r[4]))
        assert best[2] == "2"

    def test_a_query_threshold_reproduces_figure3_at_another_threshold(self, capsys, tmp_path, red_pbm):
        # figure 3 at D = 80 is `recall --threshold 80` on the stored pattern: one probe, one q, fired where q >= 80
        def q_and_fired(*argv):
            code, stdout, _ = run(capsys, *argv, "--format", "csv")
            assert code == 0
            return [(row["q"], row["fired"]) for row in csv.DictReader(io.StringIO(stdout))]

        trained = tmp_path / "demo.cbrn"
        assert run(capsys, "train", "--out", trained)[0] == 0
        figure = q_and_fired("report", "--model", trained, "--figure", "3", "--probe", "color:0")
        query = q_and_fired("recall", "--model", trained, "--ball", "color", "--pattern", red_pbm, "--threshold", "80")
        assert len(figure) == 7 and query == [(q, str(int(float(q) >= 80))) for q, _ in figure]

    def test_figure4_one_hit_per_direction(self, capsys, model_path):
        code, stdout, _ = run(capsys, "report", "--model", model_path, "--figure", "4",
                              "--format", "csv")
        assert code == 0
        rows = [r.split(",") for r in stdout.strip().splitlines()[1:]]
        assert len(rows) == 6 * 49
        nonzero = [(a, k, b, l, float(q)) for a, k, b, l, q in rows if float(q) != 0.0]
        assert len(nonzero) == 6
        assert all(q == 100.0 for *_, q in nonzero)
        hits = {(a, k, b, l) for a, k, b, l, _ in nonzero}
        assert ("Color", "0", "Style", "3") in hits
        assert ("Volume", "6", "Color", "1") in hits

    def test_figure4_shows_links_at_theta(self, capsys, tmp_path):
        # a link trained once sits at theta, in both directions and nowhere else, and the grid is all figure 4 prints
        model = tmp_path / "m.cbrn"
        assert run(capsys, "train", "--out", model)[0] == 0
        assert run(capsys, "pair", "--model", model, "--pair", "color:0=style:3")[0] == 0
        code, stdout, _ = run(capsys, "report", "--model", model, "--figure", "4")
        assert code == 0
        grids = {block.split(" (", 1)[0]: block for block in stdout.split("\n\n")}
        assert grids["Color -> Style"].splitlines()[2] == f"   0 {'0.00':>8} {'0.00':>8} {'0.00':>8} {THETA:>8.2f}" + (
            f" {'0.00':>8}" * 3)
        assert stdout.count(f" {THETA:>8.2f}") == 2 and f" {THETA:>8.2f}" in grids["Style -> Color"]
        assert stdout.endswith("\n\n") and "note" not in stdout

    def test_untrained_model_reports_zeros(self, capsys, tmp_path):
        system = MemorySystem(SystemConfig(dim=4))
        system.add_ball("A", ["a0", "a1"])
        system.add_ball("B", ["b0"])
        path = tmp_path / "blank.cbrn"
        store.save(system, path)
        code, stdout, _ = run(capsys, "report", "--model", path, "--figure", "3",
                              "--format", "csv")
        assert code == 0
        rows = [r.split(",") for r in stdout.strip().splitlines()[1:]]
        assert rows and all(float(q) == 0.0 for *_, q, fired in rows)
        code, stdout, _ = run(capsys, "report", "--model", path, "--figure", "4",
                              "--format", "csv")
        assert code == 0
        rows = [r.split(",") for r in stdout.strip().splitlines()[1:]]
        assert rows and all(float(r[-1]) == 0.0 for r in rows)

    def test_figure4_prints_a_grid_for_every_direction_trained_or_not(self, capsys, tmp_path):
        # one trained pair: the file has arrays for A <-> C only, and the four other directions print zeros
        system = MemorySystem(SystemConfig(dim=2))
        system.add_ball("A", ["a0", "a1"])
        system.add_ball("B", ["b0"])
        system.add_ball("C", ["c0", "c1"])
        system.learn_cross_weights("A", 1, "C", 0)
        path = tmp_path / "one-pair.cbrn"
        store.save(system, path)
        head = "(rows: source neuron, columns: target neuron)\n"
        one, two = "            0\n", "            0        1\n"
        assert run(capsys, "report", "--model", path, "--figure", "4") == (0, (
            f"A -> B {head}{one}   0     0.00\n   1     0.00\n\n"
            f"A -> C {head}{two}   0     0.00     0.00\n   1   100.00     0.00\n\n"
            f"B -> A {head}{two}   0     0.00     0.00\n\n"
            f"B -> C {head}{two}   0     0.00     0.00\n\n"
            f"C -> A {head}{two}   0     0.00   100.00\n   1     0.00     0.00\n\n"
            f"C -> B {head}{one}   0     0.00\n   1     0.00\n\n"), "")
        assert run(capsys, "report", "--model", path, "--figure", "4", "--format", "csv") == (0, (
            "from_ball,from_neuron,to_ball,to_neuron,q\n"
            "A,0,B,0,0.0\nA,1,B,0,0.0\nA,0,C,0,0.0\nA,0,C,1,0.0\nA,1,C,0,100.0\nA,1,C,1,0.0\n"
            "B,0,A,0,0.0\nB,0,A,1,0.0\nB,0,C,0,0.0\nB,0,C,1,0.0\n"
            "C,0,A,0,0.0\nC,0,A,1,100.0\nC,1,A,0,0.0\nC,1,A,1,0.0\nC,0,B,0,0.0\nC,1,B,0,0.0\n"), "")

    def test_bad_figure_is_usage_error(self, capsys, model_path):
        assert main(["report", "--model", str(model_path), "--figure", "5"]) == 2

    def test_probe_with_figure4_is_usage_error(self, capsys, model_path):
        code, stdout, stderr = run(capsys, "report", "--model", model_path, "--figure", "4",
                                   "--probe", "color:0")
        assert (code, stdout, stderr) == (2, "", "error: --probe applies to figure 3 only\n")

    @pytest.mark.parametrize("argv, error", [
        (("report", "--figure", "3", "--probe", "color"), "bad probe 'color'"),
        (("pair", "--pair", "color=style:3"), "bad pair 'color'"),
    ], ids=["report", "pair"])
    def test_reference_without_an_index_is_usage_error(self, capsys, model_path, tmp_path, argv, error):
        out = tmp_path / "paired.cbrn"  # pair writes here, never over the shared model
        extra = ("--out", out) if argv[0] == "pair" else ()
        code, stdout, stderr = run(capsys, *argv, "--model", model_path, *extra)
        assert (code, stdout, stderr) == (2, "", f"error: {error}, expected BALL:INDEX\n")
        assert not out.exists()

    def test_every_probe_is_checked_before_anything_prints(self, capsys, model_path):
        code, stdout, stderr = run(capsys, "report", "--model", model_path, "--figure", "3",
                                   "--probe", "color:0", "--probe", "color:9")
        assert (code, stdout) == (2, "")
        assert stderr == "error: neuron 9 out of range for ball 'Color' (n=7)\n"


def read_csv(stdout):
    """The header and rows of CSV output; every row must have the header's field count."""
    header, *rows = csv.reader(io.StringIO(stdout))
    assert rows and all(len(row) == len(header) for row in rows), stdout
    return header, rows


class TestCsvOutput:
    @pytest.mark.parametrize("command", [
        ("recall", "--ball", "color"),
        ("associate", "--from", "color", "--to", "style"),
    ])
    def test_out_notice_goes_to_stderr(self, capsys, model_path, red_pbm, tmp_path, command):
        out = tmp_path / "recalled.pbm"
        name, *where = command
        code, stdout, stderr = run(capsys, name, "--model", model_path, *where, "--pattern", red_pbm,
                                   "--format", "csv", "--out", out)
        assert code == 0
        read_csv(stdout)
        assert "wrote recalled pattern" not in stdout
        assert stderr.startswith("wrote recalled pattern of ") and stderr.endswith(f" -> {out}\n")
        assert out.stat().st_size > 0

    def test_labels_with_commas_and_quotes_are_quoted(self, capsys, tmp_path):
        catalog = tmp_path / "cat.txt"
        catalog.write_text('Color:0:red, dark\nColor:1:"blue"\nStyle:0:box\n', encoding="utf-8")
        model, probe = tmp_path / "m.cbrn", tmp_path / "probe.pbm"
        assert run(capsys, "train", "--catalog", catalog, "--out", model)[0] == 0
        assert run(capsys, "pair", "--model", model, "--pair", "color:0=style:0")[0] == 0
        assert run(capsys, "encode", "--label", "red, dark", "--out", probe)[0] == 0

        code, stdout, _ = run(capsys, "recall", "--model", model, "--ball", "color",
                              "--pattern", probe, "--format", "csv")
        assert code == 0
        _, rows = read_csv(stdout)
        assert [row[2] for row in rows] == ["red, dark", '"blue"']
        code, stdout, _ = run(capsys, "associate", "--model", model, "--from", "color",
                              "--pattern", probe, "--to", "style", "--format", "csv")
        assert code == 0
        assert read_csv(stdout)[1] == [["Color", "0", "Style", "0", "box", "100.0"]]
        code, stdout, _ = run(capsys, "report", "--model", model, "--figure", "3", "--format", "csv")
        assert code == 0
        _, rows = read_csv(stdout)
        assert [row[3] for row in rows] == ["red, dark", '"blue"', "box"]


QUERIES = {
    "recall": ("recall", "--ball", "color"),
    "associate": ("associate", "--from", "color", "--to", "volume"),
}


class TestQueryOptions:
    @pytest.mark.parametrize("threshold", ["0", "-5", "nan", "inf", "1e400"])
    @pytest.mark.parametrize("command", sorted(QUERIES))
    def test_threshold_not_above_zero_is_usage_error(self, capsys, model_path, red_pbm, command, threshold):
        # at 0, Color:0 -> Volume:0 used to "associate" over an untrained link with q = 0
        code, stdout, stderr = run(capsys, *QUERIES[command], "--model", model_path, "--pattern", red_pbm,
                                   f"--threshold={threshold}")
        assert (code, stdout) == (2, "")
        assert "argument --threshold: threshold must be positive" in stderr and "Traceback" not in stderr

    @pytest.mark.parametrize("command", sorted(QUERIES))
    def test_threshold_that_is_no_number_is_usage_error(self, capsys, model_path, red_pbm, command):
        code, stdout, stderr = run(capsys, *QUERIES[command], "--model", model_path, "--pattern", red_pbm,
                                   "--threshold", "abc")
        assert (code, stdout) == (2, "")
        assert "argument --threshold: not a number: 'abc'" in stderr and "Traceback" not in stderr

    @staticmethod
    def plain_query(command, red_pbm):
        return {"recall": (*QUERIES["recall"], "--pattern", red_pbm),
                "associate": ("associate", "--from", "color", "--to", "style", "--pattern", red_pbm),
                "report": ("report", "--figure", "3")}[command]

    @pytest.mark.parametrize("command", ["recall", "associate"])
    def test_threshold_nan_from_environment_is_ignored(self, capsys, model_path, red_pbm, command, monkeypatch):
        # a value the flag refuses: no CBRN_* variable is read, whatever the shell exports
        argv = (*self.plain_query(command, red_pbm), "--model", model_path)
        plain = run(capsys, *argv)
        monkeypatch.setenv("CBRN_THRESHOLD", "nan")
        assert run(capsys, *argv) == plain
        assert plain[0] == 0

    @pytest.mark.parametrize("command", ["recall", "associate", "report"])
    def test_unknown_format_from_environment_is_ignored(self, capsys, model_path, red_pbm, command, monkeypatch):
        argv = (*self.plain_query(command, red_pbm), "--model", model_path)
        plain = run(capsys, *argv)
        monkeypatch.setenv("CBRN_FORMAT", "xml")
        assert run(capsys, *argv) == plain
        assert plain[0] == 0


class TestOptionTable:
    def test_unknown_environment_variable_is_ignored(self, capsys, model_path, red_pbm, monkeypatch):
        monkeypatch.setenv("CBRN_THRESOLD", "99")
        code, stdout, _ = run(capsys, *QUERIES["recall"], "--model", model_path, "--pattern", red_pbm)
        assert code == 0 and "threshold 72.0" in stdout

    def test_unknown_format_is_usage_error(self, capsys, model_path):
        code, stdout, stderr = run(capsys, "report", "--model", model_path, "--figure", "3", "--format", "xml")
        assert (code, stdout) == (2, "")
        assert "argument --format: invalid choice: 'xml'" in stderr and "Traceback" not in stderr

    def test_train_help_lists_only_out_and_catalog(self, capsys):
        code, stdout, _ = run(capsys, "train", "--help")
        assert code == 0
        flags = {word.strip("[],") for word in stdout.split() if word.startswith(("--", "[--"))}
        assert flags == {"--help", "--out", "--catalog"}

    @pytest.mark.parametrize("command", ["recall", "associate"])
    def test_threshold_help_names_the_models_constant(self, capsys, command):
        code, stdout, _ = run(capsys, command, "--help")
        assert code == 0 and f"(default: the model's, {THRESHOLD:g})" in " ".join(stdout.split())

    @pytest.mark.parametrize("flag", ["--theta", "--threshold"])
    def test_non_finite_constant_writes_no_model(self, capsys, tmp_path, flag):
        # train takes no such flag, and a model whose header holds a non-finite constant is refused and left as it was
        out = tmp_path / "m.cbrn"
        code, stdout, stderr = run(capsys, "train", "--out", out, flag, "inf")
        assert (code, stdout) == (2, "") and f"unrecognized arguments: {flag} inf" in stderr
        assert not out.exists()
        model = with_header_line(toy_model(tmp_path), flag[2:], "inf")
        before = model.read_bytes()
        code, stdout, stderr = run(capsys, "pair", "--model", model, "--pair", "A:1=B:2")
        assert (code, stdout, stderr) == (3, "", f"error: {model}: {header_refusal(flag[2:], 'inf')}\n")
        assert model.read_bytes() == before

    @pytest.mark.parametrize("argv", [
        ("encode", "--label=--", "--out", "x.pbm"),
        ("encode", "--label", "red", "--out=--"),
        ("train", "--out=--"),
        ("pair", "--model", "m.cbrn", "--pair=--"),
        ("report", "--model=--", "--figure", "3"),
    ])
    def test_double_dash_as_an_inline_value_is_usage_error(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert run(capsys, *argv) == (2, "", "error: '--' is not an option value\n")
        assert list(tmp_path.iterdir()) == []

    def test_abbreviated_flag_is_usage_error(self, capsys, tmp_path):
        out = tmp_path / "m.cbrn"
        code, stdout, stderr = run(capsys, "train", "--out", out, "--cat", "catalog.txt")
        assert (code, stdout) == (2, "")
        assert "unrecognized arguments: --cat catalog.txt" in stderr
        assert not out.exists()

    def test_abbreviated_query_flag_is_usage_error(self, capsys, model_path, red_pbm):
        argv = (*QUERIES["recall"], "--model", model_path, "--pattern", red_pbm, "--form", "csv")
        code, stdout, stderr = run(capsys, *argv)
        assert (code, stdout) == (2, "")
        assert "unrecognized arguments: --form csv" in stderr

    def test_readme_lists_every_option(self):
        # every flag of every command is a row of the options table that names the command,
        # or one of the other flags the section lists after the table
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Options", 1)[1].split("\n#", 1)[0]
        rows = [line for line in section.splitlines() if line.startswith("| `--")]
        others = " ".join(section.split()).split("The other flags", 1)[1].split(")", 1)[0]
        subparsers = next(action for action in build_parser()._actions if action.choices)
        for command, parser in subparsers.choices.items():
            for action in parser._actions:
                flag = action.option_strings[-1]
                if flag == "--help":
                    continue
                assert (any(row.startswith(f"| `{flag}`") and f"`{command}`" in row for row in rows)
                        or f"`{flag}`" in others), (command, flag)


class TestClosedStdout:
    """A reader that closes stdout early (`| head`) leaves a finished command at exit 0, its file written."""

    @pytest.mark.parametrize("buffering", [["-u"], []], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("command", ["recall", "pair"])
    def test_closed_pipe_is_a_quiet_exit_0(self, tmp_path, command, buffering):
        model = toy_model(tmp_path)
        probe = write_pbm(tmp_path / "probe.pbm", np.array([[1, 0], [0, 0]], dtype=np.uint8))
        out = tmp_path / "out"
        argv = {"recall": ("recall", "--model", model, "--ball", "A", "--pattern", probe, "--out", out),
                "pair": ("pair", "--model", model, "--pair", "A:1=B:2", "--out", out)}[command]
        src = str(Path(cbrn.__file__).resolve().parents[1])
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}  # -u decides
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        read, write = os.pipe()
        os.close(read)  # every write to the pipe now fails with EPIPE
        try:
            done = subprocess.run([sys.executable, *buffering, "-m", "cbrn.cli", *map(str, argv)],
                                  stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (0, b"")
        assert out.exists()


def package_env() -> dict[str, str]:
    """The environment with the package under test first on PYTHONPATH."""
    src = str(Path(cbrn.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def cli_process(*argv) -> subprocess.CompletedProcess:
    """`python -m cbrn.cli argv` as a fresh process, on the package under test."""
    return subprocess.run([sys.executable, "-m", "cbrn.cli", *map(str, argv)],
                          capture_output=True, text=True, env=package_env(), timeout=120)


# run as `python -c CODE + LIST_CBRN_MODULES`: prints the cbrn modules CODE left loaded, and numpy if loaded, on the
# last line
LIST_CBRN_MODULES = """
import sys
print(*sorted(name for name in sys.modules if name.partition(".")[0] == "cbrn" or name == "numpy"))"""


def cbrn_modules_after(code: str) -> set[str]:
    """The cbrn modules, and numpy if loaded, that a fresh interpreter holds after it runs `code`."""
    done = subprocess.run([sys.executable, "-c", code + LIST_CBRN_MODULES], capture_output=True, text=True,
                          env=package_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


class TestImportContract:
    """A fresh process loads the cbrn modules that it runs, and no other; only the model commands load NumPy."""

    def test_import_cbrn_loads_only_errors(self):
        assert cbrn_modules_after("import cbrn") == {"cbrn", "cbrn.errors"}

    def test_import_cli_loads_no_command_module(self):
        assert cbrn_modules_after("import cbrn.cli") == {"cbrn", "cbrn.cli", "cbrn.errors"}

    @pytest.mark.parametrize("argv", [["encode", "--label", "red"], ["recall", "--model", "demo.cbrn"]],
                             ids=["encode", "recall"])
    def test_a_usage_error_loads_no_command_module(self, argv):
        code = f"import cbrn.cli\nassert cbrn.cli.main({argv!r}) == 2"
        assert cbrn_modules_after(code) == {"cbrn", "cbrn.cli", "cbrn.errors"}

    @pytest.mark.parametrize("command", ["encode", "pair", "recall", "associate", "report"])
    def test_a_command_loads_only_what_it_runs(self, tmp_path, model_path, red_pbm, command):
        argv = {
            "encode": ("encode", "--label", "red", "--out", tmp_path / "red.pbm"),
            "pair": ("pair", "--model", model_path, "--pair", "color:1=style:2", "--out", tmp_path / "m.cbrn"),
            "recall": (*QUERIES["recall"], "--model", model_path, "--pattern", red_pbm),
            "associate": ("associate", "--model", model_path, "--from", "color", "--to", "style",
                          "--pattern", red_pbm, "--out", tmp_path / "rectangle.pbm"),
            "report": ("report", "--model", model_path, "--figure", "3"),
        }[command]
        code = f"import cbrn.cli\nassert cbrn.cli.main({[str(arg) for arg in argv]!r}) == 0"
        loaded = cbrn_modules_after(code)
        if command == "encode":
            assert not loaded & {"cbrn.memory", "cbrn.store", "numpy"} and {"cbrn.qr", "cbrn.galois"} <= loaded
        else:
            assert not loaded & {"cbrn.qr", "cbrn.galois"} and {"cbrn.memory", "cbrn.store", "numpy"} <= loaded


# run as `python -c CODE + PRINT_BLAS_THREADS`: prints each BLAS thread variable, or "-" if unset, on the last line
PRINT_BLAS_THREADS = """
import os
print(*(os.environ.get(name, "-") for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")))"""


def blas_run(code: str, **settings: str) -> list[str]:
    """Output lines of `code + PRINT_BLAS_THREADS` in a fresh process whose environment sets only `settings` of them."""
    env = {name: value for name, value in package_env().items() if not name.endswith("_NUM_THREADS")}
    done = subprocess.run([sys.executable, "-c", code + PRINT_BLAS_THREADS], capture_output=True, text=True,
                          env=dict(env, **settings), timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def quiet_model_command(model) -> str:
    """Code that runs `report --figure 4` on `model` through `cbrn.cli.main`, its stdout discarded: a command that loads NumPy."""
    return ("import contextlib, io, cbrn.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cbrn.cli.main(['report', '--model', {str(model)!r}, '--figure', '4']) == 0\n")


class TestBlasThreads:
    """A command runs NumPy's BLAS on one thread unless the user says otherwise; the library sets nothing."""

    def test_the_cli_sets_one_thread_before_numpy_loads(self, model_path):
        watch = ("import os, sys\n"
                 "class Watch:\n"
                 "    def find_spec(self, name, path=None, target=None):\n"
                 "        if name == 'numpy':\n"
                 "            print('numpy loads with', *(os.environ.get(key, '-') for key in\n"
                 "                  ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS')), file=sys.__stdout__)\n"
                 "sys.meta_path.insert(0, Watch())\n")
        assert blas_run(watch + quiet_model_command(model_path)) == ["numpy loads with 1 1 1", "1 1 1"]

    def test_a_users_own_value_wins(self):
        assert blas_run("import cbrn.cli", OPENBLAS_NUM_THREADS="2", MKL_NUM_THREADS="3") == ["2 1 3"]

    @pytest.mark.parametrize("code", ["import cbrn", "import cbrn.memory, cbrn.qr, cbrn.store"])
    def test_the_library_sets_nothing(self, code):
        assert blas_run(code) == ["- - -"]

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads through Linux's /proc")
    def test_the_cli_process_starts_no_blas_worker(self, model_path):
        code = quiet_model_command(model_path) + "import os, sys\nassert 'numpy' in sys.modules\n"
        assert blas_run(code + "print(len(os.listdir('/proc/self/task')))") == ["1", "1 1 1"]


class TestOutputAcrossBlas:
    """Every command prints the same stdout and writes the same files on any BLAS thread count or kernel.

    A query's q on a bitmap model is the popcount form, which involves no BLAS
    sum, so even the full-precision q of `recall` and `report --figure 3` in
    CSV is the same on every kernel.
    """

    # an unknown core type is harmless off x86-64: stderr, where OpenBLAS may say so, is not compared
    SETTINGS = ({"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"},
                {"OPENBLAS_CORETYPE": "Sandybridge"}, {"OPENBLAS_CORETYPE": "Haswell"})

    def test_train_and_pair_print_and_write_the_same_bytes(self, tmp_path):  # and the queries print the same bytes
        env = {name: value for name, value in package_env().items()
               if not name.endswith("_NUM_THREADS") and name != "OPENBLAS_CORETYPE"}
        pairs = [f"--pair={p}" for p in ("color:0=style:3", "style:3=volume:6", "volume:6=color:1")]
        query = ("associate", "--model", "demo.cbrn", "--from", "color", "--pattern", "red.pbm", "--to", "style")
        outputs = []
        for i, setting in enumerate(self.SETTINGS):
            work = tmp_path / str(i)  # the same relative paths in every run, so stdout can match
            work.mkdir()
            stdout = []
            for argv, code in ((("encode", "--label", "red", "--out", "red.pbm"), 0), (("train", "--out", "demo.cbrn"), 0),
                               (("pair", "--model", "demo.cbrn", *pairs), 0), ((*query, "--out", "rectangle.pbm"), 0),
                               ((*query, "--format", "csv"), 0), ((*query, "--threshold", "100.5"), 3),
                               (("recall", "--model", "demo.cbrn", "--ball", "color", "--pattern", "red.pbm",
                                 "--format", "csv"), 0),
                               (("report", "--model", "demo.cbrn", "--figure", "3", "--format", "csv"), 0),
                               (("report", "--model", "demo.cbrn", "--figure", "3", "--probe", "style:1",
                                 "--format", "csv"), 0)):
                done = subprocess.run([sys.executable, "-m", "cbrn.cli", *argv], cwd=work, env=dict(env, **setting),
                                      capture_output=True, timeout=120)
                assert done.returncode == code, done.stderr
                stdout.append(done.stdout)
            outputs.append((*stdout, *(hashlib.sha256((work / name).read_bytes()).hexdigest()
                                       for name in ("demo.cbrn", "rectangle.pbm"))))
        assert outputs == [outputs[0]] * len(self.SETTINGS)
        assert outputs[0][-2:] == (TestDemoSessionGolden.MODEL_SHA256, TestDemoSessionGolden.RECTANGLE_SHA256)


class TestPackageSurface:
    """Every name the package has exported since `cbrn.__all__` was written resolves to its home module's object."""

    HOMES = {
        "errors": ("CatalogError", "CbrnError", "DegeneratePattern", "DimensionMismatch", "DuplicateEntry",
                   "EmptyLabel", "IntraBallLink", "LabelTooLong", "ModelFormatError", "NeuronIndexError",
                   "NoAssociation", "NoRecognition", "NonFiniteWeight", "PbmFormatError", "UnencodableLabel",
                   "UnknownBall", "UnsupportedVersion", "UsageError"),
        "galois": ("rs_encode", "syndromes"),
        "memory": ("AssociationResult", "Ball", "CueResponse", "MemorySystem", "SystemConfig", "UpdateReport"),
        "patterns": ("AttributeCatalog", "AttributeGroup", "BinaryPattern", "default_catalog", "load_catalog",
                     "load_pbm", "normalize", "parse_catalog", "save_pbm", "to_pattern"),
        "qr": ("QrMatrix", "encode_label", "random_pattern", "render"),
        "store": ("dumps", "load", "loads", "save"),
    }
    NAMES = sorted(name for names in HOMES.values() for name in names)

    def test_all_lists_every_name(self):
        assert cbrn.__all__ == self.NAMES

    def test_every_name_is_its_home_modules_object(self):
        for home, names in self.HOMES.items():
            module = importlib.import_module(f"cbrn.{home}")
            for name in names:
                assert getattr(cbrn, name) is getattr(module, name), name

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from cbrn import *", namespace)
        assert {name: namespace[name] for name in self.NAMES} == {name: getattr(cbrn, name) for name in self.NAMES}

    def test_dir_lists_every_name(self):
        assert set(self.NAMES) <= set(dir(cbrn))

    def test_from_import_of_a_submodule_gives_the_submodule(self):
        from cbrn import patterns as imported

        assert imported is sys.modules["cbrn.patterns"]
        code = "from cbrn import store\nimport sys\nassert store is sys.modules['cbrn.store']"
        assert "cbrn.store" in cbrn_modules_after(code)  # a fresh interpreter, where it is not yet loaded

    def test_unknown_name_is_the_standard_attribute_error(self):
        with pytest.raises(AttributeError, match=r"^module 'cbrn' has no attribute 'nonesuch'$"):
            cbrn.nonesuch
        with pytest.raises(ImportError, match=r"^cannot import name 'nonesuch' from 'cbrn'"):
            from cbrn import nonesuch  # noqa: F401


class TestProcessEntry:
    """`run`, the process entry: `main`'s exit code and output, with the collector frozen at exit."""

    def test_exit_code_and_stdout_reach_the_parent(self, capsys, tmp_path, model_path, red_pbm):
        cases = {
            0: ("report", "--model", model_path, "--figure", "4", "--format", "csv"),
            2: ("train", "--thet", "80", "--out", tmp_path / "abbreviated.cbrn"),
            3: ("recall", "--model", tmp_path / "missing.cbrn", "--ball", "color", "--pattern", red_pbm),
        }
        for code, argv in cases.items():
            done = cli_process(*argv)
            assert (done.returncode, done.stdout) == run(capsys, *argv)[:2]
            assert done.returncode == code
        assert not (tmp_path / "abbreviated.cbrn").exists()

    def test_run_freezes_the_collector_then_exits_with_mains_code(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["cbrn", "train", "--thet", "80", "--out", str(tmp_path / "m.cbrn")])
        try:
            with pytest.raises(SystemExit) as raised:
                cli.run()
            assert raised.value.code == 2 and gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()

    def test_main_leaves_the_collector_alone(self, capsys, model_path, red_pbm):
        frozen = gc.get_freeze_count()
        assert run(capsys, *QUERIES["recall"], "--model", model_path, "--pattern", red_pbm)[0] == 0
        assert gc.get_freeze_count() == frozen


class TestExitCodeByErrorClass:
    """The class of the error a command raises sets the exit code; `cli` names no error class for it."""

    CLASSES = [cls for cls in vars(errors).values() if isinstance(cls, type) and issubclass(cls, errors.CbrnError)]

    def test_walk_finds_every_exported_error_and_the_seven_usage_classes(self):
        assert {cls.__name__ for cls in self.CLASSES} == set(TestPackageSurface.HOMES["errors"])
        usage = {cls.__name__ for cls in self.CLASSES if issubclass(cls, errors.UsageError)}
        assert usage == {"UsageError", "EmptyLabel", "LabelTooLong", "UnencodableLabel", "UnknownBall",
                         "NeuronIndexError", "IntraBallLink"}

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
    def test_usage_errors_exit_2_and_the_rest_exit_3(self, capsys, tmp_path, monkeypatch, cls):
        def raise_it(label):
            raise cls(f"{cls.__name__} from encode")

        monkeypatch.setattr(qr, "encode_label", raise_it)
        code, stdout, stderr = run(capsys, "encode", "--label", "red", "--out", tmp_path / "x.pbm")
        assert (code, stdout, stderr) == (2 if issubclass(cls, errors.UsageError) else 3, "",
                                          f"error: {cls.__name__} from encode\n")


# weights a model file may hold: the ends of the float range, values far from theta, subnormals, signed zeros;
# they span the levels a model stored toward any learning value would hold
FUZZ_WEIGHTS = st.one_of(st.sampled_from([0.0, -0.0, 1e308, -1e308, 1e20, -1e20, 5e-324, -5e-324, 100.0]),
                         st.floats(-1e308, 1e308, allow_nan=False, allow_infinity=False))
FUZZ_BALLS = ("A", "a", "B", "Color", "COLOR", "color")  # ids that collide case-insensitively


@st.composite
def fuzz_models(draw) -> MemorySystem:
    """A model of 1 to 3 balls of 1 to 3 neurons at dim 1 to 16, with any finite weights and links."""
    system = MemorySystem(SystemConfig(dim=draw(st.integers(1, 16))))
    for ball_id in draw(st.lists(st.sampled_from(FUZZ_BALLS), min_size=1, max_size=3, unique=True)):
        ball = system.add_ball(ball_id, [f"{ball_id}{i}" for i in range(draw(st.integers(1, 3)))])
        for i, row in enumerate(draw(arrays(np.float64, (ball.n, ball.dim), elements=FUZZ_WEIGHTS))):
            ball.set_recall_row(i, row)
        for i, row in enumerate(draw(arrays(np.float64, (ball.n, ball.dim), elements=FUZZ_WEIGHTS))):
            ball.set_cue_row(i, row)
    directions = list(itertools.permutations(system.balls, 2))
    for a, b in draw(st.lists(st.sampled_from(directions), max_size=3, unique=True)) if directions else ():
        shape = (system.balls[a].n, system.balls[b].n)
        system._link_array(a, b)[:] = draw(arrays(np.float64, shape, elements=FUZZ_WEIGHTS))
    return system


FUZZ_NAMES = FUZZ_BALLS + ("b", "X", " a ", "")
# a header line's value: the writer's spelling (first), other finite values, other spellings of the same number, nan
FUZZ_HEADER = {"theta": ["100.0", "90.0", "1e308", "1.0", "1e2", "100", "nan"],
               "threshold": ["72.0", "5e-324", "1.0", "100.0", "7.2e1", "72", "nan"]}


@st.composite
def fuzz_argv(draw, system: MemorySystem, model: str, probe: str, out: str) -> list[str]:
    """A `pair`, `recall`, `associate` or `report` command line on `model`, valid or not."""
    names = st.sampled_from(sorted(system.balls) * 3 + list(FUZZ_NAMES))  # mostly the model's own ids
    indices = st.sampled_from(["0", "1", "2", "0", "1", "-1", "3", "x", "", "1:2"])
    refs = st.builds("{}:{}".format, names, indices)
    command = draw(st.sampled_from(["pair", "recall", "associate", "report"]))
    argv = [command, "--model", model]
    if command == "pair":
        for _ in range(draw(st.integers(1, 3))):
            a, b = draw(st.tuples(names, names).filter(lambda ab: ab[0] != ab[1]))
            argv += ["--pair", f"{a}:{draw(indices)}={b}:{draw(indices)}"]
    elif command == "report":
        argv += ["--figure", draw(st.sampled_from(["3", "4", "5"]))]
        for _ in range(draw(st.integers(0, 2))):
            argv += ["--probe", draw(refs)]
    else:
        balls = ["--ball"] if command == "recall" else ["--from", "--to"]
        argv += [word for flag in balls for word in (flag, draw(names))]
        argv += ["--pattern", draw(st.sampled_from([probe, probe, probe + ".missing"]))]
        if draw(st.booleans()):
            argv += ["--threshold", draw(st.sampled_from(["72", "5e-324", "1e308", "0.5", "0", "nan", "inf", "x"]))]
    if command != "pair" and draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["table", "csv", "xml"]))]
    if command != "report" and draw(st.booleans()):
        argv += ["--out", out]
    return argv


FUZZ_LABELS = st.sampled_from(["red", "x" * 53, "é" * 26, " red ", "a:b", "a # b", "die \U0001f3b2"]) | st.text(max_size=8)
# a line's faults: a group name that is not one printable word (a BOM, a space, none), a label past 53 bytes or none
FUZZ_FAULTS = st.sampled_from([(0, "\ufeffColor"), (0, "two words"), (0, ""), (2, "x" * 54), (2, "é" * 27), (2, "")])
FUZZ_BYTES = (b"\xef\xbb\xbf", b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x00", b"\r", b"\n", b":", b"#")  # a BOM, bad UTF-8


@st.composite
def fuzz_catalogs(draw) -> bytes:
    """Catalog bytes: groups of numbered labels; in half of them, faulty, dropped (a gap) or doubled lines and stray bytes."""
    entries = [[group, str(index), label]
               for group in draw(st.lists(st.sampled_from(["Color", "color", "Größe"]), min_size=1, max_size=3,
                                          unique=True))
               for index, label in enumerate(draw(st.lists(FUZZ_LABELS, min_size=1, max_size=4)))]
    if not draw(st.booleans()):
        return "\n".join(map(":".join, entries)).encode("utf-8")
    for entry in entries:
        if draw(st.booleans()):
            part, text = draw(FUZZ_FAULTS)
            entry[part] = text
    lines = [":".join(entry) for entry in entries for _ in range(draw(st.sampled_from([1, 1, 0, 2])))]
    data = "\n".join(lines).encode("utf-8")
    for at, stray in draw(st.lists(st.tuples(st.integers(0, len(data)), st.sampled_from(FUZZ_BYTES)), max_size=2)):
        data = data[:at] + stray + data[at:]
    return data


class TestExitContractFuzz:
    """Any model file, catalog or label and any command line end in exit 0, 2 or 3, with no traceback and no warning."""

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")  # every example writes the same few files

    @staticmethod
    def main_in_contract(argv) -> tuple[int, str, list[str]]:
        """`main(argv)` with RuntimeWarnings as errors, checked against the contract; returns code, stdout, stderr lines."""
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
        lines = stderr.getvalue().splitlines()
        assert code in (0, 2, 3) and not any("Traceback" in line or "Warning" in line for line in lines)
        if code == 3:
            assert len(lines) == 1 and lines[0].startswith("error: ")
        return code, stdout.getvalue(), lines

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), system=fuzz_models())
    def test_model_commands(self, work, data, system):
        model, pbm = work / "model.cbrn", work / "probe.pbm"
        store.save(system, model)
        edits = [(key, value) for key, values in FUZZ_HEADER.items()  # the writer's lines half the time each
                 if (value := data.draw(st.sampled_from(values[:1] * (len(values) - 1) + values[1:]))) != values[0]]
        for key, value in edits:
            with_header_line(model, key, value)
        before = model.read_bytes()
        side = st.just(math.isqrt(system.config.dim)) | st.integers(1, 4)  # the model's own bitmap size, or another
        write_pbm(pbm, data.draw(arrays(np.uint8, st.tuples(side, side), elements=st.sampled_from([1, 0]))))
        argv = data.draw(fuzz_argv(system, str(model), str(pbm), str(work / "out")))
        code, _, lines = self.main_in_contract(argv)
        if code == 0:  # at most the notice of a CSV query's --out
            assert all(line.startswith("wrote recalled pattern") for line in lines)
        if edits:  # refused as it loads, at its first line this program does not write; usage errors come first
            assert code != 0 and model.read_bytes() == before
            if code == 3:
                assert lines == [f"error: {model}: {header_refusal(*edits[0])}"]

    @settings(max_examples=60, deadline=None)
    @given(catalog=fuzz_catalogs())
    def test_train(self, work, catalog):
        path = work / "catalog.txt"
        path.write_bytes(catalog)
        code, stdout, lines = self.main_in_contract(["train", "--catalog", str(path), "--out", str(work / "trained.cbrn")])
        if code == 0:  # one row per catalog entry, in catalog order
            rows = [tuple(line.split(maxsplit=2)) for line in stdout.splitlines()[1:-1]]
            assert rows == [(group.name, str(index), label) for group in patterns.load_catalog(path)
                            for index, label in enumerate(group.labels)]
            assert lines == []

    @settings(max_examples=100, deadline=None)
    @given(label=st.sampled_from(["red", "x" * 53, "x" * 54, "-x", ""]) |
           st.text(st.characters() | st.sampled_from(["\udcff", "\udcc3"]), max_size=60),  # a non-UTF-8 argv byte
           inline=st.booleans())
    def test_encode(self, work, label, inline):
        out = work / "label.pbm"
        code, stdout, lines = self.main_in_contract(["encode", *([f"--label={label}"] if inline else ["--label", label]),
                                                     "--out", str(out)])
        if code == 0:
            assert stdout.startswith(f"wrote {out}: 116x116, ") and stdout.count("\n") == 1 and lines == []


# run as `python -c PEAK_RSS argv...`: runs argv and prints its peak RSS (KiB on Linux)
PEAK_RSS = """import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"""


def peak_rss_kib(*argv) -> int:
    """The peak RSS of a fresh `python argv` process, measured by a wrapper process of its own."""
    done = subprocess.run([sys.executable, "-c", PEAK_RSS, sys.executable, *map(str, argv)],
                          capture_output=True, text=True, env=package_env(), timeout=120, check=True)
    return int(done.stdout)


# what a load holds besides the weights and its CHUNK_BYTES read buffer, a bound per value of a row: one line and the
# row reader's work arrays; a load of the model below peaks 2.8 MB above the weights and the buffer (tracemalloc),
# 211 bytes a value
ROW_READER_BYTES_PER_VALUE = 256


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_a_query_holds_the_weights_not_the_model_text(capsys, tmp_path):
    # one 4-byte label makes a str of the whole text take 4 bytes a character
    labels = {ball: [f"{ball} {i}" for i in range(20)] for ball in ("a", "b", "c")}
    labels["b"][7] = "die \U0001f3b2"
    catalog = tmp_path / "catalog.txt"
    catalog.write_text("".join(f"{ball}:{i}:{label}\n" for ball, group in labels.items()
                               for i, label in enumerate(group)), encoding="utf-8")
    model, probe = tmp_path / "m.cbrn", tmp_path / "die.pbm"
    assert run(capsys, "train", "--catalog", catalog, "--out", model)[0] == 0
    assert run(capsys, "encode", "--label", labels["b"][7], "--out", probe)[0] == 0
    # the recall rows and the cue rows as the balls hold them: one level and a packed support a row
    weight_bytes = sum(a.nbytes for ball in store.load(model).balls.values() for a in held_arrays(ball))
    query = peak_rss_kib("-m", "cbrn.cli", "recall", "--model", model, "--ball", "b", "--pattern", probe)
    baseline = peak_rss_kib("-c", "import cbrn.cli, cbrn.store")  # the modules recall loads
    load_work = store.CHUNK_BYTES + ROW_READER_BYTES_PER_VALUE * SystemConfig().dim
    assert (query - baseline) * 1024 < 2 * weight_bytes + load_work  # the model text takes 19.8 MB as bytes


def test_readme_library_example_prints_what_its_comment_says():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    done = subprocess.run([sys.executable, "-c", example], capture_output=True, text=True, env=package_env(),
                          timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "3 100.0\n", "")


class TestDemoSessionGolden:
    """The README demo session, pinned to the bytes it has always produced."""

    MODEL_SHA256 = "c96fc292bf9f2a6455f6c03277472ece3daad6965f78f4a9b6f3e7a4d53a7ef3"
    RECTANGLE_SHA256 = "32a4f86b2c8cb126d05afb2fa0906901dea9e99d33090f50ac301082d876a3b1"
    RED_SHA256 = "dfcf0625c52a565748fb9b41b3d7f9ebbe265a960f3d8886f14b47ea5ea8ed65"
    TRAIN_STDOUT_SHA256 = "2714e6b47b5f6d8c5c88e1828fe334fbc8c95900d329dd34ff29059702b23789"  # of `train --out demo.cbrn`

    def test_model_and_recalled_bitmap_are_byte_identical(self, capsys, tmp_path):
        model, red, rectangle = tmp_path / "demo.cbrn", tmp_path / "red.pbm", tmp_path / "rectangle.pbm"
        assert run(capsys, "encode", "--label", "red", "--out", red)[0] == 0
        assert hashlib.sha256(red.read_bytes()).hexdigest() == self.RED_SHA256
        assert run(capsys, "train", "--out", model)[0] == 0
        pairs = ("color:0=style:3", "style:3=volume:6", "volume:6=color:1")
        code, stdout, _ = run(capsys, "pair", "--model", model, *(f"--pair={p}" for p in pairs))
        assert code == 0 and stdout.endswith("6 directed links -> " + str(model) + "\n")
        assert hashlib.sha256(model.read_bytes()).hexdigest() == self.MODEL_SHA256
        argv = ("associate", "--model", model, "--from", "color", "--pattern", red, "--to", "style")
        assert run(capsys, *argv, "--out", rectangle)[0] == 0
        assert hashlib.sha256(rectangle.read_bytes()).hexdigest() == self.RECTANGLE_SHA256

    def test_train_stdout_is_byte_identical(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the relative --out path of the CI smoke step
        code, stdout, _ = run(capsys, "train", "--out", "demo.cbrn")
        assert code == 0 and hashlib.sha256(stdout.encode()).hexdigest() == self.TRAIN_STDOUT_SHA256


def test_ci_smoke_step_pins_the_demo_session_bytes():
    """The workflow's console-script smoke step pairs the README's three pairs and checks the digests `TestDemoSessionGolden` pins, and the recall CSV's."""
    workflow = (Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    step = workflow.split("- name: Console-script smoke test\n", 1)[1].split("- name:", 1)[0]
    pair = next(line.split() for line in step.splitlines() if line.split()[:2] == ["cbrn", "pair"])
    assert pair == ["cbrn", "pair", "--model", "demo.cbrn", "--pair", "color:0=style:3", "--pair", "style:3=volume:6",
                    "--pair", "volume:6=color:1"]
    lines = step.split("sha256sum -c - <<'EOF'\n", 1)[1].splitlines()
    pins = dict(reversed(line.split()) for line in itertools.takewhile(lambda line: line.strip() != "EOF", lines))
    assert pins == {"red.pbm": TestDemoSessionGolden.RED_SHA256,
                    "train.txt": TestDemoSessionGolden.TRAIN_STDOUT_SHA256,
                    "demo.cbrn": TestDemoSessionGolden.MODEL_SHA256,
                    "rectangle.pbm": TestDemoSessionGolden.RECTANGLE_SHA256,
                    "recall.csv": TestQueryOutputGolden.STDOUT_SHA256["recall", "csv"]}


def test_ci_tier1_step_names_a_failing_property_test(tmp_path):
    """Under the workflow's tier-1 pytest flags, a failing `@given` test is a FAILED line, not an INTERNALERROR."""
    workflow = (Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    step = workflow.split("- name: Tier-1 tests\n", 1)[1].split("- name:", 1)[0]
    command = shlex.split(step.split("run:", 1)[1].splitlines()[0])
    flags = command[command.index("pytest") + 1:]
    assert flags[:3] == ["-q", "-W", "error"]
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_never_holds(n):\n    assert n != n\n", encoding="utf-8")
    done = subprocess.run([sys.executable, "-m", "pytest", *flags, "test_property.py"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "FAILED test_property.py::test_never_holds" in done.stdout


class TestQueryOutputGolden:
    """The README session's query output, pinned byte for byte in both formats."""

    STDOUT_SHA256 = {
        ("recall", "table"): "8d826fc441f78bc09dc54762f6b675fe8e2649984704c9593cb620c7f675b0e2",
        ("associate", "table"): "16a0f7527060fe917a60b4ab0ce0dd4e669c49735fb5b6eab74ba44a17457702",
        ("figure3", "table"): "81c7fbaa3b00ef582097eb44252150bb16c42cf7d9610301772bab541da53926",
        ("figure4", "table"): "d058456306aba4ae862be1bf5fde876463e77feb2a8326ea617a548c9996cfa0",
        ("recall", "csv"): "96e3835ff89db217c1e761261cfbd19235b893592ab4b274075aeb0860775996",
        ("associate", "csv"): "ca1201081062cf8324c146698e0b655a54386230c694acef17c533bec86db5d1",
        ("figure3", "csv"): "066486bf39aaec786401a367255256f0d70134f325500865c2b9f9338d961912",
        ("figure4", "csv"): "de930c8a61af21281730a72fa383de7b996b329ce046f876d3bda5fe992a94f3",
    }
    QUERIES = {
        "recall": ("recall", "--model", "demo.cbrn", "--ball", "color", "--pattern", "red.pbm"),
        "associate": ("associate", "--model", "demo.cbrn", "--from", "color", "--pattern", "red.pbm",
                      "--to", "style"),
        "figure3": ("report", "--model", "demo.cbrn", "--figure", "3"),
        "figure4": ("report", "--model", "demo.cbrn", "--figure", "4"),
    }

    def test_query_stdout_is_byte_identical(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # relative paths, so the --out notice is the same on every run
        assert run(capsys, "encode", "--label", "red", "--out", "red.pbm")[0] == 0
        assert run(capsys, "train", "--out", "demo.cbrn")[0] == 0
        pairs = ("color:0=style:3", "style:3=volume:6", "volume:6=color:1")
        assert run(capsys, "pair", "--model", "demo.cbrn", *(f"--pair={p}" for p in pairs))[0] == 0
        digests = {}
        for (name, fmt) in self.STDOUT_SHA256:
            out = ("--out", "rectangle.pbm") if (name, fmt) == ("associate", "table") else ()
            code, stdout, stderr = run(capsys, *self.QUERIES[name], *out, "--format", fmt)
            assert (code, stderr) == (0, "")
            digests[name, fmt] = hashlib.sha256(stdout.encode()).hexdigest()
        assert digests == self.STDOUT_SHA256
        assert hashlib.sha256(Path("rectangle.pbm").read_bytes()).hexdigest() == TestDemoSessionGolden.RECTANGLE_SHA256
