import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbrn import patterns, qr, store
from cbrn.cli import OPTIONS, UsageError, main, read_config_file
from cbrn.memory import MemorySystem, SystemConfig
from conftest import pair_classic, train_full_system


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

    def test_scale_one(self, capsys, tmp_path):
        out = tmp_path / "red1.pbm"
        code, _, _ = run(capsys, "encode", "--label", "red", "--out", out, "--scale", "1")
        assert code == 0
        assert patterns.load_pbm(out).width == 29

    def test_empty_label_is_usage_error(self, capsys, tmp_path):
        code, _, stderr = run(capsys, "encode", "--label", "", "--out", tmp_path / "x.pbm")
        assert code == 2
        assert "error" in stderr

    def test_overlong_label_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "encode", "--label", "x" * 60, "--out", tmp_path / "x.pbm")
        assert code == 2

    def test_bad_scale(self, capsys, tmp_path):
        code, _, _ = run(capsys, "encode", "--label", "red", "--out", tmp_path / "x.pbm",
                         "--scale", "0")
        assert code == 2


class TestTrain:
    def test_trains_and_reports_zero_errors(self, capsys, tmp_path):
        out = tmp_path / "m.cbrn"
        code, stdout, _ = run(capsys, "train", "--out", out)
        assert code == 0
        lines = [l for l in stdout.splitlines() if l and l[0] in "CSV"]
        assert len(lines) == 21
        for line in lines:
            assert float(line.split()[3]) == 0.0  # E_final
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
        assert code == 3
        assert "no patterns" in stderr

    def test_random_provider_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.cbrn", tmp_path / "b.cbrn"
        run(capsys, "train", "--out", a, "--provider", "random", "--seed", "9")
        run(capsys, "train", "--out", b, "--provider", "random", "--seed", "9")
        assert a.read_bytes() == b.read_bytes()

    def test_flag_overrides_env_overrides_config(self, capsys, tmp_path, monkeypatch):
        cat = tmp_path / "cat.txt"
        cat.write_text("A:0:one\n")
        cfg = tmp_path / "opts.conf"
        cfg.write_text(f"theta = 80\nthreshold = 50\ncatalog = {cat}\n")
        monkeypatch.setenv("CBRN_THETA", "90")

        out = tmp_path / "m.cbrn"
        code, _, _ = run(capsys, "train", "--out", out, "--config", cfg)
        assert code == 0
        assert store.load(out).config.theta == 90.0  # env beats config file

        code, _, _ = run(capsys, "train", "--out", out, "--config", cfg, "--theta", "95")
        assert code == 0
        loaded = store.load(out)
        assert loaded.config.theta == 95.0  # flag beats env
        assert loaded.config.threshold == 50.0  # config file still applies
        assert list(loaded.balls) == ["A"]

    def test_unnormalized_mode_recorded(self, capsys, tmp_path):
        out = tmp_path / "m.cbrn"
        run(capsys, "train", "--out", out, "--unnormalized", "--provider", "random")
        assert store.load(out).config.normalized is False

    def test_bad_config_value_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "opts.conf"
        cfg.write_text("theta = banana\n")
        code, _, _ = run(capsys, "train", "--out", tmp_path / "m.cbrn", "--config", cfg)
        assert code == 2

    def test_non_utf8_config_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "opts.conf"
        cfg.write_bytes(b"theta = 9\xff\n")
        code, _, stderr = run(capsys, "train", "--out", tmp_path / "m.cbrn", "--config", cfg)
        assert code == 2
        assert stderr.startswith("error: ") and stderr.count("\n") == 1 and "not UTF-8" in stderr

    def test_non_utf8_catalog_is_runtime_error(self, capsys, tmp_path):
        cat = tmp_path / "cat.txt"
        cat.write_bytes(b"A:0:caf\xff\n")
        code, _, stderr = run(capsys, "train", "--out", tmp_path / "m.cbrn", "--catalog", cat)
        assert code == 3
        assert stderr.startswith("error: ") and stderr.count("\n") == 1 and "not UTF-8" in stderr
        assert not (tmp_path / "m.cbrn").exists()

    def test_huge_theta_trains_a_model_that_recalls(self, capsys, tmp_path, red_pbm):
        # the first cue step's error, theta squared, overflows to inf; the weights stay finite
        out = tmp_path / "m.cbrn"
        code, _, stderr = run(capsys, "train", "--out", out, "--theta", "1e308", "--threshold", "1")
        assert (code, stderr) == (0, "")
        code, stdout, _ = run(capsys, "recall", "--model", out, "--ball", "color", "--pattern", red_pbm)
        assert code == 0 and "argmax: 0" in stdout

    def test_overflowing_learning_rate_writes_no_model(self, capsys, tmp_path):
        out = tmp_path / "m.cbrn"
        code, _, stderr = run(capsys, "train", "--out", out, "--provider", "random", "--eps-v", "1e308")
        assert code == 3
        assert stderr == "error: learning v row Color:0 at rate 1e+308 left a non-finite weight\n"
        assert not out.exists()


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
            before, after = line.split()[-3], line.split()[-2]
            assert float(before) == 0.0 and float(after) == 0.0  # fixed point

    def test_intra_ball_pair_is_usage_error(self, capsys, tmp_path):
        model = toy_model(tmp_path)
        code, _, stderr = run(capsys, "pair", "--model", model, "--pair", "A:0=A:1")
        assert code == 2
        assert "ball" in stderr

    def test_bad_syntax_is_usage_error(self, capsys, tmp_path):
        model = toy_model(tmp_path)
        assert run(capsys, "pair", "--model", model, "--pair", "A:0-B:1")[0] == 2
        assert run(capsys, "pair", "--model", model, "--pair", "A:x=B:1")[0] == 2

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

    def test_pairs_from_config_file(self, capsys, tmp_path):
        model = toy_model(tmp_path)
        cfg = tmp_path / "opts.conf"
        cfg.write_text("pairs = A:1=B:2, A:2=B:0\n")
        code, _, _ = run(capsys, "pair", "--model", model, "--config", cfg)
        assert code == 0
        links = store.load(model).links
        assert links["A", "B"][1, 2] != 0.0 and links["B", "A"][0, 2] != 0.0

    def test_repeated_config_key_is_usage_error(self, capsys, tmp_path):
        model = toy_model(tmp_path)
        before = model.read_bytes()
        cfg = tmp_path / "opts.conf"
        cfg.write_text("pairs = A:1=B:2\n# the second list used to win\npairs = A:2=B:0\n")
        code, stdout, stderr = run(capsys, "pair", "--model", model, "--config", cfg)
        assert (code, stdout) == (2, "")
        assert stderr == f"error: {cfg}:3: key 'pairs' was already set on line 1\n"
        assert model.read_bytes() == before

    def test_pairs_from_environment(self, capsys, tmp_path, monkeypatch):
        model = toy_model(tmp_path)
        monkeypatch.setenv("CBRN_PAIRS", "A:3=B:1")
        code, _, _ = run(capsys, "pair", "--model", model)
        assert code == 0
        assert store.load(model).links["A", "B"][3, 1] != 0.0

    def test_no_pairs_anywhere_is_usage_error(self, capsys, tmp_path):
        model = toy_model(tmp_path)
        assert run(capsys, "pair", "--model", model)[0] == 2

    def test_pair_that_trains_to_zero_writes_no_link(self, capsys, tmp_path):
        # at lambda_cb 2 the second of two steps overshoots back to exactly 0
        model = tmp_path / "m.cbrn"
        args = ("--provider", "random", "--lambda-cb", "2", "--epochs", "2")
        assert run(capsys, "train", "--out", model, *args)[0] == 0
        code, stdout, _ = run(capsys, "pair", "--model", model, "--pair", "color:0=style:3")
        assert code == 0
        assert stdout.splitlines()[1].split()[-1] == "0.0000"
        assert stdout.endswith(f"0 directed links -> {model}\n")
        assert "link " not in model.read_text()
        assert not store.load(model).trained_links()


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

    def test_figure4_footer_notes_exact_theta(self, capsys, model_path):
        code, stdout, _ = run(capsys, "report", "--model", model_path, "--figure", "4")
        assert code == 0
        assert "theta" in stdout and "100" in stdout

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

    def test_bad_figure_is_usage_error(self, capsys, model_path):
        assert main(["report", "--model", str(model_path), "--figure", "5"]) == 2

    def test_probe_with_figure4_is_usage_error(self, capsys, model_path):
        code, stdout, stderr = run(capsys, "report", "--model", model_path, "--figure", "4",
                                   "--probe", "color:0")
        assert (code, stdout, stderr) == (2, "", "error: --probe applies to figure 3 only\n")


CONFIG_PIECES = [b"theta", b"format", b"=", b" ", b"\t", b"\n", b"\r", b"#", b"-", b"x", b"\xff", b"\xe2\x80\xa8"]


class TestConfigFile:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.lists(st.sampled_from(CONFIG_PIECES), max_size=30).map(b"".join), st.binary(max_size=60)))
    def test_any_config_file_reads_or_raises_usage_error(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("conf") / "opts.conf"
        path.write_bytes(data)
        try:
            values = read_config_file(path)
        except UsageError:
            return
        assert all(isinstance(k, str) and isinstance(v, str) for k, v in values.items())

    def test_key_repeated_after_hyphen_folding_names_both_lines(self, tmp_path):
        path = tmp_path / "opts.conf"
        path.write_text("eps-w = 1\n\neps_w = 2\n")
        with pytest.raises(UsageError, match=r"opts.conf:3: key 'eps_w' was already set on line 1$"):
            read_config_file(path)


QUERIES = {
    "recall": ("recall", "--ball", "color"),
    "associate": ("associate", "--from", "color", "--to", "volume"),
}


class TestQueryOptions:
    @pytest.mark.parametrize("threshold", ["0", "-5", "nan"])
    @pytest.mark.parametrize("command", sorted(QUERIES))
    def test_threshold_not_above_zero_is_usage_error(self, capsys, model_path, red_pbm, command, threshold):
        # at 0, Color:0 -> Volume:0 used to "associate" over an untrained link with q = 0
        code, stdout, stderr = run(capsys, *QUERIES[command], "--model", model_path, "--pattern", red_pbm,
                                   f"--threshold={threshold}")
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error: threshold must be positive") and stderr.count("\n") == 1

    @pytest.mark.parametrize("command", sorted(QUERIES))
    def test_threshold_nan_from_environment_is_usage_error(self, capsys, model_path, red_pbm, command,
                                                           monkeypatch):
        monkeypatch.setenv("CBRN_THRESHOLD", "nan")
        code, _, stderr = run(capsys, *QUERIES[command], "--model", model_path, "--pattern", red_pbm)
        assert code == 2 and "threshold must be positive" in stderr

    @pytest.mark.parametrize("command", ["recall", "associate", "report"])
    def test_unknown_format_from_environment_is_usage_error(self, capsys, model_path, red_pbm, command,
                                                            monkeypatch):
        monkeypatch.setenv("CBRN_FORMAT", "xml")
        argv = ("report", "--figure", "3") if command == "report" else (*QUERIES[command], "--pattern", red_pbm)
        code, stdout, stderr = run(capsys, *argv, "--model", model_path)
        assert (code, stdout, stderr) == (2, "", "error: unknown format 'xml'\n")


class TestOptionTable:
    @pytest.mark.parametrize("command", ["recall", "train"])
    def test_misspelt_config_key_is_usage_error(self, capsys, model_path, red_pbm, tmp_path, command):
        cfg = tmp_path / "opts.conf"
        cfg.write_text("theta = 90\nthresold = 99\n")
        out = tmp_path / "m.cbrn"
        if command == "train":
            argv = ("train", "--out", out)
        else:
            argv = (*QUERIES["recall"], "--model", model_path, "--pattern", red_pbm)
        code, stdout, stderr = run(capsys, *argv, "--config", cfg)
        assert (code, stdout) == (2, "")
        assert stderr == f"error: {cfg}: unknown key 'thresold'; did you mean 'threshold'?\n"
        assert not out.exists()

    def test_one_config_file_serves_train_and_recall(self, capsys, red_pbm, tmp_path):
        cfg = tmp_path / "opts.conf"
        cfg.write_text("theta = 90\nformat = csv\n")
        model = tmp_path / "m.cbrn"
        assert run(capsys, "train", "--out", model, "--config", cfg)[0] == 0
        assert store.load(model).config.theta == 90.0
        code, stdout, _ = run(capsys, *QUERIES["recall"], "--model", model, "--pattern", red_pbm, "--config", cfg)
        assert code == 0
        assert stdout.splitlines()[0] == "ball,neuron,label,q,fired"

    def test_unknown_environment_variable_is_ignored(self, capsys, model_path, red_pbm, monkeypatch):
        monkeypatch.setenv("CBRN_THRESOLD", "99")
        code, stdout, _ = run(capsys, *QUERIES["recall"], "--model", model_path, "--pattern", red_pbm)
        assert code == 0 and "threshold 72.0" in stdout

    def test_hyphenated_config_key_is_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "opts.conf"
        cfg.write_text("eps-w = 2\nprovider = random\n")
        out = tmp_path / "m.cbrn"
        assert run(capsys, "train", "--out", out, "--config", cfg)[0] == 0
        assert store.load(out).config.eps_w == 2.0

    @pytest.mark.parametrize("source", ["flag", "config file"])
    def test_flag_and_config_give_the_environment_error(self, capsys, model_path, tmp_path, source):
        # TestQueryOptions checks the same message for CBRN_FORMAT=xml
        (tmp_path / "opts.conf").write_text("format = xml\n")
        extra = ("--format", "xml") if source == "flag" else ("--config", tmp_path / "opts.conf")
        code, stdout, stderr = run(capsys, "report", "--model", model_path, "--figure", "3", *extra)
        assert (code, stdout, stderr) == (2, "", "error: unknown format 'xml'\n")

    def test_train_help_shows_system_config_defaults(self, capsys):
        code, stdout, _ = run(capsys, "train", "--help")
        assert code == 0
        text = " ".join(stdout.split())  # argparse wraps help lines
        for flag, default in (("--theta", SystemConfig.theta), ("--threshold", SystemConfig.threshold),
                              ("--eps-w", SystemConfig.eps_w), ("--epochs", SystemConfig.epochs)):
            assert flag in text and f"(default: {default})" in text

    @pytest.mark.parametrize("flag", ["--theta", "--threshold", "--eps-w", "--eps-v", "--lambda-cb"])
    def test_non_finite_constant_writes_no_model(self, capsys, tmp_path, flag):
        out = tmp_path / "m.cbrn"
        code, stdout, stderr = run(capsys, "train", "--out", out, flag, "inf")
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error: ") and "must be finite" in stderr
        assert not out.exists()

    def test_readme_lists_every_option(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Options, config files, environment", 1)[1].split("\n#", 1)[0]
        rows = [line for line in section.splitlines() if line.startswith("| `")]
        for name, _, commands, _, _ in OPTIONS:
            assert any(row.startswith(f"| `{name}`") and all(f"`{c}`" in row for c in commands)
                       for row in rows), name


class TestDemoSessionGolden:
    """The README demo session, pinned to the bytes it has always produced."""

    MODEL_SHA256 = "c96fc292bf9f2a6455f6c03277472ece3daad6965f78f4a9b6f3e7a4d53a7ef3"
    RECTANGLE_SHA256 = "32a4f86b2c8cb126d05afb2fa0906901dea9e99d33090f50ac301082d876a3b1"

    def test_model_and_recalled_bitmap_are_byte_identical(self, capsys, tmp_path):
        model, red, rectangle = tmp_path / "demo.cbrn", tmp_path / "red.pbm", tmp_path / "rectangle.pbm"
        assert run(capsys, "encode", "--label", "red", "--out", red)[0] == 0
        assert run(capsys, "train", "--out", model)[0] == 0
        pairs = ("color:0=style:3", "style:3=volume:6", "volume:6=color:1")
        code, stdout, _ = run(capsys, "pair", "--model", model, *(f"--pair={p}" for p in pairs))
        assert code == 0 and stdout.endswith("6 directed links -> " + str(model) + "\n")
        assert hashlib.sha256(model.read_bytes()).hexdigest() == self.MODEL_SHA256
        argv = ("associate", "--model", model, "--from", "color", "--pattern", red, "--to", "style")
        assert run(capsys, *argv, "--out", rectangle)[0] == 0
        assert hashlib.sha256(rectangle.read_bytes()).hexdigest() == self.RECTANGLE_SHA256
