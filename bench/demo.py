"""demo-session: the README's CLI session, one fresh process per command.

A session encodes every bundled label, trains, pairs the three classic
pairs, recalls every label, associates along the six linked directions and
prints figures 3 and 4.  The seed only shuffles the order of the encode,
recall and associate commands.  The first session's outputs are checked
against the QR reader, the overlap oracle and the CBRN1 parser; later
sessions must reproduce them byte for byte.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import hostspeed
import oracle
from measure import SETUP_REPEATS, Tally, counted, end_to_end, memory_sizes, run_rounds
from oracle import require

PAIRS = (("Color", 0, "Style", 3), ("Style", 3, "Volume", 6), ("Volume", 6, "Color", 1))
COMMANDS = ("encode", "train", "pair", "recall", "associate", "report")
CHILD_TIMEOUT_S = 120


def bundled_catalog(root: Path) -> list[tuple[str, list[str]]]:
    """The catalog file shipped with the package, read without `cbrn`."""
    groups: dict[str, dict[int, str]] = {}
    for line in (root / "src/cbrn/data/catalog.txt").read_text(encoding="utf-8").splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            name, index, label = body.split(":", 2)
            groups.setdefault(name, {})[int(index)] = label
    return [(name, [g[i] for i in range(len(g))]) for name, g in groups.items()]


class Session:
    """The argv list of one session and the paths it writes, in a work directory."""

    def __init__(self, work: Path, catalog, seed: int) -> None:
        self.work = work
        self.catalog = catalog
        self.model = work / "demo.cbrn"
        rng = random.Random(seed)
        entries = [(b, i, label) for b, labels in catalog for i, label in enumerate(labels)]
        encode = [["encode", "--label", label, "--out", str(self.pbm(b, i))] for b, i, label in entries]
        recall = [
            ["recall", "--model", str(self.model), "--ball", b.lower(), "--pattern", str(self.pbm(b, i)),
             "--format", "csv"]
            for b, i, _ in entries
        ]
        associate = [
            ["associate", "--model", str(self.model), "--from", src.lower(), "--pattern", str(self.pbm(src, k)),
             "--to", dst.lower(), "--out", str(self.recalled(src, k, dst)), "--format", "csv"]
            for src, k, dst in self.directions()
        ]
        for group in (encode, recall, associate):
            rng.shuffle(group)
        pair = ["pair", "--model", str(self.model)]
        for a, k, b, l in PAIRS:
            pair += ["--pair", f"{a.lower()}:{k}={b.lower()}:{l}"]
        self.argvs = (
            encode
            + [["train", "--out", str(self.model)], pair]
            + recall
            + associate
            + [["report", "--model", str(self.model), "--figure", str(f), "--format", "csv"] for f in (3, 4)]
        )

    @staticmethod
    def directions():
        for a, k, b, _ in PAIRS:
            yield a, k, b
        for a, _, b, l in PAIRS:
            yield b, l, a

    def pbm(self, ball: str, index: int) -> Path:
        return self.work / f"enc-{ball}-{index}.pbm"

    def recalled(self, ball: str, index: int, to_ball: str) -> Path:
        return self.work / f"assoc-{ball}-{index}-{to_ball}.pbm"

    def files(self) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(self.work.iterdir())}


def run_session(session: Session, execute, tally: Tally, per_command: dict[str, list[float]],
                trace=None, plain: Tally | None = None):
    """Run every command once; returns (stdout per command, model text after train).

    With a tracer, each command runs untraced into `plain` and then traced
    into `tally`, so that drift during the session falls on both alike.
    """
    stdout: list[str] = []
    trained = ""
    for argv in session.argvs:
        if trace is not None:
            _timed(execute, argv, plain)
            trace.install()
        try:
            code, out, seconds = _timed(execute, argv, tally)
        finally:
            if trace is not None:
                trace.uninstall()
        per_command[argv[0]].append(seconds)
        if code != 0:
            print(f"command failed with exit {code}: {' '.join(argv)}", file=sys.stderr)
        stdout.append(out)
        if argv[0] == "train":
            trained = session.model.read_text(encoding="utf-8")
    return stdout, trained


def _timed(execute, argv, tally: Tally):
    tally.attempted += 1
    code, out, seconds, tick_s = execute(argv)
    tally.record(seconds, tick_s)
    tally.failed += code != 0
    return code, out, seconds


def _csv(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    require(bool(lines) and lines[0] == header, f"CSV header {lines[:1]}, expected {header!r}")
    return list(csv.reader(lines[1:]))


def check_session(session: Session, stdout: list[str], trained: str) -> int:
    """Check one session's outputs; returns how many clean recall probes fired one neuron."""
    catalog = session.catalog
    bitmaps: dict[str, np.ndarray] = {}
    for argv, out in zip(session.argvs, stdout):
        if argv[0] != "encode":
            continue
        label, path = argv[2], argv[4]
        bits = oracle.parse_pbm(Path(path).read_text(encoding="ascii"))
        mask = oracle.read_label(bits, label)
        bitmaps[label] = bits
        want = f"wrote {path}: 116x116, {int(bits.sum())} dark pixels, mask {mask}\n"
        require(out == want, f"encode printed {out!r}, expected {want!r}")

    oracle.check_model(oracle.parse_model(trained), catalog, bitmaps)
    paired_text = session.model.read_text(encoding="utf-8")
    require(paired_text.startswith(trained[: -len("end\n")]), "pair changed the ball sections")
    paired = oracle.parse_model(paired_text)
    oracle.check_links(paired, PAIRS)

    balls = {b: labels for b, labels in catalog}
    oracles = {b: oracle.OverlapOracle([bitmaps[label] for label in labels]) for b, labels in catalog}
    partner = {(a, k, b): l for a, k, b, l in PAIRS} | {(b, l, a): k for a, k, b, l in PAIRS}
    unique = 0
    for argv, out in zip(session.argvs, stdout):
        if argv[0] == "recall":
            ball = next(b for b in balls if b.lower() == argv[4])
            probe = oracle.parse_pbm(Path(argv[6]).read_text(encoding="ascii"))
            rows = _csv(out, "ball,neuron,label,q,fired")
            require(
                [(r[0], int(r[1]), r[2]) for r in rows] == [(ball, i, l) for i, l in enumerate(balls[ball])],
                f"recall rows for {argv[6]} do not list ball {ball}",
            )
            q = [float(r[3]) for r in rows]
            oracle.check_q(q, oracles[ball].q(probe), f"recall {Path(argv[6]).name}")
            fired = [i for i, r in enumerate(rows) if r[4] == "1"]
            oracle.check_fired(q, fired, f"recall {Path(argv[6]).name}")
            unique += len(fired) == 1
        elif argv[0] == "associate":
            src = next(b for b in balls if b.lower() == argv[4])
            dst = next(b for b in balls if b.lower() == argv[8])
            probe = oracle.parse_pbm(Path(argv[6]).read_text(encoding="ascii"))
            k = oracles[src].argmax(probe)
            require((src, k, dst) in partner, f"oracle argmax {src}:{k} has no link to {dst}")
            l = partner[(src, k, dst)]
            lines = out.splitlines()
            want = f"{src},{k},{dst},{l},{balls[dst][l]},{oracle.THETA!r}"
            require(lines[:2] == ["from_ball,from_neuron,to_ball,to_neuron,to_label,q", want],
                    f"associate printed {lines[:2]}, expected {want!r}")
            out_bits = oracle.parse_pbm(Path(argv[10]).read_text(encoding="ascii"))
            require(np.array_equal(out_bits, bitmaps[balls[dst][l]]),
                    f"recalled {Path(argv[10]).name} differs from the stored {balls[dst][l]!r}")
        elif argv[0] == "report" and argv[4] == "3":
            rows = _csv(out, "ball,probe_neuron,neuron,label,q,fired")
            probes = [(b, p) for (b, _), p in zip(catalog, (0, 3, 6))]
            for ball, p in probes:
                mine = [r for r in rows if r[0] == ball and int(r[1]) == p]
                require(len(mine) == len(balls[ball]), f"figure 3 lacks the {ball}:{p} table")
                q = [float(r[4]) for r in mine]
                oracle.check_q(q, oracles[ball].q(bitmaps[balls[ball][p]]), f"figure 3 {ball}:{p}")
                oracle.check_fired(q, [i for i, r in enumerate(mine) if r[5] == "1"], f"figure 3 {ball}:{p}")
            require(len(rows) == sum(len(balls[b]) for b, _ in probes), "figure 3 has extra rows")
        elif argv[0] == "report":
            rows = _csv(out, "from_ball,from_neuron,to_ball,to_neuron,q")
            oracle.check_link_grid(rows, {b: len(labels) for b, labels in catalog}, PAIRS)
    return unique


def check_round_trip(text: str) -> None:
    """A load followed by a save reproduces the model file byte for byte."""
    from cbrn import store

    require(store.dumps(store.loads(text)) == text, "load then save changed the model file")


class Launcher:
    """A small process (spawn.py) that runs each command as a fresh process.

    Commands are not spawned from the benchmark process itself because a
    child's peak RSS would then include this process's memory.
    """

    def __init__(self, root: Path) -> None:
        env = {k: v for k, v in os.environ.items() if not k.startswith("CBRN_")}
        env["PYTHONPATH"] = str(root / "src")
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("spawn.py"))],
                                     cwd=root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def _ask(self, argv: list[str]) -> dict:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with {self.proc.wait()}")
        return json.loads(line)

    def execute(self, argv: list[str]):
        """Run `python -m cbrn.cli argv`; returns (exit code, stdout, wall seconds, tick)."""
        reply = self._ask([sys.executable, "-m", "cbrn.cli", *argv])
        return reply["code"], reply["stdout"], reply["seconds"], reply["tick"]

    def startup_s(self) -> float:
        """Median time of fresh interpreters importing cbrn.cli: what every command pays first."""
        replies = [self._ask([sys.executable, "-c", "import cbrn.cli"]) for _ in range(SETUP_REPEATS)]
        if any(r["code"] for r in replies):
            raise RuntimeError("python -c 'import cbrn.cli' failed")
        return statistics.median(hostspeed.PYTHON.scaled(r["seconds"], r["tick"]) for r in replies)

    def peak_rss_mb(self) -> float:
        return self._ask([])["peak_mb"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _in_process_executor():
    from cbrn import cli

    def execute(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            # cli.main is looked up per call so that the tracer's wrapper is used
            code, seconds, tick_s = hostspeed.PYTHON.timed(lambda: cli.main(argv))
        return code, out.getvalue(), seconds, tick_s

    return execute


def run(root: Path, work: Path, seed: int, seconds: float, trace) -> dict:
    session = Session(work, bundled_catalog(root), seed)
    per_command: dict[str, list[float]] = {c: [] for c in COMMANDS}
    tally, plain = Tally(hostspeed.PYTHON), Tally(hostspeed.PYTHON)
    launcher = Launcher(root)
    try:
        setup_s = launcher.startup_s()
        if trace is None:
            first = []

            def one_session(n: int) -> None:
                for path in work.iterdir():
                    path.unlink()
                outputs = run_session(session, launcher.execute, tally, per_command)
                if not first:
                    check_session(session, *outputs)
                    check_round_trip(session.model.read_text(encoding="utf-8"))
                    first.append((outputs, session.files()))
                else:
                    require((outputs, session.files()) == first[0], f"session {n} differs from session 0")

            with counted(tally):
                run_rounds(tally, seconds, one_session)
            rss_mb = launcher.peak_rss_mb()
    finally:
        launcher.close()
    if trace is None:
        for command in COMMANDS:
            print(f"demo-session cli_{command}_s median {statistics.median(per_command[command]):.4f} s"
                  f" over {len(per_command[command])} processes")
        return {"tally": tally, "metrics": end_to_end(tally, setup_s, rss_mb)}

    # Traced: the same argv through cbrn.cli.main in this process.
    with counted(plain, tally):
        outputs = run_session(session, _in_process_executor(), tally, per_command, trace, plain)
        unique = check_session(session, *outputs)
    recalls = sum(1 for argv in session.argvs if argv[0] == "recall")
    return {"tally": tally, "plain": plain, "unique_fire": unique / recalls,
            "startup_ms": setup_s * 1e3, "model_bytes": float(session.model.stat().st_size),
            "sizes": memory_sizes(trace.loaded) if trace.loaded else None}
