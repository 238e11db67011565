"""Command-line surface: encode patterns, train, pair, recall, associate, report.

Every option is a command-line flag; no environment variable or file sets
one.  Exit codes are stable: 0 on success; 2 for argparse's refusals and any
`UsageError`; 3 for any other `CbrnError`, an `OSError` or a `MemoryError`
(I/O, malformed files, failed recognition).  The error's class decides, so
this module keeps no list of error classes.

Each command is a fresh process, so it imports only the modules it runs.
This module loads NumPy, `errors` and `memory`, which every command uses
(`main`'s `np.errstate`, the parser's `SystemConfig` defaults); a command
imports `patterns`, `qr` and `store` itself, where it calls them.  So
`encode` never loads `store`, and the model commands never load `qr` or
`galois`.

Before NumPy loads, this module sets each BLAS thread variable of
`_BLAS_THREADS` that the environment leaves unset to 1: on import, NumPy's
OpenBLAS starts a worker thread for each further CPU, and no command uses
them.  A user's own value wins, and `import cbrn` alone sets nothing.
"""

from __future__ import annotations

import argparse
import csv
import gc
import itertools
import math
import os
import sys

_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _variable in _BLAS_THREADS:
    os.environ.setdefault(_variable, "1")

import numpy as np

from .errors import CatalogError, CbrnError, DimensionMismatch, NoRecognition, UsageError
from .memory import MemorySystem, SystemConfig

# report defaults: probe neuron per ball position (classic demo layout)
_DEFAULT_PROBE_NEURONS = (0, 3, 6)


def _threshold_override(text: str) -> float:
    """A query's `--threshold`: a positive finite number (argparse reports the error and exits 2)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0 < value < math.inf:  # also refuses nan
        raise argparse.ArgumentTypeError(f"threshold must be positive and finite, got {value}")
    return value


def _parse_ref(text: str, what: str) -> tuple[str, int]:
    ball, sep, index = text.partition(":")
    ball = ball.strip()
    if not sep or not ball:
        raise UsageError(f"bad {what} {text!r}, expected BALL:INDEX")
    try:
        return ball, int(index)
    except ValueError:
        raise UsageError(f"bad {what} index in {text!r}") from None


def _parse_pair(text: str) -> tuple[tuple[str, int], tuple[str, int]]:
    """One `A:K=B:L` pair."""
    left, sep, right = text.partition("=")
    if not sep:
        raise UsageError(f"bad pair {text!r}, expected A:K=B:L")
    return _parse_ref(left, "pair"), _parse_ref(right, "pair")


def _side(system: MemorySystem) -> int:
    """Pixels per side of the model's square bitmaps."""
    side = math.isqrt(system.config.dim)
    if side * side != system.config.dim:
        raise DimensionMismatch(f"model dimension {system.config.dim} is not square; cannot read or write bitmaps")
    return side


def _load_probe(system: MemorySystem, path):
    from .patterns import load_pbm, normalize

    pattern = load_pbm(path)
    side = _side(system)
    if (pattern.width, pattern.height) != (side, side):
        raise DimensionMismatch(f"{path}: is {pattern.width}x{pattern.height}, model bitmaps are {side}x{side}")
    try:
        return normalize(pattern)
    except CbrnError as exc:  # an all-light pattern, which has no unit vector
        raise type(exc)(f"{path}: {exc}") from None


def _write_recalled(system: MemorySystem, ball_id: str, neuron: int, recalled, out) -> str:
    """Write the row `ball_id:neuron` recalled as a square bitmap; returns the notice that says so."""
    from .patterns import save_pbm, to_pattern

    side = _side(system)
    save_pbm(to_pattern(recalled, side, side), out)
    return f"wrote recalled pattern of {ball_id}:{neuron} -> {out}"


def _print_notice(notice: str, fmt: str) -> None:
    """A notice goes to stderr under CSV, where stdout holds only rows, else to stdout."""
    print(notice, file=sys.stderr if fmt == "csv" else sys.stdout)


def _csv_writer(fmt: str, *header: str):
    """For CSV, a writer on stdout that has written `header`; for a table, None."""
    if fmt != "csv":
        return None
    writer = csv.writer(sys.stdout, lineterminator="\n")  # quotes a field only where it must
    writer.writerow(header)
    return writer


# ---------------------------------------------------------------------------
# Commands.  Each writes its files before it prints, so a reader that closes
# stdout early (`| head`) cannot keep a file from being written.
# ---------------------------------------------------------------------------


def cmd_encode(args) -> int:
    from . import qr
    from .patterns import save_pbm

    matrix = qr.encode_label(args.label)
    pattern = qr.render(matrix)
    save_pbm(pattern, args.out)
    print(
        f"wrote {args.out}: {pattern.width}x{pattern.height}, "
        f"{pattern.popcount()} dark pixels, mask {matrix.mask}"
    )
    return 0


def cmd_train(args) -> int:
    from . import patterns, qr, store

    try:
        config = SystemConfig(theta=args.theta, threshold=args.threshold)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    catalog = patterns.load_catalog(args.catalog) if args.catalog else patterns.default_catalog()
    if not len(catalog):
        raise CatalogError(f"{args.catalog}: no patterns: the catalog is empty")

    system = MemorySystem.from_catalog(catalog, config)
    rows = [f"{'ball':<10} {'neuron':>6} {'label':<14} {'E_final':>12} {'e_final':>12}"]
    for group in catalog:
        for index, label in enumerate(group.labels):
            matrix = qr.encode_label(label)
            w_report, v_report = system.store(group.name, index, patterns.normalize(qr.render(matrix)))
            rows.append(f"{group.name:<10} {index:>6} {label:<14} "
                        f"{w_report.final_error:>12.6g} {v_report.final_error:>12.6g}")
    store.save(system, args.out)
    stored = sum(ball.n for ball in system.balls.values())
    print(*rows, f"stored {stored} patterns in {len(system.balls)} balls -> {args.out}", sep="\n")
    return 0


def cmd_pair(args) -> int:
    from . import store

    pairs = [_parse_pair(text) for text in args.pair]
    system = store.load(args.model)
    rows = [f"{'direction':<24} {'eta_before':>12} {'eta_after':>12} {'u':>10}"]
    for (ball_a, k), (ball_b, l) in pairs:
        a = system.resolve_ball(ball_a)
        b = system.resolve_ball(ball_b)
        forward, backward = system.learn_cross_weights(a, k, b, l)
        for tag, report, u in (
            (f"{a}:{k} -> {b}:{l}", forward, system.links[a, b][k, l]),
            (f"{b}:{l} -> {a}:{k}", backward, system.links[b, a][l, k]),
        ):
            rows.append(f"{tag:<24} {report.error:>12.6g} {report.final_error:>12.6g} {_fixed(u, 10, 4)}")
    out = args.out or args.model
    store.save(system, out)
    print(*rows, f"{len(system.trained_links())} directed links -> {out}", sep="\n")
    return 0


def cmd_recall(args) -> int:
    from . import store

    fmt = args.format
    system = store.load(args.model)
    ball_id = system.resolve_ball(args.ball)
    response = system.cue_response(ball_id, _load_probe(system, args.pattern), args.threshold)
    k = response.argmax
    notice = (_write_recalled(system, ball_id, k, system.recall_forward(ball_id, k), args.out)
              if args.out and response.fired else "")

    writer = _csv_writer(fmt, "ball", "neuron", "label", "q", "fired")
    title = f"ball {ball_id}, threshold {response.threshold}"
    _print_q(writer, (ball_id,), system.balls[ball_id], response, title)
    if not writer:
        print(f"fired: {list(response.fired)}  argmax: {response.argmax}")

    if args.out:
        if not notice:
            raise NoRecognition(f"nothing fired at threshold {response.threshold}; not writing {args.out}")
        _print_notice(notice, fmt)
    return 0


def cmd_associate(args) -> int:
    from . import store

    fmt = args.format
    system = store.load(args.model)
    from_ball = system.resolve_ball(args.from_ball)
    to_ball = system.resolve_ball(args.to_ball)
    probe = _load_probe(system, args.pattern)
    result = system.associate(from_ball, probe, to_ball, args.threshold)

    k, l = result.source_neuron, result.target_neuron
    notice = _write_recalled(system, to_ball, l, result.recalled, args.out) if args.out else ""
    to_label = system.balls[to_ball].labels[l]
    writer = _csv_writer(fmt, "from_ball", "from_neuron", "to_ball", "to_neuron", "to_label", "q")
    if writer:
        writer.writerow((from_ball, k, to_ball, l, to_label, result.q))
    else:
        print(f"{from_ball}:{k} -> {to_ball}:{l} ({to_label}), q = {_fixed(result.q, 14, 6).lstrip()}")
    if notice:
        _print_notice(notice, fmt)
    return 0


def _fixed(value: float, width: int, digits: int) -> str:
    """`value` in `width` columns: `digits` decimals, or from 1e9 on e notation with as many as fit."""
    return f"{value:>{width}.{digits}f}" if abs(value) < 1e9 else f"{value:>{width}.{min(digits, width - 8)}e}"


def _print_q(writer, prefix: tuple, ball, response, title: str) -> None:
    """One row per neuron of a ball: label, q, fired; CSV rows start with `prefix`, a table with `title`."""
    rows = [(i, label, float(q), int(i in response.fired))
            for i, (label, q) in enumerate(zip(ball.labels, response.q))]
    if writer:
        writer.writerows(prefix + row for row in rows)
        return
    print(title)
    print(f"{'neuron':>6} {'label':<14} {'q':>14} fired")
    for i, label, q, fired in rows:
        argmax = "  <- argmax" if i == response.argmax else ""
        print(f"{i:>6} {label:<14} {_fixed(q, 14, 6)} {'*' if fired else '':<5}{argmax}")


def cmd_report(args) -> int:
    from . import store

    fmt = args.format
    if args.figure == 4 and args.probe:
        raise UsageError("--probe applies to figure 3 only")
    system = store.load(args.model)

    if args.figure == 3:
        if args.probe:
            refs = [_parse_ref(text, "probe") for text in args.probe]
            refs = [(system.resolve_ball(ball), index) for ball, index in refs]
        else:  # _DEFAULT_PROBE_NEURONS by ball position, then 0; at most the last neuron
            wanted = itertools.chain(_DEFAULT_PROBE_NEURONS, itertools.repeat(0))
            refs = [(ball_id, min(k, ball.n - 1)) for (ball_id, ball), k in zip(system.balls.items(), wanted)]
        # every probe is looked up, and so checked, before anything prints
        probes = [(ball_id, index, system.recall_forward(ball_id, index)) for ball_id, index in refs]
        writer = _csv_writer(fmt, "ball", "probe_neuron", "neuron", "label", "q", "fired")
        for ball_id, index, probe in probes:
            ball = system.balls[ball_id]
            title = f"ball {ball_id}, probing stored pattern {index} ({ball.labels[index]})"
            _print_q(writer, (ball_id, index), ball, system.cue_response(ball_id, probe), title)
            if not writer:
                print()
        return 0

    # figure 4: per ordered ball pair, the link array, source neuron x target neuron
    writer = _csv_writer(fmt, "from_ball", "from_neuron", "to_ball", "to_neuron", "q")
    for a, b in itertools.permutations(system.balls, 2):
        grid = system.link_weights(a, b)
        if writer:
            writer.writerows((a, k, b, l, float(u)) for (k, l), u in np.ndenumerate(grid))
            continue
        print(f"{a} -> {b} (rows: source neuron, columns: target neuron)")
        print(f"{'':>4} " + " ".join(f"{l:>8}" for l in range(grid.shape[1])))
        for k, row in enumerate(grid):
            print(f"{k:>4} " + " ".join(_fixed(u, 8, 2) for u in row))
        print()
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbrn",
        description="Attribute-wise associative memory over QR-coded labels.",
        allow_abbrev=False,  # a flag has one spelling: `--thet` is not `--theta`
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    p = command("encode", cmd_encode, "encode a label as a pattern bitmap")
    p.add_argument("--label", required=True, help="text to encode")
    p.add_argument("--out", required=True, help="output PBM path")

    p = command("train", cmd_train, "store every catalog pattern into a fresh model")
    p.add_argument("--out", required=True, help="output model path")
    p.add_argument("--catalog", help="catalog file (default: the bundled one)")
    p.add_argument("--theta", type=float, default=SystemConfig.theta, help="learning value (default: %(default)s)")
    p.add_argument("--threshold", type=float, default=SystemConfig.threshold,
                   help="firing threshold (default: %(default)s)")

    p = command("pair", cmd_pair, "train cross links between cue neurons")
    p.add_argument("--model", required=True, help="model file to update")
    p.add_argument("--out", help="write the updated model here instead of in place")
    p.add_argument("--pair", action="append", required=True, metavar="A:K=B:L", help="pair to link (repeatable)")

    p = command("recall", cmd_recall, "present a pattern to one ball and show responses")
    p.add_argument("--model", required=True)
    p.add_argument("--ball", required=True, help="ball to probe")
    p.add_argument("--pattern", required=True, help="probe PBM file")
    p.add_argument("--out", help="write the argmax neuron's recalled pattern here")

    p = command("associate", cmd_associate, "recall a linked pattern in another ball")
    p.add_argument("--model", required=True)
    p.add_argument("--from", dest="from_ball", required=True, help="ball that sees the probe")
    p.add_argument("--pattern", required=True, help="probe PBM file")
    p.add_argument("--to", dest="to_ball", required=True, help="ball to recall from")
    p.add_argument("--out", help="write the recalled pattern here")

    p = command("report", cmd_report, "response tables for stored or cross-linked patterns")
    p.add_argument("--model", required=True)
    p.add_argument("--figure", type=int, choices=(3, 4), required=True,
                   help="3: per-ball responses to stored probes; 4: cross-ball grids")
    p.add_argument("--probe", action="append", metavar="BALL:INDEX",
                   help="probe override for figure 3 (repeatable)")

    for name in ("recall", "associate"):
        sub.choices[name].add_argument("--threshold", type=_threshold_override,
                                       help="override the model's firing threshold")
    for name in ("recall", "associate", "report"):
        sub.choices[name].add_argument("--format", choices=("table", "csv"), default="table",
                                       help="output format (default: %(default)s)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage problems itself
        return int(exc.code or 0)
    try:
        # an overflowing learning step either reports an inf error or raises
        # NonFiniteWeight; NumPy's RuntimeWarnings would add nothing to either
        with np.errstate(over="ignore", invalid="ignore"):
            code = args.func(args)
        sys.stdout.flush()  # so a closed pipe shows here, not in the interpreter's exit flush
        return code
    except BrokenPipeError:  # the reader closed stdout early (`| head`); every file is already written
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # the exit flush then prints nothing
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CbrnError, OSError, MemoryError) as exc:  # NumPy's MemoryError names the allocation
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


def run() -> None:
    """The process entry of `cbrn` and `python -m cbrn.cli`: `main`, then exit with its code.

    Every object left when `main` returns lives until the process ends, so
    `gc.freeze` moves them out of reach of the interpreter's last collection,
    which would walk them all (NumPy's included) and free none.  `main` itself
    leaves the collector alone, for callers that run it in process.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
