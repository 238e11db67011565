"""Command-line surface: encode patterns, train, pair, recall, associate, report.

Every tunable option, one row of `OPTIONS`, can also come from a `key = value`
config file (--config) or an environment variable with the CBRN_ prefix;
explicit flags win over the environment, which wins over the config file.
The other arguments (paths, labels, balls, probes, the figure) are flags
only.  A config-file key that no row names is an error; environment
variables are not checked, because a shell exports them for every command.
Exit codes are stable: 0 on success, 2 for invalid usage or argument values,
3 for runtime failures (I/O, malformed files, failed recognition).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import patterns, qr, store
from .errors import (
    CbrnError,
    DimensionMismatch,
    EmptyLabel,
    IntraBallLink,
    LabelTooLong,
    NeuronIndexError,
    NoRecognition,
    UnknownBall,
)
from .memory import MemorySystem, SystemConfig
from .patterns import load_pbm, save_pbm, to_pattern, to_vector

ENV_PREFIX = "CBRN_"
PROVIDERS = ("qr", "random")

# report defaults: probe neuron per ball position (classic demo layout)
_DEFAULT_PROBE_NEURONS = (0, 3, 6)


class UsageError(Exception):
    """Bad command-line or config values; maps to exit code 2."""


_USAGE_ERRORS = (UsageError, EmptyLabel, LabelTooLong, UnknownBall, NeuronIndexError, IntraBallLink)


# ---------------------------------------------------------------------------
# Option table and resolution: flag > environment > config file > default.
# ---------------------------------------------------------------------------


def read_config_file(path) -> dict[str, str]:
    """Parse `key = value` lines; `#` comments and blank lines are ignored.

    A key may appear once (`-` and `_` are the same in keys).
    """
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: byte {exc.start} is not UTF-8 text") from None
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, sep, value = body.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {body!r}")
        key = key.strip().replace("-", "_")
        if key in values:
            raise UsageError(f"{path}:{lineno}: key {key!r} was already set on line {first_line[key]}")
        values[key], first_line[key] = value.strip(), lineno
    return values


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(text)


def _one_of(what: str, choices: tuple[str, ...]):
    def parse(text: str) -> str:
        if text not in choices:
            raise UsageError(f"unknown {what} {text!r}")
        return text
    return parse


def _positive(what: str, cast):
    def parse(text: str):
        value = cast(text)
        if not value > 0:  # also refuses nan
            raise UsageError(f"{what} must be positive, got {value}")
        return value
    return parse


def _parse_ref(text: str, what: str) -> tuple[str, int]:
    ball, sep, index = text.partition(":")
    if not sep or not ball:
        raise UsageError(f"bad {what} {text!r}, expected BALL:INDEX")
    try:
        return ball, int(index)
    except ValueError:
        raise UsageError(f"bad {what} index in {text!r}") from None


def _parse_pairs(text: str) -> list[tuple[tuple[str, int], tuple[str, int]]]:
    """A comma list of `A:K=B:L` pairs."""
    pairs = []
    for spec in filter(None, (p.strip() for p in text.split(","))):
        left, sep, right = spec.partition("=")
        if not sep:
            raise UsageError(f"bad pair {spec!r}, expected A:K=B:L")
        pairs.append((_parse_ref(left, "pair"), _parse_ref(right, "pair")))
    return pairs


_QUERIES = ("recall", "associate")
_FORMATTED = ("recall", "associate", "report")

# One row per tunable option: (name, parse, commands, default, help).  A row
# is the flag --<name> (`_` spelt `-`), the environment variable CBRN_<NAME>,
# the config-file key <name> and the check `parse` makes of a value from any
# of them; a default is never parsed.  The SystemConfig defaults are its own.
OPTIONS = (
    ("scale", _positive("scale", int), ("encode",), qr.DEFAULT_SCALE, "pixels per module"),
    ("catalog", str, ("train",), None, "catalog file (default: the bundled one)"),
    ("theta", float, ("train",), SystemConfig.theta, "learning value"),
    ("threshold", float, ("train",), SystemConfig.threshold, "firing threshold"),
    ("eps_w", float, ("train",), SystemConfig.eps_w, "recall learning rate"),
    ("eps_v", float, ("train",), SystemConfig.eps_v, "cue learning rate"),
    ("lambda_cb", float, ("train",), SystemConfig.lambda_cb, "cross learning rate"),
    ("epochs", int, ("train",), SystemConfig.epochs, "updates per learn call"),
    ("normalized", _parse_bool, ("train",), SystemConfig.normalized,
     "present raw 0/1 vectors, not unit-energy ones; sets key normalized to false"),
    ("provider", _one_of("provider", PROVIDERS), ("train",), "qr", "pattern source: qr or random"),
    ("seed", int, ("train",), 0, "seed for the random provider"),
    ("pairs", _parse_pairs, ("pair",), None, "pair to link (repeatable; config key: a comma list)"),
    ("threshold", _positive("threshold", float), _QUERIES, None, "override the model's firing threshold"),
    ("format", _one_of("format", ("table", "csv")), _FORMATTED, "table", "table or csv"),
)

# flags spelt other than --<name>; their values still go through the row's parse
_FLAGS = {
    "normalized": ("--unnormalized", {"action": "store_const", "const": "false"}),
    "pairs": ("--pair", {"action": "append", "metavar": "A:K=B:L"}),
}
_KEYS = sorted({row[0] for row in OPTIONS})


def resolve_options(command: str, args: argparse.Namespace) -> dict:
    """The values of `command`'s rows: flag > environment > config file > default."""
    file = read_config_file(args.config) if args.config else {}
    for key in file:
        if key not in _KEYS:  # a key of another command is fine: one file may serve several
            import difflib  # only on this error path: every command process imports this module

            close = difflib.get_close_matches(key, _KEYS, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise UsageError(f"{args.config}: unknown key {key!r}{hint}")
    values = {}
    for name, parse, commands, default, _ in OPTIONS:
        if command not in commands:
            continue
        flag = getattr(args, name)
        raw = ",".join(flag) if isinstance(flag, list) else flag  # a repeated flag
        if raw is None:
            raw = os.environ.get(ENV_PREFIX + name.upper(), file.get(name))
        if raw is None:
            values[name] = default
            continue
        try:
            values[name] = parse(raw)
        except ValueError:
            raise UsageError(f"bad value for {name!r}: {raw!r}") from None
    return values


def _build_config(opts: dict) -> SystemConfig:
    fields = ("eps_w", "eps_v", "lambda_cb", "theta", "threshold", "epochs", "normalized")
    try:
        return SystemConfig(**{name: opts[name] for name in fields})
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _load_probe(system: MemorySystem, path):
    pattern = load_pbm(path)
    if pattern.dim != system.config.dim:
        raise DimensionMismatch(
            f"{path}: {pattern.width}x{pattern.height} has {pattern.dim} pixels,"
            f" model dimension is {system.config.dim}"
        )
    return to_vector(pattern, normalized=system.config.normalized)


def _write_recalled(system: MemorySystem, vector, out) -> None:
    """Write a recalled vector as a square bitmap."""
    side = int(round(system.config.dim ** 0.5))
    if side * side != system.config.dim:
        raise UsageError(f"model dimension {system.config.dim} is not square; cannot write a bitmap")
    save_pbm(to_pattern(vector, side, side), out)


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def cmd_encode(args, opts: dict) -> int:
    matrix = qr.encode_label(args.label)
    pattern = qr.render(matrix, opts["scale"])
    save_pbm(pattern, args.out)
    print(
        f"wrote {args.out}: {pattern.width}x{pattern.height}, "
        f"{pattern.popcount()} dark pixels, mask {matrix.mask}"
    )
    return 0


def cmd_train(args, opts: dict) -> int:
    config = _build_config(opts)
    catalog_path = opts["catalog"]
    catalog = patterns.load_catalog(catalog_path) if catalog_path else patterns.default_catalog()
    if not len(catalog):
        raise CbrnError("no patterns: the catalog is empty")

    system = MemorySystem.from_catalog(catalog, config)
    print(f"{'ball':<10} {'neuron':>6} {'label':<14} {'E_final':>12} {'e_final':>12}")
    for group in catalog:
        for index, label in enumerate(group.labels):
            bitmap = qr.label_pattern(label, provider=opts["provider"], seed=opts["seed"])
            vector = to_vector(bitmap, normalized=config.normalized)
            w_report, v_report = system.store(group.name, index, vector)
            print(
                f"{group.name:<10} {index:>6} {label:<14} "
                f"{w_report.final_error:>12.6g} {v_report.final_error:>12.6g}"
            )
    store.save(system, args.out)
    stored = sum(ball.n for ball in system.balls.values())
    print(f"stored {stored} patterns in {len(system.balls)} balls -> {args.out}")
    return 0


def cmd_pair(args, opts: dict) -> int:
    if not opts["pairs"]:
        raise UsageError("no pairs given; use --pair A:K=B:L")
    system = store.load(args.model)
    print(f"{'direction':<24} {'eta_before':>12} {'eta_after':>12} {'u':>10}")
    for (ball_a, k), (ball_b, l) in opts["pairs"]:
        a = system.resolve_ball(ball_a)
        b = system.resolve_ball(ball_b)
        forward, backward = system.learn_cross_weights(a, k, b, l)
        for tag, report, u in (
            (f"{a}:{k} -> {b}:{l}", forward, system.links[a, b][k, l]),
            (f"{b}:{l} -> {a}:{k}", backward, system.links[b, a][l, k]),
        ):
            print(
                f"{tag:<24} {report.errors[0]:>12.6g} {report.final_error:>12.6g}"
                f" {u:>10.4f}"
            )
    out = args.out or args.model
    store.save(system, out)
    print(f"{len(system.trained_links())} directed links -> {out}")
    return 0


def cmd_recall(args, opts: dict) -> int:
    fmt, threshold = opts["format"], opts["threshold"]
    system = store.load(args.model)
    ball_id = system.resolve_ball(args.ball)
    probe = _load_probe(system, args.pattern)
    response = system.cue_response(ball_id, probe, threshold)

    if fmt == "csv":
        print("ball,neuron,label,q,fired")
    title = f"ball {ball_id}, threshold {response.threshold}"
    _print_q(system.balls[ball_id], response, fmt, f"{ball_id},", title)
    if fmt == "table":
        print(f"fired: {list(response.fired)}  argmax: {response.argmax}")

    if args.out:
        if not response.fired:
            raise NoRecognition(
                f"nothing fired at threshold {response.threshold}; not writing {args.out}"
            )
        _write_recalled(system, system.recall_forward(ball_id, response.argmax), args.out)
        print(f"wrote recalled pattern of {ball_id}:{response.argmax} -> {args.out}")
    return 0


def cmd_associate(args, opts: dict) -> int:
    fmt, threshold = opts["format"], opts["threshold"]
    system = store.load(args.model)
    from_ball = system.resolve_ball(args.from_ball)
    to_ball = system.resolve_ball(args.to_ball)
    probe = _load_probe(system, args.pattern)
    result = system.associate(from_ball, probe, to_ball, threshold)

    to_label = system.balls[to_ball].labels[result.target_neuron]
    if fmt == "csv":
        print("from_ball,from_neuron,to_ball,to_neuron,to_label,q")
        print(
            f"{from_ball},{result.source_neuron},{to_ball},{result.target_neuron},"
            f"{to_label},{float(result.q)!r}"
        )
    else:
        print(
            f"{from_ball}:{result.source_neuron} -> {to_ball}:{result.target_neuron}"
            f" ({to_label}), q = {result.q:.6f}"
        )

    if args.out:
        _write_recalled(system, result.recalled, args.out)
        print(f"wrote recalled pattern of {to_ball}:{result.target_neuron} -> {args.out}")
    return 0


def _print_q(ball, response, fmt: str, csv_prefix: str, title: str) -> None:
    """One line per neuron of a ball: label, q and whether it fired.

    CSV lines start with `csv_prefix`; a table starts with `title` and a
    column header.
    """
    if fmt == "csv":
        for i, value in enumerate(response.q):
            print(f"{csv_prefix}{i},{ball.labels[i]},{float(value)!r},{int(i in response.fired)}")
        return
    print(title)
    print(f"{'neuron':>6} {'label':<14} {'q':>14} fired")
    for i, value in enumerate(response.q):
        marks = "*" if i in response.fired else ""
        argmax = "  <- argmax" if i == response.argmax else ""
        print(f"{i:>6} {ball.labels[i]:<14} {value:>14.6f} {marks:<5}{argmax}")


def _report_probes(system: MemorySystem, probe_specs) -> list[tuple[str, int]]:
    if probe_specs:
        out = []
        for probe_text in probe_specs:
            ball, index = _parse_ref(probe_text, "probe")
            ball_id = system.resolve_ball(ball)
            if not 0 <= index < system.balls[ball_id].n:
                raise NeuronIndexError(f"probe index {index} out of range for {ball_id!r}")
            out.append((ball_id, index))
        return out
    defaults = []
    for position, ball_id in enumerate(system.balls):
        wanted = _DEFAULT_PROBE_NEURONS[position] if position < len(_DEFAULT_PROBE_NEURONS) else 0
        defaults.append((ball_id, min(wanted, system.balls[ball_id].n - 1)))
    return defaults


def cmd_report(args, opts: dict) -> int:
    fmt = opts["format"]
    if args.figure == 4 and args.probe:
        raise UsageError("--probe applies to figure 3 only")
    system = store.load(args.model)

    if args.figure == 3:
        probes = _report_probes(system, args.probe)
        if fmt == "csv":
            print("ball,probe_neuron,neuron,label,q,fired")
        for ball_id, index in probes:
            probe = system.recall_forward(ball_id, index)
            response = system.cue_response(ball_id, probe)
            ball = system.balls[ball_id]
            title = f"ball {ball_id}, probing stored pattern {index} ({ball.labels[index]})"
            _print_q(ball, response, fmt, f"{ball_id},{index},", title)
            if fmt == "table":
                print()
        return 0

    # figure 4: per ordered ball pair, the full source-neuron x target-neuron grid
    if fmt == "csv":
        print("from_ball,from_neuron,to_ball,to_neuron,q")
    ball_ids = list(system.balls)
    for a in ball_ids:
        for b in ball_ids:
            if a == b:
                continue
            n_a = system.balls[a].n
            if fmt == "csv":
                for k in range(n_a):
                    response = system.cross_response(a, k, b)
                    for l, value in enumerate(response.q):
                        print(f"{a},{k},{b},{l},{float(value)!r}")
            else:
                print(f"{a} -> {b} (rows: source neuron, columns: target neuron)")
                header = " ".join(f"{l:>8}" for l in range(system.balls[b].n))
                print(f"{'':>4} {header}")
                for k in range(n_a):
                    response = system.cross_response(a, k, b)
                    cells = " ".join(f"{value:>8.2f}" for value in response.q)
                    print(f"{k:>4} {cells}")
                print()
    if fmt == "table":
        theta = system.config.theta
        print(
            f"note: trained links respond at exactly theta ({theta:g}); untrained"
            " entries are 0. runs that normalize inexactly land just below theta"
            " and are not reproduced here."
        )
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbrn",
        description="Attribute-wise associative memory over QR-coded labels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="key = value option file")
        p.set_defaults(func=func)
        return p

    p = command("encode", cmd_encode, "encode a label as a pattern bitmap")
    p.add_argument("--label", required=True, help="text to encode")
    p.add_argument("--out", required=True, help="output PBM path")

    p = command("train", cmd_train, "store every catalog pattern into a fresh model")
    p.add_argument("--out", required=True, help="output model path")

    p = command("pair", cmd_pair, "train cross links between cue neurons")
    p.add_argument("--model", required=True, help="model file to update")
    p.add_argument("--out", help="write the updated model here instead of in place")

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

    for name, _, commands, default, help in OPTIONS:
        flag, kwargs = _FLAGS.get(name, ("--" + name.replace("_", "-"), {}))
        if default is not None:
            help = f"{help} (default: {default})"
        for name_of_command in commands:
            sub.choices[name_of_command].add_argument(flag, dest=name, help=help, **kwargs)
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
            return args.func(args, resolve_options(args.command, args))
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CbrnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
