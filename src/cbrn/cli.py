"""Command-line surface: encode patterns, train, pair, recall, associate, report.

Every option can also come from a `key = value` config file (--config) or an
environment variable with the CBRN_ prefix; explicit flags win over the
environment, which wins over the config file.  Exit codes are stable: 0 on
success, 2 for invalid usage or argument values, 3 for runtime failures
(I/O, malformed files, failed recognition).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

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
# Option resolution: flag > environment > config file > default.
# ---------------------------------------------------------------------------


def read_config_file(path) -> dict[str, str]:
    """Parse `key = value` lines; `#` comments and blank lines are ignored."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: byte {exc.start} is not UTF-8 text") from None
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, sep, value = body.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {body!r}")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


class Options:
    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.file = read_config_file(args.config) if getattr(args, "config", None) else {}

    def get(self, name: str, default=None, cast=str):
        flag = getattr(self.args, name, None)
        if flag is not None:
            return flag
        env = os.environ.get(ENV_PREFIX + name.upper())
        source, raw = ("environment", env) if env is not None else ("config file", self.file.get(name))
        if raw is None:
            return default
        try:
            return cast(raw)
        except (TypeError, ValueError):
            raise UsageError(f"bad value for {name!r} from {source}: {raw!r}") from None

    def get_bool(self, name: str, default: bool) -> bool:
        return self.get(name, default, cast=_parse_bool)


def _parse_bool(text) -> bool:
    if isinstance(text, bool):
        return text
    lowered = str(text).strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(text)


def _build_config(opts: Options) -> SystemConfig:
    try:
        return SystemConfig(
            eps_w=opts.get("eps_w", 1.0, float),
            eps_v=opts.get("eps_v", 1.0, float),
            lambda_cb=opts.get("lambda_cb", 1.0, float),
            theta=opts.get("theta", 100.0, float),
            threshold=opts.get("threshold", 72.0, float),
            epochs=opts.get("epochs", 1, int),
            normalized=not _unnormalized(opts),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _unnormalized(opts: Options) -> bool:
    if getattr(opts.args, "unnormalized", False):
        return True
    return not opts.get_bool("normalized", True)


def _parse_ref(text: str, what: str) -> tuple[str, int]:
    ball, sep, index = text.partition(":")
    if not sep or not ball:
        raise UsageError(f"bad {what} {text!r}, expected BALL:INDEX")
    try:
        return ball, int(index)
    except ValueError:
        raise UsageError(f"bad {what} index in {text!r}") from None


def _parse_pair(text: str) -> tuple[tuple[str, int], tuple[str, int]]:
    left, sep, right = text.partition("=")
    if not sep:
        raise UsageError(f"bad pair {text!r}, expected A:K=B:L")
    return _parse_ref(left, "pair"), _parse_ref(right, "pair")


def _output_format(opts: Options) -> str:
    fmt = opts.get("format", "table")
    if fmt not in ("table", "csv"):
        raise UsageError(f"unknown format {fmt!r}")
    return fmt


def _threshold_override(opts: Options) -> float | None:
    threshold = opts.get("threshold", None, float)
    if threshold is not None and not threshold > 0:  # also refuses nan
        raise UsageError(f"threshold must be positive, got {threshold}")
    return threshold


def _load_probe(system: MemorySystem, path):
    pattern = load_pbm(path)
    if pattern.dim != system.config.dim:
        raise DimensionMismatch(
            f"{path}: {pattern.width}x{pattern.height} has {pattern.dim} pixels,"
            f" model dimension is {system.config.dim}"
        )
    return to_vector(pattern, normalized=system.config.normalized)


def _pattern_shape(system: MemorySystem) -> tuple[int, int] | None:
    """Square side lengths for writing recalled vectors back out as bitmaps."""
    root = int(round(system.config.dim ** 0.5))
    if root * root == system.config.dim:
        return root, root
    return None


def _write_recalled(system: MemorySystem, vector, out) -> None:
    shape = _pattern_shape(system)
    if shape is None:
        raise UsageError(
            f"model dimension {system.config.dim} is not square; cannot write a bitmap"
        )
    save_pbm(to_pattern(vector, shape[0], shape[1]), out)


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def cmd_encode(args) -> int:
    opts = Options(args)
    scale = opts.get("scale", qr.DEFAULT_SCALE, int)
    if scale < 1:
        raise UsageError("scale must be >= 1")
    matrix = qr.encode_label(args.label)
    pattern = qr.render(matrix, scale)
    save_pbm(pattern, args.out)
    print(
        f"wrote {args.out}: {pattern.width}x{pattern.height}, "
        f"{pattern.popcount()} dark pixels, mask {matrix.mask}"
    )
    return 0


def cmd_train(args) -> int:
    opts = Options(args)
    config = _build_config(opts)
    provider = opts.get("provider", "qr")
    if provider not in PROVIDERS:
        raise UsageError(f"provider must be one of {PROVIDERS}, got {provider!r}")
    seed = opts.get("seed", 0, int)
    catalog_path = opts.get("catalog")
    catalog = patterns.load_catalog(catalog_path) if catalog_path else patterns.default_catalog()
    if not len(catalog):
        raise CbrnError("no patterns: the catalog is empty")

    system = MemorySystem.from_catalog(catalog, config)
    print(f"{'ball':<10} {'neuron':>6} {'label':<14} {'E_final':>12} {'e_final':>12}")
    for group in catalog:
        for index, label in enumerate(group.labels):
            bitmap = qr.label_pattern(label, provider=provider, seed=seed)
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


def cmd_pair(args) -> int:
    opts = Options(args)
    pair_specs = list(args.pair or [])
    if not pair_specs:
        listed = os.environ.get(ENV_PREFIX + "PAIRS", opts.file.get("pairs", ""))
        pair_specs = [p.strip() for p in listed.split(",") if p.strip()]
    if not pair_specs:
        raise UsageError("no pairs given; use --pair A:K=B:L")
    parsed = [_parse_pair(p) for p in pair_specs]

    system = store.load(args.model)
    print(f"{'direction':<24} {'eta_before':>12} {'eta_after':>12} {'u':>10}")
    for (ball_a, k), (ball_b, l) in parsed:
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


def cmd_recall(args) -> int:
    opts = Options(args)
    fmt, threshold = _output_format(opts), _threshold_override(opts)
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


def cmd_associate(args) -> int:
    opts = Options(args)
    fmt, threshold = _output_format(opts), _threshold_override(opts)
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


def cmd_report(args) -> int:
    fmt = _output_format(Options(args))
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

    def common(p):
        p.add_argument("--config", help="key = value option file")

    p = sub.add_parser("encode", help="encode a label as a pattern bitmap")
    common(p)
    p.add_argument("--label", required=True, help="text to encode")
    p.add_argument("--out", required=True, help="output PBM path")
    p.add_argument("--scale", type=int, help="pixels per module (default 4)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("train", help="store every catalog pattern into a fresh model")
    common(p)
    p.add_argument("--out", required=True, help="output model path")
    p.add_argument("--catalog", help="catalog file (default: bundled)")
    p.add_argument("--theta", type=float, help="learning value (default 100)")
    p.add_argument("--threshold", type=float, help="firing threshold (default 72)")
    p.add_argument("--eps-w", type=float, dest="eps_w", help="recall learning rate")
    p.add_argument("--eps-v", type=float, dest="eps_v", help="cue learning rate")
    p.add_argument("--lambda-cb", type=float, dest="lambda_cb", help="cross learning rate")
    p.add_argument("--epochs", type=int, help="updates per learn call (default 1)")
    p.add_argument("--unnormalized", action="store_true", help="present raw 0/1 vectors")
    p.add_argument("--provider", choices=PROVIDERS, help="pattern source (default qr)")
    p.add_argument("--seed", type=int, help="seed for the random provider")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("pair", help="train cross links between cue neurons")
    common(p)
    p.add_argument("--model", required=True, help="model file to update")
    p.add_argument("--pair", action="append", metavar="A:K=B:L", help="pair to link (repeatable)")
    p.add_argument("--out", help="write the updated model here instead of in place")
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("recall", help="present a pattern to one ball and show responses")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--ball", required=True, help="ball to probe")
    p.add_argument("--pattern", required=True, help="probe PBM file")
    p.add_argument("--threshold", type=float, help="override the firing threshold")
    p.add_argument("--out", help="write the argmax neuron's recalled pattern here")
    p.add_argument("--format", choices=("table", "csv"))
    p.set_defaults(func=cmd_recall)

    p = sub.add_parser("associate", help="recall a linked pattern in another ball")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--from", dest="from_ball", required=True, help="ball that sees the probe")
    p.add_argument("--pattern", required=True, help="probe PBM file")
    p.add_argument("--to", dest="to_ball", required=True, help="ball to recall from")
    p.add_argument("--threshold", type=float, help="override the firing threshold")
    p.add_argument("--out", help="write the recalled pattern here")
    p.add_argument("--format", choices=("table", "csv"))
    p.set_defaults(func=cmd_associate)

    p = sub.add_parser("report", help="response tables for stored or cross-linked patterns")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--figure", type=int, choices=(3, 4), required=True,
                   help="3: per-ball responses to stored probes; 4: cross-ball grids")
    p.add_argument("--probe", action="append", metavar="BALL:INDEX",
                   help="probe override for figure 3 (repeatable)")
    p.add_argument("--format", choices=("table", "csv"))
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage problems itself
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CbrnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
