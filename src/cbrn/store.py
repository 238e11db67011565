"""Save and load trained systems as CBRN1 text files.

The format is line-oriented and self-describing: configuration, labels,
weight rows, and cross links all travel together.  Floats are printed in
shortest round-trip decimal form and sections appear in a fixed order, so
the same system always serializes to identical bytes and a load followed by
a save reproduces the file exactly.  See docs/model-format.md for the
grammar.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    ModelFormatError,
    UnsupportedVersion,
)
from .memory import MemorySystem, SystemConfig

MAGIC = "CBRN1"

_CONFIG_KEYS = ("dim", "theta", "threshold", "eps_w", "eps_v", "lambda_cb", "epochs", "normalized")


def _fmt(x: float) -> str:
    return repr(float(x))


def dumps(system: MemorySystem) -> str:
    """Serialize a system to CBRN1 text."""
    cfg = system.config
    lines = [MAGIC]
    lines.append(f"dim {cfg.dim}")
    lines.append(f"theta {_fmt(cfg.theta)}")
    lines.append(f"threshold {_fmt(cfg.threshold)}")
    lines.append(f"eps_w {_fmt(cfg.eps_w)}")
    lines.append(f"eps_v {_fmt(cfg.eps_v)}")
    lines.append(f"lambda_cb {_fmt(cfg.lambda_cb)}")
    lines.append(f"epochs {cfg.epochs}")
    lines.append(f"normalized {'true' if cfg.normalized else 'false'}")
    for ball in system.balls.values():
        lines.append(f"ball {ball.id} {ball.n}")
        for i, label in enumerate(ball.labels):
            if "#" in label or "\n" in label:
                raise ValueError(f"label {label!r} cannot contain '#' or newlines")
            lines.append(f"label {i} {label}")
        for i in range(ball.n):
            lines.append("w " + str(i) + " " + " ".join(_fmt(x) for x in ball.w[i]))
        for i in range(ball.n):
            lines.append("v " + str(i) + " " + " ".join(_fmt(x) for x in ball.v[i]))
    for a, k, b, l, u in system.trained_links():
        lines.append(f"link {a} {k} {b} {l} {_fmt(u)}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def save(system: MemorySystem, path) -> None:
    """Write a system to disk."""
    Path(path).write_text(dumps(system), encoding="utf-8", newline="\n")


def _parse_row(rest: str, dim: int, n: int, what: str, lineno: int) -> tuple[int, np.ndarray]:
    parts = rest.split()
    if not parts:
        raise ModelFormatError(f"line {lineno}: {what} row needs an index")
    idx = _parse_int(parts[0], lineno, f"{what} row index")
    if not 0 <= idx < n:
        raise ModelFormatError(f"line {lineno}: {what} row index {idx} out of range")
    values = parts[1:]
    if len(values) != dim:
        raise DimensionMismatch(
            f"line {lineno}: {what} row has {len(values)} values, header dim is {dim}"
        )
    try:
        row = np.array([float(v) for v in values], dtype=np.float64)
    except ValueError:
        raise ModelFormatError(f"line {lineno}: malformed float in {what} row") from None
    if not np.isfinite(row).all():
        raise ModelFormatError(f"line {lineno}: non-finite value in {what} row")
    return idx, row


def _rows(section, what: str, dim: int, n: int):
    """Parse the (index, row) pairs of a ball's w or v rows, one line at a time."""
    for lineno, body in section:
        kind, _, tail = body.partition(" ")
        if kind != what:
            raise ModelFormatError(f"line {lineno}: expected {what} row, got {kind!r}")
        yield _parse_row(tail, dim, n, what, lineno)


def _where(lineno: int) -> str:
    return f"line {lineno}: " if lineno else ""


def _parse_int(text: str, lineno: int, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ModelFormatError(f"{_where(lineno)}{what} {text!r} is not an integer") from None


def _parse_float(text: str, lineno: int, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ModelFormatError(f"{_where(lineno)}{what} {text!r} is not a number") from None
    if not math.isfinite(value):
        raise ModelFormatError(f"{_where(lineno)}{what} {text!r} is not finite")
    return value


def loads(text: str) -> MemorySystem:
    """Parse CBRN1 text into a system."""
    lines = text.splitlines()
    if not lines or lines[0].split("#", 1)[0].strip() != MAGIC:
        found = lines[0].strip() if lines else "<empty>"
        raise UnsupportedVersion(f"bad magic {found!r}, expected {MAGIC}")

    header: dict[str, str] = {}
    meaningful = []
    for lineno, raw in enumerate(lines[1:], start=2):
        body = raw.split("#", 1)[0].strip()
        if body:
            meaningful.append((lineno, body))

    for lineno, body in meaningful[: len(_CONFIG_KEYS)]:
        key, _, value = body.partition(" ")
        if key not in _CONFIG_KEYS:
            raise ModelFormatError(f"line {lineno}: expected a config key, got {key!r}")
        header[key] = value.strip()
    missing = [k for k in _CONFIG_KEYS if k not in header]
    if missing:
        raise ModelFormatError(f"truncated header: missing {missing[0]!r}")

    if header["normalized"] not in ("true", "false"):
        raise ModelFormatError(f"normalized must be true or false, got {header['normalized']!r}")
    try:
        config = SystemConfig(
            dim=_parse_int(header["dim"], 0, "dim"),
            theta=_parse_float(header["theta"], 0, "theta"),
            threshold=_parse_float(header["threshold"], 0, "threshold"),
            eps_w=_parse_float(header["eps_w"], 0, "eps_w"),
            eps_v=_parse_float(header["eps_v"], 0, "eps_v"),
            lambda_cb=_parse_float(header["lambda_cb"], 0, "lambda_cb"),
            epochs=_parse_int(header["epochs"], 0, "epochs"),
            normalized=header["normalized"] == "true",
        )
    except ValueError as exc:
        raise ModelFormatError(f"inconsistent header: {exc}") from None
    system = MemorySystem(config)

    # ball sections: "ball <id> <n>", then n labels, n w rows, n v rows
    rest = meaningful[len(_CONFIG_KEYS):]
    i = 0
    ended = False
    while i < len(rest):
        lineno, body = rest[i]
        op, _, tail = body.partition(" ")
        if op == "end":
            ended = True
            if rest[i + 1 :]:
                raise ModelFormatError(f"line {lineno}: content after end marker")
            break
        if op == "link":
            parts = tail.split()
            if len(parts) != 5:
                raise ModelFormatError(f"line {lineno}: link needs 'a k b l u'")
            a, k, b, l = parts[0], _parse_int(parts[1], lineno, "k"), parts[2], _parse_int(parts[3], lineno, "l")
            u = _parse_float(parts[4], lineno, "link weight")
            for bid in (a, b):
                if bid not in system.balls:
                    raise ModelFormatError(f"line {lineno}: link references unknown ball {bid!r}")
            if a == b:
                raise ModelFormatError(f"line {lineno}: link stays within ball {a!r}")
            for bid, idx in ((a, k), (b, l)):
                if not 0 <= idx < system.balls[bid].n:
                    raise ModelFormatError(f"line {lineno}: link index {idx} out of range for {bid!r}")
            if u == 0.0:
                raise ModelFormatError(f"line {lineno}: zero link weight; a zero weight is no link")
            weights = system.links[a, b]
            if weights[k, l] != 0.0:
                raise ModelFormatError(f"line {lineno}: duplicate link {a} {k} {b} {l}")
            weights[k, l] = u
            i += 1
            continue
        if op != "ball":
            raise ModelFormatError(f"line {lineno}: expected ball, link or end, got {op!r}")
        parts = tail.split()
        if len(parts) != 2:
            raise ModelFormatError(f"line {lineno}: ball needs 'ball <id> <n>'")
        ball_id = parts[0]
        n = _parse_int(parts[1], lineno, "ball size")
        if n < 1:
            raise ModelFormatError(f"line {lineno}: ball size must be positive")
        section = rest[i + 1 : i + 1 + 3 * n]
        if len(section) < 3 * n:
            raise ModelFormatError(f"ball {ball_id!r}: truncated section")
        labels = [None] * n
        for lno, lbody in section[:n]:
            kind, _, ltail = lbody.partition(" ")
            if kind != "label":
                raise ModelFormatError(f"line {lno}: expected label row, got {kind!r}")
            idx_text, _, label_text = ltail.partition(" ")
            idx = _parse_int(idx_text, lno, "label index")
            if not 0 <= idx < n or labels[idx] is not None:
                raise ModelFormatError(f"line {lno}: bad or repeated label index {idx}")
            labels[idx] = label_text
        if ball_id in system.balls:
            raise ModelFormatError(f"duplicate ball section {ball_id!r}")
        w_rows = _rows(section[n : 2 * n], "w", config.dim, n)
        # the first row is checked against the header dim before (n, dim) arrays exist
        first = next(w_rows)
        ball = system.add_ball(ball_id, labels)
        for idx, row in itertools.chain([first], w_rows):
            ball.w[idx] = row
        for idx, row in _rows(section[2 * n : 3 * n], "v", config.dim, n):
            ball.v[idx] = row
        i += 1 + 3 * n
    if not ended:
        raise ModelFormatError("truncated file: missing end marker")
    return system


def load(path) -> MemorySystem:
    """Read a system from disk."""
    return loads(Path(path).read_text(encoding="utf-8"))
