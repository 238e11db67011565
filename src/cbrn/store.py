"""Save and load trained systems as CBRN1 text files.

The format is line-oriented and self-describing: configuration, labels,
weight rows, and cross links all travel together.  Floats are printed in
shortest round-trip decimal form and sections appear in a fixed order, so
the same system always serializes to identical bytes and a load followed by
a save reproduces the file exactly.  See docs/model-format.md for the
grammar.

A weight row holds few distinct values (a one-shot-stored row holds two), so
both directions work per distinct value: a row is printed with one `repr`
per distinct bit pattern, and `loads` calls `float` once per distinct token
of a file.  `save` streams the lines to a temporary file beside the target
and then renames it over the target, so the whole text is never held in
memory and a save that fails leaves an existing file as it was.
"""

from __future__ import annotations

import math
import os
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


def _fmt_row(row: np.ndarray) -> str:
    """The values of a row as space-separated shortest round-trip decimals.

    `repr` runs once per distinct value.  Values are told apart by bit
    pattern, so -0.0 and 0.0 keep their own spellings.  (A sort and a
    search find them: `np.unique` with `return_inverse` takes about ten
    times as long on a row of few distinct values.)
    """
    bits = np.ascontiguousarray(row, np.float64).view(np.uint64)
    ordered = np.sort(bits)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    words = np.array([repr(x) for x in distinct.view(np.float64).tolist()], dtype=object)
    return " ".join(words[np.searchsorted(distinct, bits)].tolist())


def _lines(system: MemorySystem):
    """The CBRN1 text of a system: the header, then one line per record.

    Every label is checked before the header is produced, so a caller that
    takes the header before opening its output opens nothing for a system
    that cannot be saved.
    """
    for ball in system.balls.values():
        for label in ball.labels:
            # any break `str.splitlines` splits at ("\r", "\x85", ...) would split the record
            if "#" in label or "".join(label.splitlines()) != label:
                raise ValueError(f"label {label!r} cannot contain '#' or line breaks")
    cfg = system.config
    yield (
        f"{MAGIC}\n"
        f"dim {cfg.dim}\n"
        f"theta {_fmt(cfg.theta)}\n"
        f"threshold {_fmt(cfg.threshold)}\n"
        f"eps_w {_fmt(cfg.eps_w)}\n"
        f"eps_v {_fmt(cfg.eps_v)}\n"
        f"lambda_cb {_fmt(cfg.lambda_cb)}\n"
        f"epochs {cfg.epochs}\n"
        f"normalized {'true' if cfg.normalized else 'false'}\n"
    )
    for ball in system.balls.values():
        yield f"ball {ball.id} {ball.n}\n"
        for i, label in enumerate(ball.labels):
            yield f"label {i} {label}\n"
        for kind, rows in (("w", ball.w), ("v", ball.v)):
            for i, row in enumerate(rows):
                yield f"{kind} {i} {_fmt_row(row)}\n"
    for a, k, b, l, u in system.trained_links():
        yield f"link {a} {k} {b} {l} {_fmt(u)}\n"
    yield "end\n"


def dumps(system: MemorySystem) -> str:
    """Serialize a system to CBRN1 text."""
    return "".join(_lines(system))


def save(system: MemorySystem, path) -> None:
    """Write a system to disk.

    The lines go to a temporary file in the target's directory, which then
    replaces the target: an existing file at `path` is either replaced by
    the complete new text or left untouched.
    """
    lines = _lines(system)
    header = next(lines)  # raises for a label that cannot be saved, before any file is opened
    path = Path(path)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(partial, "w", encoding="utf-8", newline="\n") as out:
            out.write(header)
            out.writelines(lines)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


class _FloatMemo(dict):
    """Token -> float for one file; `float` runs once per distinct token."""

    def __missing__(self, token: str) -> float:
        value = self[token] = float(token)
        return value


def _parse_row(
    rest: str, dim: int, n: int, what: str, lineno: int, floats: _FloatMemo
) -> tuple[int, np.ndarray]:
    parts = rest.split(None, 1)
    if not parts:
        raise ModelFormatError(f"line {lineno}: {what} row needs an index")
    idx = _parse_int(parts[0], lineno, f"{what} row index")
    if not 0 <= idx < n:
        raise ModelFormatError(f"line {lineno}: {what} row index {idx} out of range")
    values = parts[1].split() if len(parts) > 1 else []
    if len(values) != dim:
        raise DimensionMismatch(
            f"line {lineno}: {what} row has {len(values)} values, header dim is {dim}"
        )
    try:
        row = np.fromiter(map(floats.__getitem__, values), np.float64, dim)
    except ValueError:
        raise ModelFormatError(f"line {lineno}: malformed float in {what} row") from None
    if not np.isfinite(row).all():
        raise ModelFormatError(f"line {lineno}: non-finite value in {what} row")
    return idx, row


def _rows(section, what: str, dim: int, n: int, floats: _FloatMemo):
    """Parse the (index, row) pairs of a ball's w or v rows, one line at a time."""
    for lineno, body in section:
        kind, _, tail = body.partition(" ")
        if kind != what:
            raise ModelFormatError(f"line {lineno}: expected {what} row, got {kind!r}")
        yield _parse_row(tail, dim, n, what, lineno, floats)


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
    floats = _FloatMemo()
    last_link: tuple = ()
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
            # strictly increasing keys: the canonical order, and no key twice
            if (a, k, b, l) <= last_link:
                raise ModelFormatError(
                    f"line {lineno}: duplicate link or link out of order: {a} {k} {b} {l};"
                    " links must be strictly sorted by (from-ball, k, to-ball, l)"
                )
            last_link = (a, k, b, l)
            system.links[a, b][k, l] = u
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
        w_rows = _rows(section[n : 2 * n], "w", config.dim, n, floats)
        # the first row is checked against the header dim before (n, dim) arrays exist
        idx, row = next(w_rows)
        ball = system.add_ball(ball_id, labels)
        ball.w[idx] = row
        for idx, row in w_rows:
            ball.w[idx] = row
        for idx, row in _rows(section[2 * n : 3 * n], "v", config.dim, n, floats):
            ball.v[idx] = row
        i += 1 + 3 * n
    if not ended:
        raise ModelFormatError("truncated file: missing end marker")
    return system


def load(path) -> MemorySystem:
    """Read a system from disk."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{path}: byte {exc.start} is not UTF-8 text") from None
    return loads(text)
