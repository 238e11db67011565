"""Save and load trained systems as CBRN1 text files.

The format is line-oriented and self-describing: configuration, labels,
weight rows, and cross links all travel together.  The header is `dim`,
the one `SystemConfig` field, then the constant lines of `_CONSTANT`, which
a load compares as text; lines and comments follow `patterns.records`.
Floats are printed in shortest round-trip decimal form and records appear
in one fixed order, so the same system always serializes to identical bytes.
`loads` reads the records in one forward pass and accepts them only in the
order `dumps` writes them, so a re-save of any file that loads reproduces
every record in order; only comments, blank lines, spacing and number
spellings are normalised.  See docs/model-format.md for the grammar.

A weight row holds few distinct values (a one-shot-stored row holds two), so
both directions work per distinct value: a row is printed with one `repr`
per distinct bit pattern, and `loads` finds a row's tokens in its bytes with
NumPy, groups runs of equal neighbours and then equal runs, and calls `float`
once per distinct token of the row (there is no memo across rows), so no
Python object is made per value; the NumPy work arrays serve every row of a
load.  `loads` reads a str as its UTF-8 bytes, or the file `load` opens with
a `CHUNK_BYTES` read buffer, a line at a time: a load from a file holds the
weights plus that buffer and one line.  A row as `save` writes it is parsed
from its bytes, other lines are decoded first; `load` names the file in each error.
`save` streams the lines to a temporary file beside the target and then
renames it over the target, so the whole text is never held in memory and a
save that fails leaves an existing file as it was.
"""

from __future__ import annotations

import io
import math
import os
import re
from pathlib import Path

import numpy as np

from . import patterns
from .errors import (
    CbrnError,
    DimensionMismatch,
    ModelFormatError,
    UnsupportedVersion,
)
from .memory import THETA, THRESHOLD, MemorySystem, SystemConfig

MAGIC = "CBRN1"
# the read buffer of a model load: loading the demo model, 1 MiB cost 0.7 MB
# more peak RSS and more page faults, and Python's default 8 KiB about 7 ms
CHUNK_BYTES = 1 << 18
_SURROGATE = re.compile("[\ud800-\udfff]").search  # finds a lone surrogate, which has no UTF-8 form

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

    Every ball id and label is checked before the header is produced, so a
    caller that takes the header before opening its output opens nothing for
    a system that cannot be saved.
    """
    for ball in system.balls.values():
        # a load splits the `ball` record at whitespace and cuts it at `#`
        if ball.id.split() != [ball.id] or "#" in ball.id or _SURROGATE(ball.id):
            raise ValueError(f"ball id {ball.id!r} cannot be empty or contain '#', whitespace or lone surrogates")
        for label in ball.labels:
            # any break `str.splitlines` splits at ("\r", "\x85", ...) would split the
            # record, and a load strips whitespace off the end of each line
            if "#" in label or "".join(label.splitlines()) != label or label != label.rstrip() or _SURROGATE(label):
                raise ValueError(f"label {label!r} cannot contain '#', line breaks or lone surrogates, or end in whitespace")
    yield "".join(line + "\n" for line in (MAGIC, f"dim {system.config.dim}", *_CONSTANT))
    for ball in system.balls.values():
        yield f"ball {ball.id} {ball.n}\n"
        for i, label in enumerate(ball.labels):
            yield f"label {i} {label}\n"
        for i in range(ball.n):
            yield f"w {i} {_fmt_row(ball.recall_row(i))}\n"
        for i in range(ball.n):
            yield f"v {i} {_fmt_row(ball.cue_row(i))}\n"
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
    except BaseException as exc:
        partial.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.errno:  # name the target, not the temporary file
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        raise


_EOF = (0, "", "")  # what `next(records, _EOF)` returns past the last record


def _misplaced(lineno: int, expected: str, found: str) -> ModelFormatError:
    if not lineno:
        return ModelFormatError(f"truncated file: expected {expected}")
    return ModelFormatError(f"line {lineno}: expected {expected}, got {found!r}")


def _take(records, word: str, index: int | None = None) -> tuple[int, str]:
    """The next record, which must be a `word` record (row `index` of its
    block, if given): its line number and the text after the word."""
    lineno, found, rest = next(records, _EOF)
    if found != word:
        raise _misplaced(lineno, repr(word if index is None else f"{word} {index}"), found)
    return lineno, rest


def _check_index(number: str, index: int, word: str, lineno: int) -> None:
    if _parse_int(number, lineno, f"{word} index") != index:
        raise _misplaced(lineno, f"'{word} {index}'", f"{word} {number}")


# a token is keyed by its length and its first 24 bytes, which hold every
# `repr` of a double (the longest is -2.2250738585072014e-308), read as three
# little-endian words; _MASKS[k][length] keeps the token's bytes of word k
_KEY_BYTES = 24
_MASKS = np.array([[(1 << 8 * min(max(length - 8 * k, 0), 8)) - 1 for length in range(_KEY_BYTES + 1)]
                   for k in range(_KEY_BYTES // 8)], np.uint64)
_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd (2**64 over the golden ratio), so each multiply mixes without loss
_GATHER = 2048  # tokens whose keys are gathered at a time: the copy a gather makes stays small


def _at_least(buffer: np.ndarray, size: int) -> np.ndarray:
    """`buffer` if it holds `size` items, else a new one of at least twice its length."""
    return buffer if len(buffer) >= size else np.empty(max(size, 2 * len(buffer)), buffer.dtype)


class _RowReader:
    """Reads the `w` and `v` rows of one load, every row into the same work arrays.

    Arrays made anew for each row would be freed at the row's end, and while
    glibc's trim threshold is low, as it is in a process that has not yet
    freed a large block, it hands them back to the system and the next row
    faults them in again.
    """

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self.padded = np.empty(0, np.uint8)  # a row's bytes, then the zeros its last key reads
        self.gap = np.empty(0, bool)
        self.edge = np.empty(0, bool)
        self.row = None  # the arrays of one item per value are made at the first row that has `dim` values

    def take(self, records, word: str, index: int) -> np.ndarray:
        """The next record, which must be row `index` of a ball's `w` or `v` block.

        The row returned is overwritten by the next call.
        """
        lineno, data = _take(records, word, index)
        if isinstance(data, str):  # else a view of the bytes of a row `_is_row` kept
            # `str.split` also splits at `\t`, `\x1f` and the Unicode spaces; single spaces then separate the values
            data = " ".join(data.split()).encode()
        starts, ends = self._tokens(data)
        _check_index(str(data[starts[0]:ends[0]], "utf-8") if len(starts) else "", index, word, lineno)
        if (count := len(starts) - 1) != self.dim:
            raise DimensionMismatch(f"line {lineno}: {word} row has {count} values, header dim is {self.dim}")
        try:
            row = self._floats(data, starts[1:], ends[1:])
        except ValueError:
            raise ModelFormatError(f"line {lineno}: malformed float in {word} row") from None
        if not np.isfinite(row).all():
            raise ModelFormatError(f"line {lineno}: non-finite value in {word} row")
        return row

    def _tokens(self, data) -> tuple[np.ndarray, np.ndarray]:
        """The start and end offsets of the tokens of `data`, which spaces separate."""
        size = len(data)
        self.padded = _at_least(self.padded, size + _KEY_BYTES)
        raw = self.padded[:size]
        raw[:] = np.frombuffer(data, np.uint8)
        self.padded[size:size + _KEY_BYTES] = 0
        self.gap = _at_least(self.gap, size + 2)
        gap = self.gap[:size + 2]  # with a gap before and after the row
        gap[0] = gap[-1] = True
        np.equal(raw, ord(" "), out=gap[1:-1])
        self.edge = _at_least(self.edge, size + 1)
        edges = np.flatnonzero(np.not_equal(gap[1:], gap[:-1], out=self.edge[:size + 1]))
        return edges[::2], edges[1::2]  # token starts and ends alternate

    def _floats(self, data, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """`float` of each token of `data`, run once per group of equal tokens.

        A run of equal neighbours starts wherever a token's key differs from
        the previous token's.  The first tokens of the runs are sorted by a hash
        of their key, whose low bits are replaced by the token's index so that
        an in-place sort gives the order, and a new group starts wherever the
        key differs from the previous one's.  A hash collision can split one
        group in two, which costs a `float` call but never gives a wrong value.
        A token longer than the key's 24 bytes is a run and a group of its own.
        """
        count = len(starts)
        if self.row is None:
            self.words = np.empty((_KEY_BYTES // 8, count), np.uint64)
            self.lengths, self.capped, self.runs, self.order, self.groups = (np.empty(count, np.int64) for _ in range(5))
            self.mixed, self.scratch = np.empty(count, np.uint64), np.empty(count, np.uint64)
            self.new, self.differ = np.empty(count, bool), np.empty(count - 1, bool)
            self.spread, self.row = np.empty(count + 1), np.empty(count)
        lengths = np.subtract(ends, starts, out=self.lengths)
        capped = np.minimum(lengths, _KEY_BYTES, out=self.capped)
        # the 24 bytes from each start, as unaligned records over the padded row, gathered a block at a time
        windows = np.ndarray((len(data) + 1,), f"V{_KEY_BYTES}", self.padded, strides=(1,))
        words = self.words
        for i in range(0, count, _GATHER):
            words[:, i:i + _GATHER] = windows[starts[i:i + _GATHER]].view("<u8").reshape(-1, len(words)).T
        # every index is in range; "clip" only keeps `take` from copying into a buffer before `out`
        for word, masks in zip(words, _MASKS):
            word &= np.take(masks, capped, out=self.scratch, mode="clip")
        long = np.flatnonzero(lengths > _KEY_BYTES)
        words[0, long] = long  # a token longer than the key: its index stands in for its first key word
        keys = lengths.view(np.uint64), *words
        new = self.new
        new[:] = False
        new[0] = True
        for key in keys:
            new[1:] |= np.not_equal(key[1:], key[:-1], out=self.differ)
        heads = np.flatnonzero(new)  # the first token of each run
        runs = np.cumsum(new, out=self.runs)  # each token's run: 1 for the first, 2 for the next, ...
        n = len(heads)
        mixed = self.mixed[:n]
        mixed[:] = 0
        for key in keys:
            mixed ^= np.take(key, heads, out=self.scratch[:n], mode="clip")
            mixed *= _MIX
        low = np.uint64((1 << count.bit_length()) - 1)  # the low bits that hold any index
        mixed &= ~low
        mixed |= heads.view(np.uint64)
        mixed.sort()
        order = self.order[:n]
        np.bitwise_and(mixed, low, out=order.view(np.uint64))
        new = new[:n]  # now for the groups; the first token starts a run and a group
        new[1:] = False
        for key in keys:
            ordered = np.take(key, order, out=self.scratch[:n], mode="clip")
            new[1:] |= np.not_equal(ordered[1:], ordered[:-1], out=self.differ[:n - 1])
        firsts = order[new]
        values = [float(str(data[s:e], "utf-8")) for s, e in zip(starts[firsts].tolist(), ends[firsts].tolist())]
        groups = np.cumsum(new, out=self.groups[:n])  # 1 in the first group, 2 in the next, ...
        self.spread[runs[order]] = np.take(np.array([0.0, *values]), groups, mode="clip")  # each run's value
        return np.take(self.spread, runs, out=self.row, mode="clip")


def _parse_int(text: str, lineno: int, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ModelFormatError(f"line {lineno}: {what} {text!r} is not an integer") from None


def _parse_float(text: str, lineno: int, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ModelFormatError(f"line {lineno}: {what} {text!r} is not a number") from None
    if not math.isfinite(value):
        raise ModelFormatError(f"line {lineno}: {what} {text!r} is not finite")
    return value


# the header's lines after `dim`, written verbatim: theta and D are the model's
# constants, and one learning step at rate 1 on unit-energy vectors is the only
# training this program does; they go with CBRN1
_CONSTANT = (f"theta {_fmt(THETA)}", f"threshold {_fmt(THRESHOLD)}",
             "eps_w 1.0", "eps_v 1.0", "lambda_cb 1.0", "epochs 1", "normalized true")


def _load_ball(system: MemorySystem, records, reader: _RowReader, lineno: int, rest: str) -> None:
    """Read the section a `ball <id> <n>` record opens: n labels, n w rows, n v rows."""
    parts = rest.split()
    if len(parts) != 2:
        raise ModelFormatError(f"line {lineno}: ball needs 'ball <id> <n>'")
    ball_id, n = parts[0], _parse_int(parts[1], lineno, "ball size")
    if n < 1:
        raise ModelFormatError(f"line {lineno}: ball size must be positive")
    if ball_id in system.balls:
        raise ModelFormatError(f"line {lineno}: duplicate ball section {ball_id!r}")
    labels = []
    for i in range(n):
        lineno, rest = _take(records, "label", i)
        number, _, label = rest.partition(" ")
        _check_index(number, i, "label", lineno)
        labels.append(label)
    # the first row is checked against the header dim before the ball's rows are allocated
    first = reader.take(records, "w", 0)
    ball = system.add_ball(ball_id, labels)
    ball.set_recall_row(0, first)
    for i in range(1, n):
        ball.set_recall_row(i, reader.take(records, "w", i))
    for i in range(n):
        ball.set_cue_row(i, reader.take(records, "v", i))


def _is_row(line: bytes) -> bool:
    """Whether a line of a file is a `w` or `v` row as `save` writes it: ASCII, with no `#` and no control byte before its `\\n`."""
    return (line[:2] in (b"w ", b"v ") and line.isascii() and b"#" not in line
            and np.frombuffer(line, np.uint8, len(line) - line.endswith(b"\n")).min() >= ord(" "))


def loads(text) -> MemorySystem:
    """Parse CBRN1 text into a system; `text` is a str, read as its UTF-8 bytes, or a binary file as `load` opens it.

    One forward pass takes the records in the order `_lines` writes them:
    the magic, the header keys, each ball's section, the links, `end`.  A
    record out of place is an error that names the record expected there.
    A line is taken only when the pass reaches it, so the first fault in file
    order is the one reported; a lone surrogate in a str is a byte that is not UTF-8.
    """
    file = io.BytesIO(text.encode("utf-8", "surrogatepass")) if isinstance(text, str) else text
    del text  # a caller that keeps no reference to the text frees it here
    lines = patterns.utf8_lines(file, ModelFormatError, _is_row)
    first = next(lines, None)
    first = first.decode() if isinstance(first, bytes) else first  # a row kept as bytes, in the magic's place
    if first is None or first.partition("#")[0].strip() != MAGIC:
        found = "<empty>" if first is None else first.strip()
        raise UnsupportedVersion(f"bad magic {found!r}, expected {MAGIC}")
    # (line number, first word, rest) of each record after the magic; a row kept as bytes gives a view of its rest
    records = ((lineno, *body.partition(" ")[::2]) if isinstance(body, str)
               else (lineno, chr(body[0]), memoryview(body)[2:len(body) - body.endswith(b"\n")])
               for lineno, body in patterns.records(lines, 2))
    lineno, value = _take(records, "dim")
    dim = _parse_int(value.strip(), lineno, "dim")
    for line in _CONSTANT:
        key = line.split()[0]
        lineno, value = _take(records, key)
        found = f"{key} {value.strip()}"
        if found != line:
            raise ModelFormatError(f"line {lineno}: {found}: this program writes only '{line}'; retrain the model")
    try:
        system = MemorySystem(SystemConfig(dim))
    except ValueError as exc:
        raise ModelFormatError(f"inconsistent header: {exc}") from None

    reader = _RowReader(system.config.dim)
    lineno, word, rest = next(records, _EOF)
    while word == "ball":
        _load_ball(system, records, reader, lineno, rest)
        lineno, word, rest = next(records, _EOF)
    last_link: tuple = ()
    while word == "link":
        parts = rest.split()
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
        system._link_array(a, b)[k, l] = u
        lineno, word, rest = next(records, _EOF)
    if word != "end":
        raise _misplaced(lineno, "'link' or 'end'" if last_link else "'ball', 'link' or 'end'", word)
    if rest:
        raise ModelFormatError(f"line {lineno}: end marker takes no arguments")
    extra = next(records, None)
    if extra:
        raise ModelFormatError(f"line {extra[0]}: content after end marker")
    return system


def load(path) -> MemorySystem:
    """Read a system from disk; every error names the file.  Holds the weights, a `CHUNK_BYTES` read buffer and one line of text."""
    try:
        with open(path, "rb", buffering=CHUNK_BYTES) as file:
            return loads(file)
    except CbrnError as exc:
        raise type(exc)(f"{path}: {exc}") from None
