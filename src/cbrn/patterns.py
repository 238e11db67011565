"""Bitmap patterns, their presentation vectors, and the attribute catalog.

A pattern is a rectangular grid of dark (1) / light (0) pixels.  Before being
presented to the Recall Net it is flattened row-major into a float vector
scaled so its squared components sum to one (`normalize`).  Patterns
round-trip to disk as plain PBM, and the catalog maps attribute groups to
ordered label lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import (
    CatalogError,
    DegeneratePattern,
    DimensionMismatch,
    DuplicateEntry,
    PbmFormatError,
)


def utf8_lines(file, error, raw=lambda piece: False):
    """The lines of UTF-8 text in a binary file as `str.splitlines` splits them, holding the read buffer and one line.

    A binary file's lines end at `\\n`, which no multi-byte character holds,
    and each is decoded and split on its own: a `\\r\\n` ends one whole and
    every other break `str.splitlines` knows lies inside one, so the lines
    are those of the whole text.  A byte that is not UTF-8 raises
    `error("byte N is not UTF-8 text")`, N its offset in the file, when the line
    that holds it is reached.  A line for which `raw(line)` holds, which must
    hold no break before its `\\n`, is given as it is, undecoded bytes.
    """
    offset = 0  # of `piece`, in the file
    for piece in file:
        try:
            lines = [piece] if raw(piece) else piece.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise error(f"byte {offset + exc.start} is not UTF-8 text") from None
        yield from lines
        offset += len(piece)


def records(lines, start: int = 1):
    """(line number, body) of each non-blank body: a line's text before any `#`, stripped; a bytes line is its own body.

    Lines are numbered from `start`.
    """
    return ((lineno, body) for lineno, line in enumerate(lines, start)
            if (body := line if isinstance(line, bytes) else line.partition("#")[0].strip()))


class BinaryPattern:
    """Dark/light pixel grid; dark pixels are 1."""

    def __init__(self, bits) -> None:
        bits = np.ascontiguousarray(bits, dtype=np.uint8)
        if bits.ndim != 2:
            raise DimensionMismatch(f"pattern bits must be 2-D, got {bits.ndim}-D")
        if not bits.size:
            raise DimensionMismatch(f"pattern bits must hold at least one pixel, got shape {bits.shape}")
        if bits.max() > 1:
            raise ValueError("pattern bits must be 0 or 1")
        bits.setflags(write=False)
        self.bits = bits

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def dim(self) -> int:
        return self.bits.size

    def popcount(self) -> int:
        """Number of dark pixels."""
        return int(np.count_nonzero(self.bits))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryPattern):
            return NotImplemented
        return self.bits.shape == other.bits.shape and bool(
            np.array_equal(self.bits, other.bits)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"BinaryPattern({self.width}x{self.height}, dark={self.popcount()})"


def normalize(pattern: BinaryPattern) -> np.ndarray:
    """Unit-energy presentation vector: every dark pixel becomes 1/sqrt(popcount).

    The squared components then sum to one, which is what makes a single
    cue-weight update land exactly on the learning value.
    """
    dark = pattern.popcount()
    if dark == 0:
        raise DegeneratePattern("cannot normalize an all-light pattern")
    # a pixel is 0 or 1, so the product with the correctly rounded 1/sqrt is
    # the quotient bits / sqrt, bit for bit, and a multiply is cheaper
    return np.multiply(pattern.bits.reshape(-1), 1.0 / math.sqrt(dark), dtype=np.float64)


def to_pattern(vector: np.ndarray, width: int, height: int) -> BinaryPattern:
    """Threshold a recalled vector at half its peak to regenerate the bitmap.

    Exact for one-shot-stored patterns, whose recalled components are either
    zero or a single positive level.
    """
    v = np.asarray(vector, dtype=np.float64).reshape(-1)
    if v.size != width * height:
        raise DimensionMismatch(
            f"vector has {v.size} components, expected {width}x{height}"
        )
    peak = float(v.max()) if v.size else 0.0
    if peak <= 0.0:
        raise DegeneratePattern("recalled vector has no positive component")
    return BinaryPattern((v >= peak / 2).astype(np.uint8).reshape(height, width))


# ---------------------------------------------------------------------------
# Plain PBM (P1) round trip.
# ---------------------------------------------------------------------------


def save_pbm(pattern: BinaryPattern, path) -> None:
    """Write a pattern as plain PBM: magic P1, dimensions, one pixel row per line."""
    body = np.full((pattern.height, 2 * pattern.width), ord(" "), dtype=np.uint8)
    body[:, 0::2] = pattern.bits + ord("0")  # each pixel's digit, then a space or the newline
    body[:, -1:] = ord("\n")
    Path(path).write_bytes(f"P1\n{pattern.width} {pattern.height}\n".encode("ascii") + body.tobytes())


def load_pbm(path) -> BinaryPattern:
    """Read a plain PBM file."""
    text = Path(path).read_text(encoding="ascii", errors="replace")  # a non-ASCII byte is harmless in a comment
    tokens = [token for _, body in records(text.splitlines()) for token in body.split()]
    if not tokens or tokens[0] != "P1":
        magic = tokens[0] if tokens else "<empty>"
        raise PbmFormatError(f"{path}: bad magic {magic!r}, expected P1")
    try:
        width, height = int(tokens[1]), int(tokens[2])
    except (IndexError, ValueError):
        raise PbmFormatError(f"{path}: missing or malformed dimensions") from None
    if width <= 0 or height <= 0:
        raise PbmFormatError(f"{path}: non-positive dimensions {width}x{height}")
    raster = "".join(tokens[3:])  # whitespace between pixels is optional
    if len(raster) != width * height:
        raise PbmFormatError(f"{path}: has {len(raster)} pixels, expected {width * height}")
    bad = raster.strip("01")
    if bad:
        raise PbmFormatError(f"{path}: pixel {bad[0]!r} is not 0 or 1")
    bits = np.frombuffer(raster.encode("ascii"), dtype=np.uint8) - ord("0")
    return BinaryPattern(bits.reshape(height, width))


# ---------------------------------------------------------------------------
# Attribute catalog.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttributeGroup:
    """One attribute group: an id and its ordered labels (one cue neuron each)."""

    name: str
    labels: tuple[str, ...]


@dataclass(frozen=True)
class AttributeCatalog:
    """Ordered collection of attribute groups."""

    groups: tuple[AttributeGroup, ...]

    def __iter__(self):
        return iter(self.groups)

    def __len__(self) -> int:
        return len(self.groups)


def parse_catalog(text: str) -> AttributeCatalog:
    """Parse `group:index:label` lines; `#` comments and blank lines are skipped."""
    return _parse_catalog(text.splitlines())


def _parse_catalog(lines) -> AttributeCatalog:
    from .qr import CONTENT_CAPACITY  # here, because qr imports this module
    entries: dict[str, dict[int, str]] = {}  # group -> index -> label, groups in first-seen order
    seen: set[tuple[str, str]] = set()  # (group, label) of every entry, for the duplicate check
    for lineno, body in records(lines):
        parts = body.split(":", 2)
        if len(parts) != 3:
            raise CatalogError(f"line {lineno}: expected group:index:label, got {body!r}")
        name, index_text, label = parts[0].strip(), parts[1].strip(), parts[2].strip()
        if not name or not name.isprintable() or " " in name:  # a BOM or a tab is not printable
            raise CatalogError(f"line {lineno}: group name {name!r} must be one printable word")
        try:
            index = int(index_text)
        except ValueError:
            raise CatalogError(f"line {lineno}: index {index_text!r} is not an integer") from None
        if index < 0:
            raise CatalogError(f"line {lineno}: index {index} is negative")
        if not label:
            raise CatalogError(f"line {lineno}: empty label")
        if (size := len(label.encode("utf-8"))) > CONTENT_CAPACITY:  # one QR symbol
            raise CatalogError(f"line {lineno}: label is {size} bytes encoded; the symbol holds {CONTENT_CAPACITY}")
        group = entries.setdefault(name, {})
        if index in group:
            raise DuplicateEntry(f"line {lineno}: duplicate entry {name}:{index}")
        if (name, label) in seen:
            raise DuplicateEntry(f"line {lineno}: duplicate label {label!r} in group {name}")
        group[index] = label
        seen.add((name, label))

    groups = []
    for name, group in entries.items():
        expected = set(range(len(group)))
        if set(group) != expected:
            missing = sorted(expected - set(group)) or sorted(set(group) - expected)
            raise CatalogError(
                f"group {name}: indices must run 0..{len(group) - 1} without gaps"
                f" (problem near index {missing[0]})"
            )
        groups.append(AttributeGroup(name, tuple(group[i] for i in range(len(group)))))
    return AttributeCatalog(tuple(groups))


def load_catalog(path) -> AttributeCatalog:
    """Load an attribute catalog from a text file; every error names the file."""
    try:
        with open(path, "rb") as file:
            return _parse_catalog(utf8_lines(file, CatalogError))
    except CatalogError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def default_catalog() -> AttributeCatalog:
    """The bundled three-group, seven-label catalog."""
    text = resources.files("cbrn").joinpath("data/catalog.txt").read_text(encoding="utf-8")
    return parse_catalog(text)
