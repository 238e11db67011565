"""Fixed-size QR symbol generation for short byte-mode payloads.

Symbols are always version 3 (29x29 modules) at error-correction level L,
more than enough capacity for attribute labels (53 payload bytes).  They are
rendered without a quiet zone so the default 4-pixel module scale yields the
116x116 bitmap the memory pipeline expects.  A seeded random provider is
also exposed so memory experiments can run without symbol structure.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EmptyLabel, LabelTooLong
from .galois import Codeword, rs_encode
from .patterns import BinaryPattern

VERSION = 3
SIZE = 29  # modules per side for version 3
ECC_LEVEL = "L"
TOTAL_CODEWORDS = 70
ECC_CODEWORDS = 15
DATA_CODEWORDS = TOTAL_CODEWORDS - ECC_CODEWORDS
CONTENT_CAPACITY = 53  # payload bytes left after the 12-bit mode/length header
ALIGNMENT_CENTER = (22, 22)
DEFAULT_SCALE = 4  # 29 * 4 = 116 pixels per side

_BYTE_MODE = 0b0100
_PAD_BYTES = (0xEC, 0x11)
_ECC_LEVEL_BITS = {"L": 0b01, "M": 0b00, "Q": 0b11, "H": 0b10}
_FORMAT_GEN = 0b10100110111  # BCH(15,5) generator
_FORMAT_XOR = 0b101010000010010

# Mask predicates by mask index; r is the row, c the column.
_MASKS = (
    lambda r, c: (r + c) % 2 == 0,
    lambda r, c: r % 2 == 0,
    lambda r, c: c % 3 == 0,
    lambda r, c: (r + c) % 3 == 0,
    lambda r, c: (r // 2 + c // 3) % 2 == 0,
    lambda r, c: (r * c) % 2 + (r * c) % 3 == 0,
    lambda r, c: ((r * c) % 2 + (r * c) % 3) % 2 == 0,
    lambda r, c: ((r + c) % 2 + (r * c) % 3) % 2 == 0,
)


@dataclass(frozen=True)
class QrMatrix:
    """A finished symbol: module grid plus the choices that produced it."""

    size: int
    modules: np.ndarray  # (size, size) uint8, dark=1
    version: int
    ecc_level: str
    mask: int


def encode_payload(label: str) -> bytes:
    """Byte-mode bit stream: mode, length, data, terminator, pad bytes."""
    if label == "":
        raise EmptyLabel("label must not be empty")
    data = label.encode("utf-8")
    if len(data) > CONTENT_CAPACITY:
        raise LabelTooLong(
            f"label is {len(data)} bytes encoded; the symbol holds {CONTENT_CAPACITY}"
        )
    nbits = 12 + 8 * len(data)
    stream = ((_BYTE_MODE << 8 | len(data)) << 8 * len(data)) | int.from_bytes(data, "big")
    nbits_used = min(nbits + 4, DATA_CODEWORDS * 8)  # terminator, cut short at capacity
    nbytes = -(-nbits_used // 8)  # zero bits up to the byte boundary
    head = (stream << (8 * nbytes - nbits)).to_bytes(nbytes, "big")
    return head + (bytes(_PAD_BYTES) * DATA_CODEWORDS)[: DATA_CODEWORDS - nbytes]


def encode_codewords(label: str) -> Codeword:
    """Payload plus error-correction bytes for a label."""
    return rs_encode(encode_payload(label), ECC_CODEWORDS)


# ---------------------------------------------------------------------------
# Module placement.
# ---------------------------------------------------------------------------


def _draw_finder(modules, reserved, row: int, col: int) -> None:
    for r in range(-1, 8):
        for c in range(-1, 8):
            rr, cc = row + r, col + c
            if not (0 <= rr < SIZE and 0 <= cc < SIZE):
                continue
            ring = max(abs(r - 3), abs(c - 3))
            modules[rr, cc] = 1 if ring in (0, 1, 3) else 0
            reserved[rr, cc] = True


def _draw_alignment(modules, reserved, row: int, col: int) -> None:
    for r in range(-2, 3):
        for c in range(-2, 3):
            ring = max(abs(r), abs(c))
            modules[row + r, col + c] = 1 if ring != 1 else 0
            reserved[row + r, col + c] = True


def _format_positions() -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(vertical, horizontal) module positions of format bit i, LSB first."""
    pairs = []
    for i in range(15):
        if i < 6:
            vert = (i, 8)
        elif i < 8:
            vert = (i + 1, 8)
        else:
            vert = (SIZE - 15 + i, 8)
        if i < 8:
            horiz = (8, SIZE - 1 - i)
        elif i < 9:
            horiz = (8, 15 - i)
        else:
            horiz = (8, 14 - i)
        pairs.append((vert, horiz))
    return pairs


@lru_cache(maxsize=1)
def _base_matrix() -> tuple[np.ndarray, np.ndarray]:
    """Function patterns drawn, format area reserved; returns (modules, reserved)."""
    modules = np.zeros((SIZE, SIZE), dtype=np.uint8)
    reserved = np.zeros((SIZE, SIZE), dtype=bool)

    _draw_finder(modules, reserved, 0, 0)
    _draw_finder(modules, reserved, 0, SIZE - 7)
    _draw_finder(modules, reserved, SIZE - 7, 0)
    _draw_alignment(modules, reserved, *ALIGNMENT_CENTER)

    for k in range(8, SIZE - 8):
        bit = 1 - (k % 2)
        modules[6, k] = bit
        reserved[6, k] = True
        modules[k, 6] = bit
        reserved[k, 6] = True

    for vert, horiz in _format_positions():
        reserved[vert] = True
        reserved[horiz] = True
    modules[SIZE - 8, 8] = 1  # fixed dark module
    reserved[SIZE - 8, 8] = True

    modules.setflags(write=False)
    reserved.setflags(write=False)
    return modules, reserved


def function_region(size: int = SIZE) -> np.ndarray:
    """Boolean map of modules that never carry data (version 3 layout)."""
    if size != SIZE:
        raise ValueError(f"only the version-{VERSION} size {SIZE} is supported")
    return _base_matrix()[1].copy()


@lru_cache(maxsize=1)
def _data_positions() -> tuple[np.ndarray, np.ndarray]:
    """Zig-zag placement order as (rows, cols): two-module columns snaking up and down."""
    _, reserved = _base_matrix()
    positions = []
    col = SIZE - 1
    upward = True
    while col > 0:
        if col == 6:  # the vertical timing column is skipped entirely
            col -= 1
        rows = range(SIZE - 1, -1, -1) if upward else range(SIZE)
        for r in rows:
            for c in (col, col - 1):
                if not reserved[r, c]:
                    positions.append((r, c))
        upward = not upward
        col -= 2
    rows, cols = np.array(positions).T
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _format_bits(ecc_level: str, mask: int) -> int:
    """15-bit format word: 5 data bits, 10 BCH bits, fixed XOR applied."""
    data = (_ECC_LEVEL_BITS[ecc_level] << 3) | mask
    rem = data << 10
    for shift in range(4, -1, -1):
        if rem & (1 << (10 + shift)):
            rem ^= _FORMAT_GEN << shift
    return ((data << 10) | rem) ^ _FORMAT_XOR


@lru_cache(maxsize=1)
def _templates() -> np.ndarray:
    """(8, SIZE, SIZE) finished symbols of all-light data, one per mask.

    Each holds the function patterns, the mask's format word and the mask
    itself over the data region, so XOR-ing placed data bits into it gives
    the finished masked candidate.
    """
    # Built once per process, one module at a time: a vectorized build saves
    # about 4 ms once but maps about 0.3 MB more NumPy code into each process.
    base, reserved = _base_matrix()
    stack = np.zeros((8, SIZE, SIZE), dtype=np.uint8)
    for m, predicate in enumerate(_MASKS):
        for r in range(SIZE):
            for c in range(SIZE):
                stack[m, r, c] = base[r, c] if reserved[r, c] else predicate(r, c)
        word = _format_bits(ECC_LEVEL, m)
        for i, (vert, horiz) in enumerate(_format_positions()):
            stack[(m, *vert)] = stack[(m, *horiz)] = (word >> i) & 1
    stack.setflags(write=False)
    return stack


def _starts(dark: np.ndarray, pattern: tuple[int, ...], span: int) -> np.ndarray:
    """Whether `pattern` (1 = dark) begins at each of the first `span` positions of every line."""
    hit = np.ones(dark.shape[:-1] + (span,), dtype=bool)
    for t, bit in enumerate(pattern):
        cell = dark[..., t : t + span]
        hit &= cell if bit else ~cell
    return hit


def penalties(stack: np.ndarray) -> np.ndarray:
    """Penalty of each square grid in a (count, n, n) stack; see `penalty`."""
    stack = np.asarray(stack, dtype=np.uint8)
    count, n, _ = stack.shape
    lines = np.concatenate((stack, stack.transpose(0, 2, 1)), axis=1)  # rows, then columns

    # same-colour runs of 5 or more: 3 + (length - 5) each, which is 1 per
    # same-colour window of five plus 2 for the window that opens the run
    same = lines[..., 1:] == lines[..., :-1]
    five = same[..., :-3] & same[..., 1:-2] & same[..., 2:-1] & same[..., 3:]
    opens = five.copy()  # windows that start a run: at a line start or after a colour change
    opens[..., 1:] &= ~same[..., : max(n - 5, 0)]
    score = np.count_nonzero(five, axis=(1, 2)) + 2 * np.count_nonzero(opens, axis=(1, 2))

    # same-colour 2x2 blocks, overlapping: 3 each
    corner = stack[:, :-1, :-1]
    blocks = (corner == stack[:, :-1, 1:]) & (corner == stack[:, 1:, :-1]) & (corner == stack[:, 1:, 1:])
    score += 3 * np.count_nonzero(blocks, axis=(1, 2))

    # finder lookalikes: a 1:1:3:1:1 core with four light modules after or
    # before it, 40 each
    if n >= 11:
        width = n - 10  # 11-module windows per line
        is_dark = lines == 1
        core = _starts(is_dark, (1, 0, 1, 1, 1, 0, 1), width + 4)
        light = _starts(is_dark, (0, 0, 0, 0), width + 7)
        finders = (core[..., :width] & light[..., 7:]) | (light[..., :width] & core[..., 4:])
        score += 40 * np.count_nonzero(finders, axis=(1, 2))

    # dark/light imbalance: 10 per full 5% away from half
    dark = stack.sum(axis=(1, 2), dtype=np.int64)
    total = n * n
    score += 10 * (np.abs(100 * dark - 50 * total) // (5 * total))
    return score


def penalty(modules: np.ndarray) -> int:
    """Symbol quality score of one square grid; lower is better.

    Scores long same-color runs, 2x2 blocks, finder-lookalike sequences, and
    overall dark/light imbalance, the four ISO/IEC 18004 mask rules.
    """
    return int(penalties(np.asarray(modules)[None])[0])


def encode_label(label: str, mask: int | None = None) -> QrMatrix:
    """Encode a label into a version-3 symbol.

    The mask is chosen by minimum penalty over all eight patterns (lowest
    index wins ties) unless forced explicitly.
    """
    if mask is not None and mask not in range(8):
        raise ValueError("mask must be in 0..7")
    blob = np.frombuffer(encode_codewords(label).blob, dtype=np.uint8)
    rows, cols = _data_positions()
    data = np.zeros((SIZE, SIZE), dtype=np.uint8)
    data[rows, cols] = np.unpackbits(blob, count=rows.size)  # remainder bits stay light
    templates = _templates()
    if mask is None:
        mask = int(np.argmin(penalties(templates ^ data)))  # lowest index wins ties
    modules = templates[mask] ^ data
    modules.setflags(write=False)
    return QrMatrix(size=SIZE, modules=modules, version=VERSION, ecc_level=ECC_LEVEL, mask=mask)


def render(matrix: QrMatrix, scale: int = DEFAULT_SCALE) -> BinaryPattern:
    """Expand each module into a scale x scale pixel block (no quiet zone)."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    bits = np.repeat(np.repeat(matrix.modules, scale, axis=0), scale, axis=1)
    return BinaryPattern(bits)


# ---------------------------------------------------------------------------
# Pattern providers.
# ---------------------------------------------------------------------------


def random_pattern(seed, width: int = 116, height: int = 116) -> BinaryPattern:
    """Deterministic ~50%-density bitmap for experiments that don't need symbols."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(height, width), dtype=np.uint8)
    if not bits.any():
        bits[0, 0] = 1
    return BinaryPattern(bits)


def label_pattern(label: str, provider: str = "qr", seed: int = 0) -> BinaryPattern:
    """Pattern source used for training: real symbols or seeded random bitmaps."""
    if provider == "qr":
        return render(encode_label(label))
    if provider == "random":
        return random_pattern((int(seed) << 32) ^ zlib.crc32(label.encode("utf-8")))
    raise ValueError(f"unknown provider {provider!r}")
