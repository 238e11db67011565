"""Fixed-size QR symbol generation for short byte-mode payloads.

Symbols are always version 3 (29x29 modules) at error-correction level L,
more than enough capacity for attribute labels (53 payload bytes).  They are
rendered without a quiet zone so the default 4-pixel module scale yields the
116x116 bitmap the memory pipeline expects.  `random_pattern` is a library
source of seeded random bitmaps of the same size, for memory experiments
without symbol structure; `train` stores only symbols.

A symbol is one Python int, bit `r * SIZE + c` set for a dark module at row
r and column c.  The function patterns, the data positions and the eight
mask templates are built once; data is placed by OR-ing one table entry per
half-byte, and `penalty` scores a whole grid with shifts and
`int.bit_count`.  NumPy loads only where an array is made: `QrMatrix.modules`,
`render` and `random_pattern`.  So `encode_label` and `pixels`, which is all
`cbrn encode` runs, need no NumPy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import or_

from .errors import EmptyLabel, LabelTooLong, UnencodableLabel
from .galois import rs_encode
from .patterns import BinaryPattern

SIZE = 29  # modules per side for version 3
TOTAL_CODEWORDS = 70
ECC_CODEWORDS = 15
DATA_CODEWORDS = TOTAL_CODEWORDS - ECC_CODEWORDS
CONTENT_CAPACITY = 53  # payload bytes left after the 12-bit mode/length header
FINDER_CENTERS = ((3, 3), (3, SIZE - 4), (SIZE - 4, 3))
ALIGNMENT_CENTER = (22, 22)
DEFAULT_SCALE = 4  # 29 * 4 = 116 pixels per side

_CELLS = SIZE * SIZE
_BYTE_MODE = 0b0100
_PAD_BYTES = (0xEC, 0x11)
_HEX_DIGITS = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))  # a hex digit's character -> its value
# Level-L format word by mask index (ISO/IEC 18004 Table C.1): the level and
# mask bits, their BCH(15,5) code bits, and the fixed XOR.
_FORMAT_WORDS = (0x77C4, 0x72F3, 0x7DAA, 0x789D, 0x662F, 0x6318, 0x6C41, 0x6976)
# Format bit i, LSB first, sits at row _FORMAT_ROWS[i] of column 8 and again
# at column _FORMAT_COLS[i] of row 8.
_FORMAT_ROWS = (0, 1, 2, 3, 4, 5, 7, 8, 22, 23, 24, 25, 26, 27, 28)
_FORMAT_COLS = (28, 27, 26, 25, 24, 23, 22, 21, 7, 5, 4, 3, 2, 1, 0)

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


def _grid(cells) -> int:
    """The grid int with the modules at `cells`, (row, column) pairs, dark."""
    return sum({1 << r * SIZE + c for r, c in cells})


@dataclass(frozen=True)
class QrMatrix:
    """A finished symbol, built as `QrMatrix(dark, mask)`: its dark modules as one int, bit r * SIZE + c, and its mask."""

    dark: int = field(repr=False)  # about 250 decimal digits
    mask: int

    @property
    def modules(self):
        """The (SIZE, SIZE) read-only uint8 grid, dark=1."""
        import numpy as np

        packed = np.frombuffer(self.dark.to_bytes(-(-_CELLS // 8), "little"), dtype=np.uint8)
        modules = np.unpackbits(packed, count=_CELLS, bitorder="little").reshape(SIZE, SIZE)
        modules.setflags(write=False)
        return modules


def encode_payload(label: str) -> bytes:
    """Byte-mode bit stream: mode, length, data, terminator, pad bytes."""
    if label == "":
        raise EmptyLabel("label must not be empty")
    try:
        data = label.encode("utf-8")
    except UnicodeEncodeError:
        raise UnencodableLabel(f"label {label!r} is not UTF-8 text: it holds a lone surrogate") from None
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


def encode_codewords(label: str) -> bytes:
    """Payload bytes followed by error-correction bytes for a label."""
    return rs_encode(encode_payload(label), ECC_CODEWORDS)


# ---------------------------------------------------------------------------
# Module placement.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _base_matrix() -> tuple[int, int]:
    """Function patterns drawn, format area reserved; returns the grids (modules, reserved)."""
    cells = {}  # (row, column) -> dark, for each reserved module
    # each 7x7 finder with its one-module light separator, rings 0, 1 and 3
    # dark, and the 5x5 alignment pattern, rings 0 and 2 dark
    squares = [(center, 4, (0, 1, 3)) for center in FINDER_CENTERS] + [(ALIGNMENT_CENTER, 2, (0, 2))]
    for (r0, c0), reach, dark_rings in squares:
        for r, c in itertools.product(range(r0 - reach, r0 + reach + 1), range(c0 - reach, c0 + reach + 1)):
            if 0 <= r < SIZE and 0 <= c < SIZE:
                cells[r, c] = max(abs(r - r0), abs(c - c0)) in dark_rings
    for k in range(8, SIZE - 8):  # timing patterns
        cells[6, k] = cells[k, 6] = k % 2 == 0
    for r, c in zip(_FORMAT_ROWS, _FORMAT_COLS):
        cells[r, 8] = cells[8, c] = False
    cells[SIZE - 8, 8] = True  # fixed dark module
    return _grid(cell for cell, dark in cells.items() if dark), _grid(cells)


@lru_cache(maxsize=1)
def _data_positions() -> tuple[int, ...]:
    """Zig-zag placement order as bit indices: two-module columns snaking up and down."""
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
                if not reserved >> r * SIZE + c & 1:
                    positions.append(r * SIZE + c)
        upward = not upward
        col -= 2
    return tuple(positions)


@lru_cache(maxsize=1)
def _placement() -> tuple[tuple[int, ...], ...]:
    """Per half-byte of the codewords, in stream order, the data grid of each of its 16 values.

    A half-byte's bits, most significant first, take the next four data
    positions; the remainder positions after the last codeword stay light.
    """
    positions = _data_positions()
    tables = []
    for start in range(0, 8 * TOTAL_CODEWORDS, 4):
        table = [0]
        for p in reversed(positions[start : start + 4]):  # the module of value bit 0, 1, 2, then 3
            table += [grid | 1 << p for grid in table]
        tables.append(tuple(table))
    return tuple(tables)


@lru_cache(maxsize=1)
def _templates() -> tuple[int, ...]:
    """The 8 finished symbols of all-light data, one grid per mask.

    Each holds the function patterns, the mask's format word and the mask
    itself over the data region, so XOR-ing placed data bits into it gives
    the finished masked candidate.
    """
    base, _ = _base_matrix()
    data_cells = [divmod(p, SIZE) for p in _data_positions()]  # every module outside the function patterns
    templates = []
    for word, predicate in zip(_FORMAT_WORDS, _MASKS):
        on = [i for i in range(15) if word >> i & 1]
        format_bits = _grid([(_FORMAT_ROWS[i], 8) for i in on] + [(8, _FORMAT_COLS[i]) for i in on])
        templates.append(base | _grid(cell for cell in data_cells if predicate(*cell)) | format_bits)
    return tuple(templates)


# ---------------------------------------------------------------------------
# Mask penalty.
# ---------------------------------------------------------------------------

_ALL = (1 << _CELLS) - 1
_ROW_PAIRS = sum(((1 << SIZE - 1) - 1) << r * SIZE for r in range(SIZE))  # modules with a next one in their row
_ROW_WINDOWS = sum(((1 << SIZE - 10) - 1) << r * SIZE for r in range(SIZE))  # starts of 11-module row windows


def _line_rules(dark: int, light: int, step: int, pairs: int, windows: int) -> tuple[int, int]:
    """Rules 1 and 3 along rows (`step` 1) or columns (`step` SIZE): (their points, the `same` grid).

    `pairs` marks each module with a next one in its line, `windows` each
    that starts an 11-module window in its line.
    """
    # same-colour runs of 5 or more: 3 + (length - 5) each, which is 1 per
    # same-colour window of five plus 2 for the window that opens the run;
    # `same` marks a module that matches the next one in its line (is dark
    # exactly where that one is not light), and `two`, `three` and `five` one
    # that starts 3, 4 and 5 modules of one colour
    same = (dark ^ light >> step) & pairs
    two = same & same >> step
    three = two & same >> 2 * step
    five = three & same >> 3 * step
    opens = five & ~(same << step)  # at a line start or after a colour change

    # finder lookalikes: an 11-module window reading dark-light-dark-dark-dark-
    # light-dark (a 1:1:3:1:1 core) then four light modules, or four light
    # modules then the core, 40 each; the two cannot share a start, so they OR
    core = dark & light >> step & (dark & two) >> 2 * step & light >> 5 * step & dark >> 6 * step
    light4 = light & three
    finders = ((core & light4 >> 7 * step) | (light4 & core >> 4 * step)) & windows
    return five.bit_count() + 2 * opens.bit_count() + 40 * finders.bit_count(), same


def penalty(grid: int) -> int:
    """Penalty of one symbol grid, bit r * SIZE + c set for a dark module; lower is better.

    Scores long same-color runs, 2x2 blocks, finder-lookalike sequences, and
    overall dark/light imbalance, the four ISO/IEC 18004 mask rules, over the
    whole grid at once: a shift by 1 moves along a row, masked at the row
    ends, and a shift by SIZE moves down a column.
    """
    light = grid ^ _ALL
    rows, same_rows = _line_rules(grid, light, 1, _ROW_PAIRS, _ROW_WINDOWS)
    cols, same_cols = _line_rules(grid, light, SIZE, _ALL >> SIZE, _ALL >> 10 * SIZE)  # all rows but the last 1 or 10
    # same-colour 2x2 blocks, overlapping: 3 each; the block at row r and
    # column c needs modules c and c + 1 to match in rows r and r + 1, and
    # rows r and r + 1 to match at column c
    blocks = same_rows & same_rows >> SIZE & same_cols
    # dark/light imbalance: 10 per full 5% away from half
    dark = grid.bit_count()
    return rows + cols + 3 * blocks.bit_count() + 10 * (abs(100 * dark - 50 * _CELLS) // (5 * _CELLS))


def encode_label(label: str, mask: int | None = None) -> QrMatrix:
    """Encode a label into a version-3 symbol.

    The mask is chosen by minimum penalty over all eight patterns (lowest
    index wins ties) unless forced explicitly.
    """
    if mask is not None and mask not in range(8):
        raise ValueError("mask must be in 0..7")
    nibbles = encode_codewords(label).hex().encode("ascii").translate(_HEX_DIGITS)
    data = reduce(or_, map(tuple.__getitem__, _placement(), nibbles))
    templates = _templates()
    if mask is None:
        mask = min(range(8), key=lambda m: penalty(templates[m] ^ data))  # lowest index wins ties
    return QrMatrix(templates[mask] ^ data, mask)


def pixels(matrix: QrMatrix, scale: int = DEFAULT_SCALE) -> bytes:
    """The bitmap `render` draws, as ASCII digits row by row ("1" dark), built without NumPy."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    modules = f"{matrix.dark:0{_CELLS}b}".encode("ascii")[::-1]  # module k at index k
    wide = modules.replace(b"0", b"0" * scale).replace(b"1", b"1" * scale)
    width = SIZE * scale
    return b"".join(wide[start : start + width] * scale for start in range(0, len(wide), width))


def render(matrix: QrMatrix, scale: int = DEFAULT_SCALE) -> BinaryPattern:
    """Expand each module into a scale x scale pixel block (no quiet zone).

    This is the bitmap `pixels` spells, made from `modules` with NumPy, which
    is faster: about 11 us a symbol (2-CPU Linux host), against 17 us or more
    to read `pixels`' digits into an array.
    """
    import numpy as np

    if scale < 1:
        raise ValueError("scale must be >= 1")
    bits = np.repeat(np.repeat(matrix.modules, scale, axis=1), scale, axis=0)  # columns first: the cheaper order
    return BinaryPattern(bits)


def random_pattern(seed) -> BinaryPattern:
    """Deterministic ~50%-density bitmap of a rendered symbol's size: a library source, not a `train` option."""
    import numpy as np

    side = SIZE * DEFAULT_SCALE
    return BinaryPattern(np.random.default_rng(seed).integers(0, 2, size=(side, side), dtype=np.uint8))
