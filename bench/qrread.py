"""Independent reader for version-3-L QR symbols, used to check the encoder.

It shares no code with `cbrn`: the symbol layout, the format-word BCH code,
the mask predicates, the zig-zag order and the GF(256) arithmetic are written
out here again from ISO/IEC 18004.  `read_symbol` takes a 29x29 module grid
(dark = 1) and returns the byte-mode label and the mask it found, or raises
`QrReadError` naming the first thing that does not hold.
"""

from __future__ import annotations

import numpy as np

SIZE = 29
TOTAL_CODEWORDS = 70
DATA_CODEWORDS = 55
ECC_CODEWORDS = 15
REMAINDER_BITS = 7
ALIGN = 22  # the one alignment pattern of version 3 sits at (22, 22)


class QrReadError(ValueError):
    """The symbol is not a valid version-3-L byte-mode QR symbol."""


# -- GF(256) modulo x^8 + x^4 + x^3 + x^2 + 1 --------------------------------


def gf_mul(a: int, b: int) -> int:
    """Carry-less multiply with reduction; the slow reference form."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= 0x11D
    return out


def _power_tables() -> tuple[list[int], list[int]]:
    exp = [1] * 255
    for i in range(1, 255):
        exp[i] = gf_mul(exp[i - 1], 2)
    log = [0] * 256
    for i, value in enumerate(exp):
        log[value] = i
    return exp, log


_EXP, _LOG = _power_tables()


def syndromes(codeword: bytes, count: int = ECC_CODEWORDS) -> list[int]:
    """Codeword polynomial (first byte highest) evaluated at 2^0 .. 2^(count-1)."""
    out = []
    for i in range(count):
        log_point = i % 255
        acc = 0
        for byte in codeword:
            acc = (_EXP[(_LOG[acc] + log_point) % 255] if acc else 0) ^ byte
        out.append(acc)
    return out


# -- symbol layout -------------------------------------------------------------


def _function_map() -> np.ndarray:
    """Modules that carry no data: finders with separators and format areas,
    timing lines, the alignment pattern and the dark module."""
    fn = np.zeros((SIZE, SIZE), dtype=bool)
    fn[:9, :9] = True
    fn[:9, SIZE - 8 :] = True
    fn[SIZE - 8 :, :9] = True
    fn[6, :] = True
    fn[:, 6] = True
    fn[ALIGN - 2 : ALIGN + 3, ALIGN - 2 : ALIGN + 3] = True
    return fn


FUNCTION = _function_map()


def _expected_function_modules() -> dict[tuple[int, int], int]:
    """Fixed module values of the finder, separator, timing, alignment and dark module."""
    want: dict[tuple[int, int], int] = {}
    for top, left in ((0, 0), (0, SIZE - 7), (SIZE - 7, 0)):
        for r in range(-1, 8):
            for c in range(-1, 8):
                rr, cc = top + r, left + c
                if 0 <= rr < SIZE and 0 <= cc < SIZE:
                    ring = max(abs(r - 3), abs(c - 3))
                    want[(rr, cc)] = int(ring != 2 and ring != 4)
    for k in range(8, SIZE - 8):
        want[(6, k)] = want[(k, 6)] = int(k % 2 == 0)
    for r in range(-2, 3):
        for c in range(-2, 3):
            want[(ALIGN + r, ALIGN + c)] = int(max(abs(r), abs(c)) != 1)
    want[(SIZE - 8, 8)] = 1
    return want


_FIXED = _expected_function_modules()

# Format bit i (0 = least significant) of the two copies, as (row, column).
_FORMAT_A = (
    [(i, 8) for i in range(6)] + [(7, 8), (8, 8), (8, 7)] + [(8, 14 - i) for i in range(9, 15)]
)
_FORMAT_B = [(8, SIZE - 1 - i) for i in range(8)] + [(SIZE - 15 + i, 8) for i in range(8, 15)]


def format_word(ecc_bits: int, mask: int) -> int:
    """15-bit format word: BCH(15,5) with generator 0x537, XOR 0x5412."""
    data = (ecc_bits << 3) | mask
    rem = data
    for _ in range(10):
        rem = (rem << 1) ^ ((rem >> 9) * 0x537)
    return ((data << 10) | (rem & 0x3FF)) ^ 0x5412


_ECC_L = 0b01
_WORDS = {format_word(ecc, mask): (ecc, mask) for ecc in range(4) for mask in range(8)}


def _mask_bit(mask: int, r: int, c: int) -> int:
    if mask == 0:
        hit = (r + c) % 2 == 0
    elif mask == 1:
        hit = r % 2 == 0
    elif mask == 2:
        hit = c % 3 == 0
    elif mask == 3:
        hit = (r + c) % 3 == 0
    elif mask == 4:
        hit = (r // 2 + c // 3) % 2 == 0
    elif mask == 5:
        hit = (r * c) % 2 + (r * c) % 3 == 0
    elif mask == 6:
        hit = ((r * c) % 2 + (r * c) % 3) % 2 == 0
    else:
        hit = ((r + c) % 2 + (r * c) % 3) % 2 == 0
    return int(hit)


def _zigzag() -> list[tuple[int, int]]:
    """Data module order: column pairs from the right, alternately up and down."""
    order = []
    right = SIZE - 1
    while right >= 1:
        if right == 6:
            right = 5
        upward = ((right + 1) & 2) == 0
        for step in range(SIZE):
            r = SIZE - 1 - step if upward else step
            for c in (right, right - 1):
                if not FUNCTION[r, c]:
                    order.append((r, c))
        right -= 2
    return order


_ORDER = _zigzag()
assert len(_ORDER) == TOTAL_CODEWORDS * 8 + REMAINDER_BITS


# -- reading -------------------------------------------------------------------


def modules_from_pixels(pixels: np.ndarray, scale: int = 4) -> np.ndarray:
    """Collapse a bitmap of `scale`-pixel modules; every block must be one colour."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.shape != (SIZE * scale, SIZE * scale):
        raise QrReadError(f"bitmap is {pixels.shape}, expected {SIZE * scale} square")
    blocks = pixels.reshape(SIZE, scale, SIZE, scale)
    lo = blocks.min(axis=(1, 3))
    if not np.array_equal(lo, blocks.max(axis=(1, 3))):
        raise QrReadError("a module block mixes dark and light pixels")
    return lo


def read_symbol(modules) -> tuple[str, int]:
    """Decode a 29x29 module grid; returns (label, mask)."""
    grid = np.asarray(modules, dtype=np.uint8)
    if grid.shape != (SIZE, SIZE) or grid.max(initial=0) > 1:
        raise QrReadError(f"module grid is {grid.shape}, expected {SIZE}x{SIZE} of 0/1")
    cells = grid.tolist()
    for (r, c), value in _FIXED.items():
        if cells[r][c] != value:
            raise QrReadError(f"function module ({r}, {c}) is {cells[r][c]}, expected {value}")

    copies = [sum(cells[r][c] << i for i, (r, c) in enumerate(pos)) for pos in (_FORMAT_A, _FORMAT_B)]
    if copies[0] != copies[1]:
        raise QrReadError(f"format copies differ: {copies[0]:015b} / {copies[1]:015b}")
    if copies[0] not in _WORDS:
        raise QrReadError(f"format word {copies[0]:015b} is not a BCH codeword")
    ecc, mask = _WORDS[copies[0]]
    if ecc != _ECC_L:
        raise QrReadError(f"error-correction level bits {ecc:02b}, expected L (01)")

    bits = [cells[r][c] ^ _mask_bit(mask, r, c) for r, c in _ORDER]
    if any(bits[TOTAL_CODEWORDS * 8 :]):
        raise QrReadError("remainder bits are not zero")
    codeword = bytes(
        int("".join(map(str, bits[i : i + 8])), 2) for i in range(0, TOTAL_CODEWORDS * 8, 8)
    )
    bad = [i for i, s in enumerate(syndromes(codeword)) if s]
    if bad:
        raise QrReadError(f"Reed-Solomon syndromes {bad} are nonzero")
    return _parse_byte_mode(codeword[:DATA_CODEWORDS]), mask


def _parse_byte_mode(data: bytes) -> str:
    stream = "".join(f"{b:08b}" for b in data)
    if stream[:4] != "0100":
        raise QrReadError(f"mode indicator {stream[:4]}, expected byte mode 0100")
    count = int(stream[4:12], 2)
    end = 12 + 8 * count
    if end > len(stream):
        raise QrReadError(f"byte count {count} overruns the data codewords")
    payload = bytes(int(stream[i : i + 8], 2) for i in range(12, end, 8))
    terminator = stream[end : end + min(4, len(stream) - end)]
    if terminator.strip("0"):
        raise QrReadError("terminator bits are not zero")
    filler_start = -(-(end + len(terminator)) // 8)
    if stream[end + len(terminator) : filler_start * 8].strip("0"):
        raise QrReadError("bit padding to the byte boundary is not zero")
    for k, byte in enumerate(data[filler_start:]):
        if byte != (0xEC, 0x11)[k % 2]:
            raise QrReadError(f"pad codeword {filler_start + k} is {byte:#04x}")
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise QrReadError(f"payload is not UTF-8: {exc}") from None


def read_bitmap(pixels, scale: int = 4) -> tuple[str, int]:
    """Decode a rendered bitmap (no quiet zone, `scale` pixels per module)."""
    return read_symbol(modules_from_pixels(pixels, scale))
