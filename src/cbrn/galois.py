"""GF(256) arithmetic and systematic Reed-Solomon encoding.

The field is generated by 2 modulo x^8 + x^4 + x^3 + x^2 + 1 (0x11D), the
convention used by QR error correction.  A codeword is systematic: data bytes
followed by the remainder of data * x^ecc_len divided by the generator
polynomial, so the full codeword evaluates to zero at 2^0 .. 2^(ecc_len-1).
"""

from __future__ import annotations

from functools import lru_cache

REDUCER = 0x11D

_EXP = [0] * 510
_LOG = [0] * 256
_x = 1
for _i in range(255):
    _EXP[_i] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= REDUCER
for _i in range(255, 510):
    _EXP[_i] = _EXP[_i - 255]
del _x, _i


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


@lru_cache(maxsize=None)
def generator_poly(ecc_len: int) -> tuple[int, ...]:
    """Monic product of (x - 2^i) for i in 0..ecc_len-1, highest degree first."""
    g = [1]
    for i in range(ecc_len):
        root = _EXP[i]
        nxt = [0] * (len(g) + 1)
        for j, coeff in enumerate(g):
            nxt[j] ^= coeff
            nxt[j + 1] ^= gf_mul(coeff, root)
        g = nxt
    return tuple(g)


def rs_encode(data: bytes, ecc_len: int) -> bytes:
    """Systematic codeword: `data` followed by its `ecc_len` Reed-Solomon bytes."""
    if ecc_len < 1:
        raise ValueError("ecc_len must be positive")
    gen = generator_poly(ecc_len)
    rem = bytearray(len(data) + ecc_len)
    rem[: len(data)] = data
    for i in range(len(data)):
        lead = rem[i]
        if lead == 0:
            continue
        shift = _LOG[lead]
        for j, coeff in enumerate(gen):
            if coeff:
                rem[i + j] ^= _EXP[_LOG[coeff] + shift]
    return bytes(data) + rem[len(data):]


def syndromes(codeword: bytes, ecc_len: int) -> list[int]:
    """Evaluate the codeword polynomial at 2^0 .. 2^(ecc_len-1).

    All-zero output is exactly the condition for a valid codeword.
    """
    out = []
    for i in range(ecc_len):
        acc = 0
        point = _EXP[i]
        for byte in codeword:
            acc = gf_mul(acc, point) ^ byte
        out.append(acc)
    return out
