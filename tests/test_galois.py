import pytest
from hypothesis import given
from hypothesis import strategies as st

from cbrn import galois
from cbrn.galois import generator_poly, gf_mul, rs_encode, syndromes


def slow_mul(a: int, b: int) -> int:
    """Bit-level carry-less multiplication reduced modulo 0x11D."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11D
        b >>= 1
    return result


class TestField:
    def test_exp_table_matches_bitwise_oracle(self):
        x = 1
        for i in range(255):
            assert galois._EXP[i] == x
            x = slow_mul(x, 2)

    def test_generator_order_is_255(self):
        x = 1
        for _ in range(255):
            x = slow_mul(x, 2)
        assert x == 1

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_mul_matches_oracle(self, a, b):
        assert gf_mul(a, b) == slow_mul(a, b)

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_mul_associative(self, a, b, c):
        assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))


def poly_eval(coeffs, x: int) -> int:
    acc = 0
    for c in coeffs:
        acc = slow_mul(acc, x) ^ c
    return acc


class TestGeneratorPoly:
    @pytest.mark.parametrize("ecc_len", [7, 10, 15])
    def test_roots_at_first_powers(self, ecc_len):
        gen = generator_poly(ecc_len)
        assert len(gen) == ecc_len + 1
        assert gen[0] == 1
        x = 1
        for _ in range(ecc_len):
            assert poly_eval(gen, x) == 0
            x = slow_mul(x, 2)
        assert poly_eval(gen, x) != 0  # next power is not a root


class TestRsEncode:
    def test_known_vector(self):
        # independently published check values for a 16-byte payload, 10 ecc bytes
        data = bytes([16, 32, 12, 86, 97, 128, 236, 17, 236, 17, 236, 17, 236, 17, 236, 17])
        expected = bytes([165, 36, 212, 193, 237, 54, 199, 135, 44, 85])
        assert rs_encode(data, 10)[16:] == expected

    def test_systematic(self):
        cw = rs_encode(b"abcdef", 15)
        assert isinstance(cw, bytes)
        assert cw[:6] == b"abcdef"
        assert len(cw) == 6 + 15

    @given(st.binary(min_size=1, max_size=55), st.integers(2, 20))
    def test_syndromes_zero_by_construction(self, data, ecc_len):
        cw = rs_encode(data, ecc_len)
        assert syndromes(cw, ecc_len) == [0] * ecc_len

    def test_syndromes_use_independent_evaluation(self):
        cw = rs_encode(b"red payload", 15)
        points = [1]
        for _ in range(14):
            points.append(slow_mul(points[-1], 2))
        manual = [poly_eval(list(cw), x) for x in points]
        assert manual == [0] * 15
        assert syndromes(cw, 15) == manual

    @given(st.binary(min_size=1, max_size=55), st.integers(0, 10_000))
    def test_single_byte_corruption_detected(self, data, salt):
        cw = rs_encode(data, 15)
        blob = bytearray(cw)
        pos = salt % len(blob)
        flip = 1 + (salt // len(blob)) % 255
        blob[pos] ^= flip
        assert any(s != 0 for s in syndromes(bytes(blob), 15))

    def test_zero_ecc_len_rejected(self):
        with pytest.raises(ValueError):
            rs_encode(b"x", 0)
