import random

import numpy as np
import pytest

from markovext.bitfield import (
    IRREDUCIBLE_POLY,
    BitString,
    gf_mul,
    is_irreducible,
    parity,
    poly_mod,
)
from markovext.errors import InvalidArgumentError
from markovext.extractors import inner_product_descriptor


# ---------------------------------------------------------------------------
# BitString
# ---------------------------------------------------------------------------

def test_bitstring_construction_and_bits():
    b = BitString(0b1011, 4)
    assert (b.value, b.length) == (0b1011, 4)
    with pytest.raises(InvalidArgumentError):
        BitString(16, 4)  # does not fit
    with pytest.raises(InvalidArgumentError):
        BitString(-1, 4)


@pytest.mark.parametrize("build", [
    lambda: BitString(0, -1),
    lambda: BitString(2.0, 4),
    lambda: BitString("3", 4),
    lambda: BitString(1, 2.0),
    lambda: BitString(True, 1),
    lambda: BitString(0, False),
    lambda: BitString.from_bytes(b"\x00", 2.0),
], ids=["negative_length", "float_value", "string_value", "float_length", "bool_value",
        "bool_length", "from_bytes_float_length"])
def test_bitstring_refuses_out_of_range_lengths(build):
    with pytest.raises(InvalidArgumentError):
        build()


def test_bitstring_takes_numpy_integers_as_ints():
    b = BitString(np.int64(11), np.uint8(4))
    assert b == BitString(11, 4)
    assert type(b.value) is int and type(b.length) is int
    assert b.to_bytes() == bytes([11])


def test_bitstring_bytes_roundtrip_little_endian():
    # bit 0 of the string is the least-significant bit of byte 0
    b = BitString(0x1234, 13)
    assert b.to_bytes() == bytes([0x34, 0x12])
    assert BitString.from_bytes(b.to_bytes(), 13) == b
    # pad bits beyond the length are masked off on load
    assert BitString.from_bytes(bytes([0xFF]), 3).value == 0b111
    assert BitString.from_bytes(bytes([0xF8]), 3).value == 0b000
    with pytest.raises(InvalidArgumentError):
        BitString.from_bytes(b"\x00", 9)
    with pytest.raises(InvalidArgumentError):
        BitString.from_bytes(b"\x00", -1)


# ---------------------------------------------------------------------------
# Field arithmetic
# ---------------------------------------------------------------------------

def test_gf4_multiplication_example():
    # in GF(2^4) with modulus x^4+x+1: 0b0011 * 0b0110 = 0b1010
    assert gf_mul(0b0011, 0b0110, 4) == 0b1010


def test_gf4_power_example():
    # x^4 = x^2 * x^2 = x + 1 modulo x^4+x+1
    assert gf_mul(0b0100, 0b0100, 4) == 0b0011


def test_gf_mul_degree_mismatch():
    for n in (0, 1, 5, 7, 32):  # no fixed modulus for these degrees
        with pytest.raises(InvalidArgumentError):
            gf_mul(1, 1, n)
        with pytest.raises(InvalidArgumentError):
            gf_mul(np.arange(4), np.arange(4), n)


def _schoolbook_mul(a: int, b: int, n: int) -> int:
    """Naive polynomial multiply then long-division reduction."""
    prod = 0
    for i in range(n):
        if (a >> i) & 1:
            for j in range(n):
                if (b >> j) & 1:
                    prod ^= 1 << (i + j)
    mod = IRREDUCIBLE_POLY[n]
    while prod.bit_length() > n:
        prod ^= mod << (prod.bit_length() - n - 1)
    return prod


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gf_mul_matches_schoolbook_exhaustive(n):
    for a in range(1 << n):
        for b in range(1 << n):
            assert gf_mul(a, b, n) == _schoolbook_mul(a, b, n)


def test_gf_mul_matches_schoolbook_random_n8():
    rnd = random.Random(11)
    for _ in range(2000):
        a, b = rnd.randrange(256), rnd.randrange(256)
        assert gf_mul(a, b, 8) == _schoolbook_mul(a, b, 8)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 16])
def test_gf_mul_on_arrays_matches_schoolbook(n):
    # one call on broadcast grids gives the elementwise products, as int64
    rnd = random.Random(n + 2)
    vals = list(range(1 << n)) if n <= 6 else [rnd.randrange(1 << n) for _ in range(64)]
    a, b = np.array(vals)[:, None], np.array(vals)[None, :]
    got = gf_mul(a, b, n)
    assert got.shape == (len(vals), len(vals)) and got.dtype == np.int64
    for i, x in enumerate(vals):
        for j, y in enumerate(vals):
            assert got[i, j] == _schoolbook_mul(x, y, n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_field_axioms_exhaustive(n):
    els = range(1 << n)
    for a in els:
        assert gf_mul(a, 1, n) == a
        for b in els:
            assert gf_mul(a, b, n) == gf_mul(b, a, n)
    # associativity and distributivity on the full cube is cubic; keep n small
    for a in els:
        for b in els:
            for c in els:
                assert gf_mul(gf_mul(a, b, n), c, n) == gf_mul(a, gf_mul(b, c, n), n)
                assert gf_mul(a, b ^ c, n) == gf_mul(a, b, n) ^ gf_mul(a, c, n)


@pytest.mark.parametrize("n", [8, 16, 64])
def test_field_axioms_random(n):
    rnd = random.Random(n)
    for _ in range(300):
        a, b, c = (rnd.randrange(1 << n) for _ in range(3))
        assert gf_mul(a, b, n) == gf_mul(b, a, n)
        assert gf_mul(gf_mul(a, b, n), c, n) == gf_mul(a, gf_mul(b, c, n), n)
        assert gf_mul(a, b ^ c, n) == gf_mul(a, b, n) ^ gf_mul(a, c, n)
        assert gf_mul(a, 1, n) == a


def _field_power(a: int, e: int, n: int) -> int:
    """a^e in GF(2^n), square-and-multiply over the bits of e from the top."""
    result = 1
    for i in reversed(range(e.bit_length())):
        result = gf_mul(result, result, n)
        if (e >> i) & 1:
            result = gf_mul(result, a, n)
    return result


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_nonzero_elements_have_unique_inverses(n):
    # a * a^(2^n - 2) = 1 for a != 0
    rnd = random.Random(n + 1)
    vals = range(1, 1 << n) if n <= 8 else [rnd.randrange(1, 1 << n) for _ in range(200)]
    for a in vals:
        assert gf_mul(a, _field_power(a, (1 << n) - 2, n), n) == 1


# ---------------------------------------------------------------------------
# Inner product, irreducibility
# ---------------------------------------------------------------------------

def test_inner_product_examples():
    ip = inner_product_descriptor(4).extract
    zero = BitString(0, 4)
    b = BitString(0b1011, 4)
    assert ip(zero, b) == BitString(0, 1)
    assert ip(b, b).value == b.value.bit_count() & 1
    # (1011, 1110): bitwise and = 1010, parity 0
    assert ip(BitString(0b1011, 4), BitString(0b1110, 4)).value == 0
    with pytest.raises(InvalidArgumentError):
        ip(BitString(0, 3), BitString(0, 4))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 13, 64, 100])
def test_parity_matches_bit_count_on_ints_and_arrays(n):
    rnd = random.Random(n)
    vals = [rnd.randrange(1 << n) for _ in range(50)] + [0, (1 << n) - 1]
    for v in vals:
        assert parity(v, n) == v.bit_count() & 1
    if n <= 16:
        arr = np.array(vals)
        got = parity(arr, n)
        assert got.tolist() == [v.bit_count() & 1 for v in vals]
        assert arr.tolist() == vals  # the input array is left alone


def test_modulus_table_entries_are_irreducible():
    for n, poly in IRREDUCIBLE_POLY.items():
        assert poly.bit_length() - 1 == n
        if n <= 16:
            assert is_irreducible(poly), f"degree {n} modulus is reducible"


def test_is_irreducible_rejects_square():
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2
    assert not is_irreducible(0b10101)
    assert is_irreducible(0b111)


def test_poly_mod_basics():
    assert poly_mod(0b10000, 0b10011) == 0b0011  # x^4 mod (x^4+x+1) = x+1
    assert poly_mod(0b101, 0b111) == 0b10  # x^2+1 = (x^2+x+1) + x
