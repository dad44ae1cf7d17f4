"""Bit strings and GF(2^n) arithmetic.

Field elements are plain non-negative integers below 2^n: `gf_mul` and
`parity` take Python ints or numpy integer arrays, so one kernel serves a
single evaluation and a whole output table. `BitString` carries a length and
is the type of extractor inputs and outputs.

Conventions: bit index 0 is the least-significant coefficient of the
polynomial (and the least-significant bit of byte 0 in serialized form).
Trailing pad bits in the last byte are zero; the length is carried
out-of-band.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidArgumentError, checked_index

# Low-weight irreducible polynomials over GF(2), value includes the x^n term.
IRREDUCIBLE_POLY = {
    2: 0b111,                          # x^2 + x + 1
    3: 0b1011,                         # x^3 + x + 1
    4: 0b10011,                        # x^4 + x + 1
    6: 0b1000011,                      # x^6 + x + 1
    8: 0b1_0001_1011,                  # x^8 + x^4 + x^3 + x + 1
    16: (1 << 16) | (1 << 12) | 0b1011,  # x^16 + x^12 + x^3 + x + 1
    64: (1 << 64) | 0b11011,           # x^64 + x^4 + x^3 + x + 1
}


@dataclass(frozen=True)
class BitString:
    """An n-bit string stored as a non-negative integer, bit i = coefficient of 2^i."""

    value: int
    length: int

    def __post_init__(self):
        value, length = checked_index(self.value, "value"), checked_index(self.length, "length")
        if length < 0:
            raise InvalidArgumentError("length must be non-negative")
        if value < 0 or value >> length:
            raise InvalidArgumentError(f"value {value:#x} does not fit in {length} bits")
        object.__setattr__(self, "value", value)  # a numpy integer is kept as an int
        object.__setattr__(self, "length", length)

    def to_bytes(self) -> bytes:
        """Packed little-endian bit order; pad bits of the last byte are zero."""
        nbytes = (self.length + 7) // 8
        return self.value.to_bytes(nbytes, "little")

    @classmethod
    def from_bytes(cls, data: bytes, length: int) -> "BitString":
        length = checked_index(length, "length")
        if length < 0:
            raise InvalidArgumentError("length must be non-negative")
        if len(data) * 8 < length:
            raise InvalidArgumentError(f"{len(data)} bytes supply fewer than {length} bits")
        value = int.from_bytes(data, "little") & ((1 << length) - 1)
        return cls(value, length)


def poly_mod(p: int, modulus: int) -> int:
    """Remainder of polynomial p modulo `modulus` over GF(2)."""
    d = modulus.bit_length() - 1
    for i in range(p.bit_length() - 1, d - 1, -1):
        if (p >> i) & 1:
            p ^= modulus << (i - d)
    return p


def gf_mul(a, b, n: int):
    """Product of a, b < 2^n in GF(2^n), reduced modulo IRREDUCIBLE_POLY[n].

    The same lines run on Python ints (any n in the table) and elementwise on
    numpy int64 arrays of broadcastable shapes; arrays are used for n <= 16,
    all an output table needs, and the 2n - 1 bit unreduced product must fit.
    """
    if n not in IRREDUCIBLE_POLY:
        raise InvalidArgumentError(f"no fixed modulus for degree {n}")
    mod = IRREDUCIBLE_POLY[n]
    p = 0
    for i in range(n):  # carry-less product, one bit of b at a time
        p ^= (a << i) * ((b >> i) & 1)
    for i in range(2 * n - 2, n - 1, -1):  # clear bits 2n-2 ... n
        p ^= (mod << (i - n)) * ((p >> i) & 1)
    return p


def parity(x, n: int):
    """XOR of the n low bits of x, whose higher bits are zero; for ints or integer arrays."""
    shift = 1
    while shift < n:
        x = x ^ (x >> shift)
        shift <<= 1
    return x & 1


def is_irreducible(poly: int) -> bool:
    """Exhaustive trial division; intended for degrees up to ~16."""
    d = poly.bit_length() - 1
    if d < 1:
        return False
    if d == 1:
        return True
    for q in range(2, 1 << (d // 2 + 1)):
        if q.bit_length() - 1 < 1:
            continue
        if poly_mod(poly, q) == 0:
            return False
    return True
