import dataclasses
import functools
import json
import math
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from markovext import extractors
from markovext.bitfield import BitString, gf_mul
from markovext.errors import (
    CompositionError,
    ConstructionError,
    DomainError,
    InvalidArgumentError,
    MarkovExtError,
)
from markovext.extractors import (
    WEAK_DESIGN_OVERLAP,
    ExtractorDescriptor,
    ExtractorFamily,
    _rsh_bit,
    compose,
    deor_descriptor,
    deor_error,
    inner_product_descriptor,
    parity_seeded_descriptor,
    trevisan_descriptor,
    trevisan_params,
    weak_design_build,
)


# ---------------------------------------------------------------------------
# DEOR
# ---------------------------------------------------------------------------

def test_deor_zero_factor():
    for x in range(16):
        out = deor_descriptor(4, 2).extract(BitString(x, 4), BitString(0, 4))
        assert out.value == 0 and out.length == 2


def test_deor_identity_factor():
    for x in range(256):
        assert deor_descriptor(8, 8).extract(BitString(x, 8), BitString(1, 8)).value == x


def test_deor_gf4_example():
    # truncating the field product 0b1010 to the 2 low bits
    assert deor_descriptor(4, 2).extract(BitString(0b0011, 4), BitString(0b0110, 4)).value == 0b10


def test_deor_argument_errors():
    with pytest.raises(InvalidArgumentError):
        deor_descriptor(5, 1).extract(BitString(0, 5), BitString(0, 5))
    with pytest.raises(InvalidArgumentError):
        deor_descriptor(4, 5).extract(BitString(0, 4), BitString(0, 4))
    with pytest.raises(InvalidArgumentError):
        deor_descriptor(4, 2).extract(BitString(0, 4), BitString(0, 3))


def test_deor_error_values():
    assert deor_error(8, 6, 6, 2) == pytest.approx(2 ** -1.5, rel=1e-12)
    assert deor_error(6, 5, 5, 2) == pytest.approx(2 ** -1.5, rel=1e-12)
    # k1 + k2 <= n + m - 1 clamps to 1
    assert deor_error(8, 4, 4, 2) == 1.0
    assert deor_error(4, 2, 3, 2) == 1.0


def test_deor_descriptor_fields():
    d = deor_descriptor(8, 3)
    assert d.n1 == d.n2 == 8 and d.m == 3
    assert d.strong_in == frozenset({1, 2})
    assert d.error_law(7, 7) == pytest.approx(2 ** -2.0, rel=1e-12)
    assert d.extract(BitString(5, 8), BitString(9, 8)).length == 3


def test_inner_product_descriptor_matches_deor_m1_law():
    d = inner_product_descriptor(4)
    assert d.m == 1
    assert d.error_law(3, 3) == deor_error(4, 3, 3, 1)
    assert d.extract(BitString(0b1011, 4), BitString(0b1110, 4)).value == 0
    for n in (0, -1):
        with pytest.raises(InvalidArgumentError):
            inner_product_descriptor(n)


# ---------------------------------------------------------------------------
# Weak designs
# ---------------------------------------------------------------------------

def test_weak_design_single_set():
    d = weak_design_build(1, 4)
    assert d.m == 1 and len(d.sets) == 1 and len(d.sets[0]) == 4
    assert d.overlap_statistic(0) == 0.0


def test_weak_design_two_sets_t4():
    d = weak_design_build(2, 4)
    assert d.overlap_statistic(1) <= WEAK_DESIGN_OVERLAP * 1


@pytest.mark.parametrize("t", [4, 8, 16])
def test_weak_design_overlap_invariant_enumerated(t):
    for m in range(1, 65):
        d = weak_design_build(m, t)
        assert len(d.sets) == m
        for s in d.sets:
            assert len(s) == t
            assert all(0 <= j < d.d_universe for j in s)
        for i in range(m):
            assert d.overlap_statistic(i) <= WEAK_DESIGN_OVERLAP * (m - 1) + 1e-9


def test_weak_design_bad_t():
    with pytest.raises(ConstructionError):
        weak_design_build(4, 6)
    with pytest.raises(ConstructionError):
        weak_design_build(4, 2)


def test_weak_design_layout_search_takes_a_second_block():
    # one block of 16 polynomials over GF(4) is too few for 200 sets
    d = weak_design_build(200, 4)
    assert d.d_universe == 2 * 4 * 4
    for i in range(d.m):
        assert d.overlap_statistic(i) <= WEAK_DESIGN_OVERLAP * (d.m - 1) + 1e-9


@pytest.mark.parametrize("build,error", [
    (lambda: weak_design_build(0, 4), ConstructionError),
    (lambda: weak_design_build(200, 4, universe_blocks=1), ConstructionError),
    (lambda: parity_seeded_descriptor(4, 2).error_law(5.0), DomainError),
    (lambda: deor_descriptor(8, 3).error_law(7.0), DomainError),
    (lambda: inner_product_descriptor(8).error_law(7.0), DomainError),
    (lambda: compose(parity_seeded_descriptor(8, 3), deor_descriptor(8, 3)).error_law(7.0),
     DomainError),
    (lambda: weak_design_build(4, 4, universe_blocks=0), InvalidArgumentError),
    (lambda: weak_design_build(4, 4, universe_blocks=-1), InvalidArgumentError),
    (lambda: weak_design_build(4.0, 4), InvalidArgumentError),
    (lambda: weak_design_build(4, True), InvalidArgumentError),
], ids=["design_no_sets", "design_one_block_of_200", "parity_k_above_n", "deor_law_without_k2",
        "inner_product_law_without_k2", "composed_law_without_k2", "design_zero_blocks",
        "design_negative_blocks", "design_float_m", "design_bool_t"])
def test_constructions_refuse_out_of_range_input(build, error):
    with pytest.raises(error):
        build()


# ---------------------------------------------------------------------------
# Trevisan parameters
# ---------------------------------------------------------------------------

def test_trevisan_params_large_instance():
    p = trevisan_params(2 ** 20, 256, 2 ** -40)
    assert p.t_exact == pytest.approx(234.0, rel=1e-12)
    assert p.t == 234
    assert p.k == 454
    assert p.d % p.t == 0 and p.d >= p.a * p.t * p.t - 1e-6


def test_trevisan_k_identity_and_a_clamp():
    rnd = random.Random(5)
    for _ in range(50):
        n = rnd.randrange(64, 1 << 16)
        m = rnd.randrange(4, 64)
        eps = 2.0 ** -rnd.uniform(4, 30)
        p = trevisan_params(n, m, eps)
        assert p.k_exact - m == pytest.approx(4 * math.log2(m / eps) + 6, rel=1e-9)
        if m <= p.t:
            assert p.a == 1.0


def test_trevisan_params_domain_errors():
    with pytest.raises(DomainError):
        trevisan_params(16, 2, 0.1)  # m <= e
    with pytest.raises(DomainError):
        trevisan_params(16, 4, 1.5)
    with pytest.raises(DomainError):
        trevisan_params(3, 4, 0.1)  # m > n


# ---------------------------------------------------------------------------
# RSH one-bit extractor and Trevisan extraction
# ---------------------------------------------------------------------------

def _rsh_oracle(x: BitString, seed: BitString) -> int:
    """Straight-line re-implementation: explicit powers of alpha, no Horner."""
    s = seed.length // 2
    alpha = seed.value & ((1 << s) - 1)
    beta = seed.value >> s
    acc = 0
    for j in range(-(-x.length // s)):
        chunk = (x.value >> (j * s)) & ((1 << s) - 1)
        power = 1
        for _ in range(j):  # alpha^j
            power = gf_mul(power, alpha, s)
        acc ^= gf_mul(chunk, power, s)
    return (acc & beta).bit_count() & 1


@pytest.mark.parametrize("t", [4, 6, 8, 16])
def test_rsh_matches_straight_line_oracle(t):
    rnd = random.Random(t)
    for _ in range(200):
        x = BitString(rnd.randrange(256), 8)
        seed = BitString(rnd.randrange(1 << t), t)
        assert _rsh_bit(x.value, x.length, seed.value, t // 2) == _rsh_oracle(x, seed)


def _toy_trevisan():
    # 2nm^2/eps^2 = 256 makes t land exactly on 16 (field GF(2^8))
    return trevisan_descriptor(8, 3, 0.75)


def _toy_trevisan_parts(eps=0.75):
    """The (TrevisanParams, WeakDesign) pair of trevisan_descriptor(8, 3, eps), rebuilt as the
    descriptor builds it."""
    params = trevisan_params(8, 3, eps)
    return params, weak_design_build(3, params.t, universe_blocks=-(-params.d // params.t ** 2))


def test_trevisan_descriptor_executes_and_is_deterministic():
    d = _toy_trevisan()
    assert d.m == 3 and d.params["t"] == 16
    rnd = random.Random(9)
    x = BitString(rnd.randrange(256), 8)
    seed = BitString(rnd.randrange(1 << d.n2), d.n2)
    out1 = d.extract(x, seed)
    out2 = d.extract(x, seed)
    assert out1 == out2 and out1.length == 3


@pytest.mark.parametrize("eps", [0.99, 0.95, 0.9, 0.75])
def test_every_trevisan_output_bit_is_the_rsh_bit_of_its_set(eps):
    d = trevisan_descriptor(8, 3, eps)
    params, design = _toy_trevisan_parts(eps)
    rnd = random.Random(int(100 * eps))
    for _ in range(50):
        x = BitString(rnd.randrange(256), 8)
        seed = rnd.randrange(1 << d.n2)
        out = d.extract(x, BitString(seed, d.n2)).value
        for i, st in enumerate(design.sets):
            sub = 0  # the seed bits at the positions of S_i, lowest position lowest
            for j in sorted(st, reverse=True):
                sub = (sub << 1) | ((seed >> j) & 1)
            assert (out >> i) & 1 == _rsh_oracle(x, BitString(sub, params.t))


def test_trevisan_output_bit_locality():
    d = _toy_trevisan()
    _, design = _toy_trevisan_parts()
    rnd = random.Random(21)
    x = BitString(rnd.randrange(256), 8)
    seed_val = rnd.randrange(1 << design.d_universe)
    seed = BitString(seed_val, design.d_universe)
    base = d.extract(x, seed)
    outside = [j for j in range(design.d_universe) if j not in design.sets[0]]
    for j in rnd.sample(outside, 20):
        flipped = BitString(seed_val ^ (1 << j), design.d_universe)
        assert d.extract(x, flipped).value & 1 == base.value & 1


def test_gf_products_per_trevisan_build_and_extract(monkeypatch):
    # Both Horner loops start at the leading coefficient, so a polynomial of degree c - 1
    # takes c - 1 products: the (8, 3, 0.9) design's 3 sets of 16 members have degree 0,
    # and its 8-bit x is one coefficient of GF(2^8), so build and extract take none
    calls = []

    def counted(a, b, n):
        calls.append(n)
        return gf_mul(a, b, n)

    monkeypatch.setattr(extractors, "gf_mul", counted)
    ext = trevisan_descriptor(8, 3, 0.9)
    assert len(calls) == 0
    ext.extract(BitString(0xA5, 8), BitString(random.Random(3).randrange(1 << ext.n2), ext.n2))
    assert len(calls) == 0
    weak_design_build(20, 4, universe_blocks=1)  # degree 2 over GF(4): 2 products a member
    assert len(calls) == 20 * 4 * 2
    calls.clear()
    _rsh_bit(0xBEEF, 16, 0x1234, 8)  # two coefficients of GF(2^8): 1 product
    assert calls == [8]


# ---------------------------------------------------------------------------
# Parity toy extractor and composition
# ---------------------------------------------------------------------------

def test_parity_extractor_values():
    d = parity_seeded_descriptor(8, 3)
    assert d.extract(BitString(0b101, 8), BitString(0b101, 3)).value == 0
    assert d.extract(BitString(0b001, 8), BitString(0b001, 3)).value == 1
    # only the low 3 bits of x matter
    assert d.extract(BitString(0b11111000, 8), BitString(0b111, 3)).value == 0


def test_parity_error_law_uniform_source():
    # at full entropy only the all-zero seed biases the output: 2^{-d-1}
    d = parity_seeded_descriptor(8, 3)
    assert d.error_law(8) == pytest.approx(2 ** -4, abs=1e-15)
    # law is non-increasing in k
    ks = [3, 4, 5, 6, 7, 8]
    errs = [d.error_law(k) for k in ks]
    assert all(a >= b - 1e-15 for a, b in zip(errs, errs[1:]))
    # past n = 1023, where 2.0 ** k overflows: a concentrated source leaks its bit, and the
    # uniform one still gives 2^{-d-1}
    big = parity_seeded_descriptor(1100, 3)
    assert (big.error_law(1050.0), big.error_law(1100)) == (0.5, 2 ** -4)


@functools.cache
def _sorted_character_sums(d: int) -> list:
    """For each sign pattern sigma over the 2^d seeds, the sums
    sum_s sigma_s (-1)^<v, s> over v, in descending order; they depend on d alone."""
    D = 1 << d
    return [
        sorted(
            (
                sum(
                    (1 if (sigma >> s) & 1 else -1) * (-1 if (v & s).bit_count() & 1 else 1)
                    for s in range(D)
                )
                for v in range(D)
            ),
            reverse=True,
        )
        for sigma in range(1 << D)
    ]


def _parity_flat_error_loop(n: int, d: int, k: float) -> float:
    """The parity law as a Python loop over sign patterns, each with a greedy fill."""
    size = math.ceil(2.0 ** k - 1e-12)
    D = 1 << d
    cap = 1 << (n - d)
    best = 0.0
    for vals in _sorted_character_sums(d):
        remaining, acc = size, 0
        for val in vals:
            take = min(cap, remaining)
            acc += take * val
            remaining -= take
            if not remaining:
                break
        best = max(best, acc)
    return min(1.0, best / (2.0 * D * size))


def test_parity_error_law_matches_the_loop():
    for n in range(1, 9):
        for d in range(1, min(n, 3) + 1):
            law = parity_seeded_descriptor(n, d).error_law
            for size in range(1, (1 << n) + 1):
                k = math.log2(size)
                assert law(k) == _parity_flat_error_loop(n, d, k), (n, d, size)
    # near n = 64 the fill reaches 2^(n+d), beyond int64
    for n, d in [(59, 3), (60, 3), (62, 2), (64, 1), (64, 2), (64, 3)]:
        for k in (1.0, 4.7, n - 3.3, n - 0.5, n - 1e-9, n):
            assert parity_seeded_descriptor(n, d).error_law(k) == _parity_flat_error_loop(n, d, k)


@pytest.mark.parametrize("n,d,k,expected", [
    (8, 4, 7, 0.125),
    (8, 4, math.log2(200), 0.0825),
    (4, 4, math.log2(7), 0.15178571428571427),
])
def test_parity_error_law_at_d4_keeps_the_loop_values(n, d, k, expected):
    # the loop's values; it takes seconds a call at d = 4
    assert parity_seeded_descriptor(n, d).error_law(k) == expected


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, True, 10 ** 400, Decimal("7")],
                         ids=["nan", "inf", "-inf", "bool", "huge", "decimal"])
@pytest.mark.parametrize("build", [
    lambda: parity_seeded_descriptor(8, 3),
    lambda: compose(parity_seeded_descriptor(8, 3), deor_descriptor(8, 3)),
    lambda: trevisan_descriptor(8, 3, 0.9),
], ids=["parity", "composed", "trevisan"])
def test_seeded_error_laws_refuse_non_finite_entropy(build, k):
    with pytest.raises(DomainError):
        build().error_law(k, 0)


def test_compose_dimension_and_strongness_checks():
    inner = deor_descriptor(8, 3)
    outer = parity_seeded_descriptor(8, 3)
    c = compose(outer, inner)
    assert c.n1 == 8 and c.n2 == 8 and c.m == outer.m == 1
    with pytest.raises(CompositionError):
        compose(parity_seeded_descriptor(8, 2), inner)  # seed length mismatch
    with pytest.raises(CompositionError):
        compose(parity_seeded_descriptor(4, 3), inner)  # source length mismatch
    with pytest.raises(CompositionError, match="seeded"):
        compose(deor_descriptor(3, 3), deor_descriptor(3, 3))  # lengths chain, outer two-source
    # a parity inner has the right lengths (output 1 = the seed of parity(8, 1)) but is
    # strong only in its seed, input 2
    weak = parity_seeded_descriptor(8, 3)
    assert 1 not in weak.strong_in
    with pytest.raises(CompositionError, match="strong in input 1"):
        compose(parity_seeded_descriptor(8, 1), weak)


def test_compose_function_is_literal_composition():
    inner = deor_descriptor(8, 3)
    outer = parity_seeded_descriptor(8, 3)
    c = compose(outer, inner)
    rnd = random.Random(2)
    for _ in range(50):
        x1 = BitString(rnd.randrange(256), 8)
        x2 = BitString(rnd.randrange(256), 8)
        assert c.extract(x1, x2) == outer.extract(x1, inner.extract(x1, x2))


def test_compose_error_law_is_additive():
    inner = deor_descriptor(8, 3)
    outer = parity_seeded_descriptor(8, 3)
    c = compose(outer, inner)
    assert c.error_law(7, 7) == pytest.approx(
        inner.error_law(7, 7) + outer.error_law(7), rel=1e-12
    )


# ---------------------------------------------------------------------------
# Descriptors as values
# ---------------------------------------------------------------------------

def _deor_dict(n, m):
    return {"family": "DEOR", "n1": n, "n2": n, "m": m, "strong_in": [1, 2],
            "params": {"n": n, "m": m}}


_PARITY_8_3 = {"family": "ParitySeeded", "n1": 8, "n2": 3, "m": 1, "strong_in": [2],
               "params": {"n": 8, "d": 3}}

# to_dict output of every family, written out as the descriptor files hold it
_FAMILY_DICTS = [
    *[(lambda n=n: deor_descriptor(n, 2), _deor_dict(n, 2)) for n in (2, 3, 4, 6, 8, 16, 64)],
    (lambda: inner_product_descriptor(8),
     {"family": "InnerProduct", "n1": 8, "n2": 8, "m": 1, "strong_in": [1, 2],
      "params": {"n": 8}}),
    (lambda: parity_seeded_descriptor(8, 3), _PARITY_8_3),
    (lambda: trevisan_descriptor(8, 3, 0.9),
     {"family": "TrevisanSeeded", "n1": 8, "n2": 256, "m": 3, "strong_in": [2],
      "params": {"n": 8, "m": 3, "eps": 0.9, "t": 16, "d": 256}}),
    (lambda: compose(parity_seeded_descriptor(8, 3), deor_descriptor(8, 3)),
     {"family": "Composed", "n1": 8, "n2": 8, "m": 1, "strong_in": [],
      "params": {"outer": _PARITY_8_3, "inner": _deor_dict(8, 3)}}),
]


@pytest.mark.parametrize("build,expected", _FAMILY_DICTS,
                         ids=[d["family"] + str(d["n1"]) for _, d in _FAMILY_DICTS])
def test_descriptor_is_a_value(build, expected):
    d = build()
    assert d.to_dict() == expected
    rebuilt = ExtractorDescriptor.from_dict(d.to_dict())
    unpickled = pickle.loads(pickle.dumps(d))
    assert rebuilt == d == build() == unpickled
    assert hash(rebuilt) == hash(d) == hash(build()) == hash(unpickled)
    rnd = random.Random(d.n1)
    for _ in range(10):
        x1 = BitString(rnd.getrandbits(d.n1), d.n1)
        x2 = BitString(rnd.getrandbits(d.n2), d.n2)
        assert rebuilt.extract(x1, x2) == unpickled.extract(x1, x2) == d.extract(x1, x2)


def test_descriptor_values_differ_by_parameters():
    assert deor_descriptor(8, 2) != deor_descriptor(8, 3)
    assert trevisan_descriptor(8, 3, 0.9) != trevisan_descriptor(8, 3, 0.75)
    assert compose(parity_seeded_descriptor(8, 3), deor_descriptor(8, 3)) != compose(
        parity_seeded_descriptor(8, 2), deor_descriptor(8, 2))


def test_a_descriptor_is_a_family_and_its_params():
    assert [f.name for f in dataclasses.fields(ExtractorDescriptor) if f.init] == [
        "family", "params"]
    given = {"m": 3, "n": 8}
    d = ExtractorDescriptor("DEOR", given)
    given["m"] = 5
    # the family coerced, the params copied in the order to_dict writes
    assert d == deor_descriptor(8, 3) and d.family is ExtractorFamily.DEOR
    assert json.dumps(d.to_dict()) == json.dumps(deor_descriptor(8, 3).to_dict())
    for name in ("family", "params", "n1", "n2", "m", "strong_in"):
        with pytest.raises(AttributeError):
            setattr(d, name, 1)
    # the Trevisan constructor adds the derived t and d
    t = ExtractorDescriptor(ExtractorFamily.TREVISAN_SEEDED, {"n": 8, "m": 3, "eps": 0.9})
    assert t == trevisan_descriptor(8, 3, 0.9)
    assert t.params == {"n": 8, "m": 3, "eps": 0.9, "t": 16, "d": 256}
    # eps is kept as the float it is checked as, so any real gives the same descriptor
    for eps, as_float in ((Fraction(9, 10), 0.9), (np.float64(0.9), 0.9),
                          (np.float32(0.75), 0.75)):
        d = trevisan_descriptor(8, 3, eps)
        assert d == trevisan_descriptor(8, 3, as_float) and type(d.params["eps"]) is float
        assert json.dumps(d.to_dict()) == json.dumps(trevisan_descriptor(8, 3, as_float).to_dict())
        assert d.error_law(100) == as_float


_DEOR_3_3 = deor_descriptor(3, 3)


@pytest.mark.parametrize("family,params,error", [
    (ExtractorFamily.DEOR, {"n": 5, "m": 1}, InvalidArgumentError),
    (ExtractorFamily.DEOR, {"n": 4, "m": 9}, InvalidArgumentError),
    (ExtractorFamily.INNER_PRODUCT, {"n": 4, "n2": 2}, InvalidArgumentError),
    (ExtractorFamily.TREVISAN_SEEDED, {"eps": 0.9}, InvalidArgumentError),
    (ExtractorFamily.COMPOSED, {}, InvalidArgumentError),
    (ExtractorFamily.DEOR, {"n": "8", "m": 2}, InvalidArgumentError),
    (ExtractorFamily.COMPOSED, {"outer": _DEOR_3_3, "inner": _DEOR_3_3}, CompositionError),
    (ExtractorFamily.DEOR, {"n": 8}, InvalidArgumentError),
    (ExtractorFamily.DEOR, {"n": 8, "m": 2, "strong_in": [1]}, InvalidArgumentError),
    (ExtractorFamily.TREVISAN_SEEDED, {"n": 8, "m": 3, "eps": 0.9, "t": 16, "d": 256},
     InvalidArgumentError),
    (ExtractorFamily.COMPOSED, {"outer": _PARITY_8_3, "inner": deor_descriptor(8, 3)},
     CompositionError),
    (ExtractorFamily.COMPOSED, {"outer": parity_seeded_descriptor(8, 3), "inner": None},
     CompositionError),
    ("NoSuchFamily", {"n": 8}, InvalidArgumentError),
    (None, {"n": 8}, InvalidArgumentError),
    (ExtractorFamily.INNER_PRODUCT, [("n", 8)], InvalidArgumentError),
    (ExtractorFamily.INNER_PRODUCT, {"n": 8, 1: 2}, InvalidArgumentError),
    (ExtractorFamily.PARITY_SEEDED, {"n": 8, "d": 5}, InvalidArgumentError),
    (ExtractorFamily.TREVISAN_SEEDED, {"n": 8, "m": 3, "eps": 0.5}, ConstructionError),
], ids=["deor_no_modulus", "deor_m_above_n", "inner_product_n2", "trevisan_eps_only",
        "composed_empty", "deor_string_n", "composed_two_source_outer", "deor_missing_m",
        "deor_unknown_strong_in", "trevisan_derived_keys", "composed_dict_outer",
        "composed_none_inner", "unknown_family", "none_family", "params_not_a_dict",
        "params_int_key", "parity_d_5", "trevisan_t_20"])
def test_direct_construction_refuses_what_would_not_run(family, params, error):
    with pytest.raises(error):
        ExtractorDescriptor(family, params)


# per family and params key, values that often build; any key may instead get a junk value
_NEAR_VALID = {
    ExtractorFamily.DEOR: {"n": [2, 3, 4, 5, 8, 64], "m": [1, 2, 3, 8]},
    ExtractorFamily.INNER_PRODUCT: {"n": [0, 1, 4, 64]},
    ExtractorFamily.PARITY_SEEDED: {"n": [1, 3, 8, 64], "d": [1, 3, 4, 5]},
    ExtractorFamily.TREVISAN_SEEDED: {"n": [3, 4, 8], "m": [3, 4], "eps": [0.5, 0.75, 0.9]},
    ExtractorFamily.COMPOSED: {
        "outer": [parity_seeded_descriptor(8, 3), parity_seeded_descriptor(8, 1),
                  trevisan_descriptor(8, 3, 0.9), deor_descriptor(8, 3)],
        "inner": [deor_descriptor(8, 3), deor_descriptor(8, 1), inner_product_descriptor(8),
                  parity_seeded_descriptor(8, 1)]},
}
_JUNK = [-1, 70, 8.0, True, "8", None, 0.9, _PARITY_8_3]


@st.composite
def _family_and_params(draw):
    """A family with values for its params keys, and maybe one key dropped or added."""
    family = draw(st.sampled_from(list(ExtractorFamily)))
    params = {k: draw(st.sampled_from(v if draw(st.integers(0, 5)) else _JUNK))
              for k, v in _NEAR_VALID[family].items()}
    edit = draw(st.sampled_from(["none", "none", "none", "drop", "add"]))
    if edit == "drop":
        del params[draw(st.sampled_from(sorted(params)))]
    elif edit == "add":
        params[draw(st.sampled_from(["t", "n1", "x"]))] = 3
    return family, params


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_family_and_params())
def test_every_descriptor_the_constructor_builds_runs(family_params):
    try:
        d = ExtractorDescriptor(*family_params)
    except MarkovExtError:
        return
    assert ExtractorDescriptor.from_dict(d.to_dict()) == d
    rnd = random.Random(repr(family_params))
    x1, x2 = BitString(rnd.getrandbits(d.n1), d.n1), BitString(rnd.getrandbits(d.n2), d.n2)
    assert d.extract(x1, x2).length == d.m
    assert 0.0 <= d.error_law(d.n1 / 2, d.n2 / 2) <= 1.0


def test_from_dict_takes_only_the_constructor_fields():
    assert ExtractorDescriptor.from_dict(
        {"family": "DEOR", "n1": 8, "m": 4, "params": {}}) == deor_descriptor(8, 4)
    assert ExtractorDescriptor.from_dict(
        {"family": "TrevisanSeeded", "n1": 8, "m": 3, "params": {"eps": 0.9}}
    ) == trevisan_descriptor(8, 3, 0.9)


@pytest.mark.parametrize("d", [
    {"family": "DEOR", "n1": 8, "n2": 16, "m": 4},
    {"family": "DEOR", "n1": 8, "n2": 8, "m": 4, "strong_in": [1]},
    {"family": "DEOR", "n1": 8, "n2": 8, "m": 4, "params": {"m": 5}},
    {"family": "InnerProduct", "n1": 8, "n2": 8, "m": 2},
    {"family": "TrevisanSeeded", "n1": 8, "m": 3, "params": {"eps": 0.9, "t": 32}},
    {"family": "Composed", "n1": 8, "n2": 8, "m": 2,
     "params": {"outer": _PARITY_8_3, "inner": _deor_dict(8, 3)}},
    {"family": "DEOR", "n1": 8},
    {"family": "TrevisanSeeded", "n1": 8, "m": 3, "params": {}},
    {"family": "NoSuchFamily", "n1": 8},
    [1, 2],
    {"family": "DEOR", "n1": 8, "m": 4, "n_2": 16},
    {"family": "DEOR", "n1": 8, "m": 4, "params": []},
    {"family": "Composed", "params": {"outer": _PARITY_8_3, "inner": _deor_dict(8, 3), "x": {}}},
    {"family": "DEOR", "n1": 8, "n2": 8.0, "m": 4},
    {"family": "DEOR", "n1": 8, "m": 4, "strong_in": [True, 2]},
    {"family": "InnerProduct", "n1": 1, "m": True},
    {"family": "TrevisanSeeded", "n1": 8, "m": 3, "params": {"eps": 0.9, "t": 16.0}},
])
def test_from_dict_refuses_what_its_constructor_does_not_build(d):
    with pytest.raises(DomainError):
        ExtractorDescriptor.from_dict(d)


_JSON_VALUES = [0, 1, 2, 3, 8, 16, 256, 1.0, 8.0, 0.9, True, False, "8", None, [1, 2], [2],
                [True, 2], {}]


@st.composite
def _edited_descriptor_dicts(draw):
    """A family's to_dict output, nested descriptors included, with up to two fields dropped,
    added or given another JSON value."""
    d = json.loads(json.dumps(draw(st.sampled_from([e for _, e in _FAMILY_DICTS]))))
    for _ in range(draw(st.integers(0, 2))):
        owners = [v for v in (d, d.get("params")) if isinstance(v, dict)]
        owners += [v for v in owners[-1].values() if isinstance(v, dict)]
        owner = draw(st.sampled_from(owners))
        key = draw(st.sampled_from(sorted(owner) + ["x", "n_2"]))
        if key in owner and draw(st.booleans()):
            del owner[key]
        else:
            owner[key] = draw(st.sampled_from(_JSON_VALUES))
    return d


def _agrees(given, written) -> bool:
    """Each field of `given` is in `written` with the same JSON text; objects field by field."""
    def same(v, w):
        if isinstance(v, dict) and isinstance(w, dict):
            return _agrees(v, w)
        return json.dumps(v) == json.dumps(w)

    return all(k in written and same(v, written[k]) for k, v in given.items())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_edited_descriptor_dicts())
def test_from_dict_takes_only_the_fields_to_dict_writes(d):
    try:
        ext = ExtractorDescriptor.from_dict(d)
    except MarkovExtError:
        return
    assert _agrees(d, ext.to_dict())


def test_from_dict_names_each_field_it_refuses():
    with pytest.raises(DomainError) as info:
        ExtractorDescriptor.from_dict(
            {"family": "InnerProduct", "n1": 4, "m": 2, "n_2": 4, "params": {"n": 4, "k": 1}})
    assert str(info.value) == ("m: InnerProduct takes 1, got 2; n_2: InnerProduct takes no "
                               "such field, got 4; params.k: InnerProduct takes no such field, "
                               "got 1")


def test_trevisan_without_a_field_modulus_is_refused_at_build():
    # t = 64 needs GF(2^32) for the one-bit extractor
    with pytest.raises(ConstructionError):
        trevisan_descriptor(32, 8, 1e-3)


def test_every_trevisan_descriptor_that_builds_extracts():
    rnd = random.Random(4)
    built = 0
    for n in (8, 16, 32, 64):
        for m in (3, 4, 8):
            for eps in (0.99, 0.9, 0.75, 0.5, 0.1, 1e-3):
                if m > n:
                    continue
                try:
                    d = trevisan_descriptor(n, m, eps)
                except (ConstructionError, DomainError):
                    continue
                built += 1
                x = BitString(rnd.getrandbits(n), n)
                seed = BitString(rnd.getrandbits(d.n2), d.n2)
                assert d.extract(x, seed).length == m
    assert built >= 3


@pytest.mark.parametrize("eps", ["0.5", None, [0.5], True], ids=["string", "none", "list", "bool"])
def test_trevisan_refuses_an_eps_that_is_not_a_real_number(eps):
    with pytest.raises(DomainError, match="real number"):
        trevisan_params(8, 3, eps)
    with pytest.raises(DomainError, match="real number"):
        trevisan_descriptor(8, 3, eps)
