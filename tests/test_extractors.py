import functools
import math
import pickle
import random

import pytest
from mpmath import mp

from markovext.bitfield import BitString, gf_pow, gf_mul, inner_product_mod2
from markovext.errors import CompositionError, ConstructionError, DomainError, InvalidArgumentError
from markovext.extractors import (
    WEAK_DESIGN_OVERLAP,
    ExtractorDescriptor,
    TrevisanParams,
    compose,
    deor_descriptor,
    deor_error,
    deor_extract,
    inner_product_descriptor,
    parity_seeded_descriptor,
    rsh_one_bit,
    trevisan_descriptor,
    trevisan_extract,
    trevisan_params,
    weak_design_build,
)


# ---------------------------------------------------------------------------
# DEOR
# ---------------------------------------------------------------------------

def test_deor_zero_factor():
    for x in range(16):
        out = deor_extract(BitString(x, 4), BitString(0, 4), 2)
        assert out.value == 0 and out.length == 2


def test_deor_identity_factor():
    for x in range(256):
        assert deor_extract(BitString(x, 8), BitString(1, 8), 8).value == x


def test_deor_gf4_example():
    # truncating the field product 0b1010 to the 2 low bits
    assert deor_extract(BitString(0b0011, 4), BitString(0b0110, 4), 2).value == 0b10


def test_deor_argument_errors():
    with pytest.raises(InvalidArgumentError):
        deor_extract(BitString(0, 5), BitString(0, 5), 1)
    with pytest.raises(InvalidArgumentError):
        deor_extract(BitString(0, 4), BitString(0, 4), 5)
    with pytest.raises(InvalidArgumentError):
        deor_extract(BitString(0, 4), BitString(0, 3), 2)


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
    (lambda: trevisan_extract(BitString(0, 8), BitString(0, 100), *_toy_trevisan().trevisan),
     InvalidArgumentError),
    (lambda: trevisan_extract(BitString(0, 8), BitString(0, 16),
                              _toy_trevisan().trevisan[0], weak_design_build(3, 4)),
     InvalidArgumentError),
    (lambda: parity_seeded_descriptor(4, 2).error_law(5.0), DomainError),
], ids=["design_no_sets", "design_one_block_of_200", "trevisan_seed_length",
        "trevisan_design_t", "parity_k_above_n"])
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
    alpha = seed.truncate(s).value
    beta = BitString(seed.value >> s, s)
    acc = 0
    for j in range(-(-x.length // s)):
        chunk = (x.value >> (j * s)) & ((1 << s) - 1)
        acc ^= gf_mul(chunk, gf_pow(alpha, j, s), s)
    return inner_product_mod2(BitString(acc, s), beta)


@pytest.mark.parametrize("t", [4, 6, 8, 16])
def test_rsh_matches_straight_line_oracle(t):
    rnd = random.Random(t)
    for _ in range(200):
        x = BitString(rnd.randrange(256), 8)
        seed = BitString(rnd.randrange(1 << t), t)
        assert rsh_one_bit(x, seed) == _rsh_oracle(x, seed)


def test_rsh_rejects_odd_or_unsupported_seed():
    with pytest.raises(InvalidArgumentError):
        rsh_one_bit(BitString(0, 8), BitString(0, 5))
    with pytest.raises(InvalidArgumentError):
        rsh_one_bit(BitString(0, 8), BitString(0, 10))  # GF(2^5) not in the table


def _toy_trevisan():
    # 2nm^2/eps^2 = 256 makes t land exactly on 16 (field GF(2^8))
    return trevisan_descriptor(8, 3, 0.75)


def test_trevisan_descriptor_executes_and_is_deterministic():
    d = _toy_trevisan()
    assert d.m == 3 and d.params["t"] == 16
    rnd = random.Random(9)
    x = BitString(rnd.randrange(256), 8)
    seed = BitString(rnd.randrange(1 << d.n2), d.n2)
    out1 = d.extract(x, seed)
    out2 = d.extract(x, seed)
    assert out1 == out2 and out1.length == 3


def test_trevisan_m1_reduces_to_single_rsh():
    p = trevisan_params(8, 4, 0.75)  # only used for its t
    design = weak_design_build(1, 16)
    params = TrevisanParams(t=16, a=1.0, k=10, d=256, t_exact=16.0, k_exact=10.0)
    rnd = random.Random(3)
    x = BitString(rnd.randrange(256), 8)
    seed = BitString(rnd.randrange(1 << 256), 256)
    out = trevisan_extract(x, seed, params, design)
    sub = BitString.from_bits(seed.bit(j) for j in sorted(design.sets[0]))
    assert out.value == rsh_one_bit(x, sub)


def test_trevisan_output_bit_locality():
    d = _toy_trevisan()
    # recover the design by rebuilding it the same way the descriptor does
    from markovext.extractors import weak_design_build as build

    params = trevisan_params(8, 3, 0.75)
    design = build(3, params.t, universe_blocks=-(-params.d // (params.t ** 2)))
    rnd = random.Random(21)
    x = BitString(rnd.randrange(256), 8)
    seed_val = rnd.randrange(1 << design.d_universe)
    seed = BitString(seed_val, design.d_universe)
    base = d.extract(x, seed)
    outside = [j for j in range(design.d_universe) if j not in design.sets[0]]
    for j in rnd.sample(outside, 20):
        flipped = BitString(seed_val ^ (1 << j), design.d_universe)
        assert d.extract(x, flipped).bit(0) == base.bit(0)


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


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
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
    weak = deor_descriptor(8, 3)
    object.__setattr__(weak, "strong_in", frozenset())
    with pytest.raises(CompositionError):
        compose(outer, weak)


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
])
def test_from_dict_refuses_what_its_constructor_does_not_build(d):
    with pytest.raises(DomainError):
        ExtractorDescriptor.from_dict(d)


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
