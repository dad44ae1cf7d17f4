"""Concrete extractor constructions.

* DEOR: GF(2^n) multiplication truncated to the m low-order bits; strong in
  both inputs, with classical error 2^{-(k1+k2+1-n-m)/2}.
* A Trevisan-style seeded extractor built from a block weak design and a
  Reed-Solomon-Hadamard one-bit extractor.
* The strong-extractor composition combinator
  Ext''(x1, x2) = Ext'(x1, Ext(x1, x2)).

Each family has one kernel, `ExtractorDescriptor.evaluate`, on plain
integers; it runs elementwise on numpy arrays too, which builds whole output
tables, and `extract` is its `BitString` edge.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np
from mpmath import mp

from .bitfield import IRREDUCIBLE_POLY, BitString, gf_mul, parity
from .errors import CompositionError, ConstructionError, DomainError, InvalidArgumentError

WEAK_DESIGN_OVERLAP = 2 * math.e  # declared overlap parameter r


class ExtractorFamily(str, Enum):
    DEOR = "DEOR"
    INNER_PRODUCT = "InnerProduct"
    TREVISAN_SEEDED = "TrevisanSeeded"
    PARITY_SEEDED = "ParitySeeded"
    COMPOSED = "Composed"


@dataclass(frozen=True)
class ExtractorDescriptor:
    """A concrete extractor as a value: family, dimensions and parameters.

    Equal descriptors compute the same function with the same error law, so
    they serve as cache keys; ``params`` counts for equality but not the hash.
    ``strong_in`` lists the inputs in which the extractor is strong (1 and/or
    2); input 2 of a seeded extractor is its seed.
    """

    family: ExtractorFamily
    n1: int
    n2: int
    m: int
    strong_in: frozenset = frozenset()
    params: dict = field(default_factory=dict, hash=False)
    # Trevisan only: (TrevisanParams, WeakDesign), built once by trevisan_descriptor.
    trevisan: Optional[tuple] = field(default=None, compare=False, repr=False)

    def extract(self, x1: BitString, x2: BitString) -> BitString:
        if x1.length != self.n1 or x2.length != self.n2:
            raise InvalidArgumentError(
                f"input lengths ({x1.length}, {x2.length}) do not match ({self.n1}, {self.n2})"
            )
        return BitString(self.evaluate(x1.value, x2.value), self.m)

    def evaluate(self, x1, x2):
        """Ext(x1, x2) on integers x1 < 2^n1, x2 < 2^n2, unchecked.

        Python ints, or numpy integer arrays of broadcastable shapes for the
        families whose tables fit the enumeration budget (n <= 16); the
        Trevisan extractor, whose seed has at least t^2 = 256 bits, takes ints.
        """
        family = self.family
        if family is ExtractorFamily.DEOR:
            return gf_mul(x1, x2, self.n1) & ((1 << self.m) - 1)
        if family in (ExtractorFamily.INNER_PRODUCT, ExtractorFamily.PARITY_SEEDED):
            # <low n2 bits of x1, x2>; for the inner product n2 = n1
            return parity(x1 & x2, self.n2)
        if family is ExtractorFamily.TREVISAN_SEEDED:
            return trevisan_extract(
                BitString(x1, self.n1), BitString(x2, self.n2), *self.trevisan).value
        outer, inner = self.params["outer"], self.params["inner"]
        return outer.evaluate(x1, inner.evaluate(x1, x2))

    def error_law(self, k1: float, k2: Optional[float] = None) -> float:
        """Error at min-entropies (k1, k2) for two-source families, at k1 for seeded ones."""
        family = self.family
        if family in (ExtractorFamily.DEOR, ExtractorFamily.INNER_PRODUCT):
            return deor_error(self.n1, k1, k2, self.m)
        if family is ExtractorFamily.PARITY_SEEDED:
            return _parity_flat_error(self.n1, self.n2, k1)
        if family is ExtractorFamily.TREVISAN_SEEDED:
            if not math.isfinite(k1):
                raise DomainError(f"entropy must be finite, got k={k1}")
            return self.params["eps"] if k1 >= self.trevisan[0].k else 1.0
        outer, inner = self.params["outer"], self.params["inner"]
        return min(1.0, inner.error_law(k1, k2) + outer.error_law(k1))

    def to_dict(self) -> dict:
        return {
            "family": self.family.value,
            "n1": self.n1,
            "n2": self.n2,
            "m": self.m,
            "strong_in": sorted(self.strong_in),
            "params": {k: v.to_dict() if isinstance(v, ExtractorDescriptor) else v
                       for k, v in self.params.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExtractorDescriptor":
        """Rebuild a descriptor through its family's constructor; the inverse of to_dict.

        Fields the constructor does not need may be left out. Raises DomainError
        when a field is missing or disagrees with what the constructor builds.
        """
        try:
            family, params = ExtractorFamily(d["family"]), dict(d.get("params", {}))
        except (KeyError, TypeError, ValueError):
            raise DomainError(f"malformed descriptor {d!r}") from None
        try:
            if family is ExtractorFamily.DEOR:
                ext = deor_descriptor(d["n1"], d["m"])
            elif family is ExtractorFamily.INNER_PRODUCT:
                ext = inner_product_descriptor(d["n1"])
            elif family is ExtractorFamily.PARITY_SEEDED:
                ext = parity_seeded_descriptor(d["n1"], d["n2"])
            elif family is ExtractorFamily.TREVISAN_SEEDED:
                ext = trevisan_descriptor(d["n1"], d["m"], params["eps"])
            else:
                ext = compose(cls.from_dict(params["outer"]), cls.from_dict(params["inner"]))
        except (KeyError, TypeError) as e:
            raise DomainError(f"{family.value} descriptor lacks or mistypes {e}") from None
        built = ext.to_dict()
        # nested descriptors were checked by their own from_dict
        scalars = {k: v for k, v in params.items() if not isinstance(v, dict)}
        given = {**built, **d, "params": {**built["params"], **scalars}}
        wrong = [f"{k}: {family.value} takes {built[k]}, got {given[k]}"
                 for k in built if given[k] != built[k]]
        if wrong:
            raise DomainError("; ".join(wrong))
        return ext


# ---------------------------------------------------------------------------
# DEOR
# ---------------------------------------------------------------------------

def deor_extract(x1: BitString, x2: BitString, m: int) -> BitString:
    """The m low-order bits of x1 * x2 in GF(2^n), n = x1.length."""
    return deor_descriptor(x1.length, m).extract(x1, x2)


def deor_error(n: int, k1: float, k2: float, m: int) -> float:
    """Classical error 2^{-(k1+k2+1-n-m)/2}, clamped to 1.

    Evaluated in double precision, clamped before exponentiating so that very
    low entropies give 1.0 rather than an overflow. Raises DomainError for a
    non-finite entropy.
    """
    if not (math.isfinite(k1) and math.isfinite(k2)):
        raise DomainError(f"entropies must be finite, got k1={k1}, k2={k2}")
    e = -(k1 + k2 + 1 - n - m) / 2
    return 1.0 if e >= 0 else 2.0 ** e


def deor_descriptor(n: int, m: int) -> ExtractorDescriptor:
    if n not in IRREDUCIBLE_POLY:
        raise InvalidArgumentError(f"unsupported input length {n}")
    if not 1 <= m <= n:
        raise InvalidArgumentError(f"output length {m} out of range [1, {n}]")
    return ExtractorDescriptor(
        family=ExtractorFamily.DEOR,
        n1=n,
        n2=n,
        m=m,
        strong_in=frozenset({1, 2}),
        params={"n": n, "m": m},
    )


def inner_product_descriptor(n: int) -> ExtractorDescriptor:
    """One-bit inner-product extractor over GF(2)^n."""
    if n < 1:
        raise InvalidArgumentError(f"input length {n} must be at least 1")
    return ExtractorDescriptor(
        family=ExtractorFamily.INNER_PRODUCT,
        n1=n,
        n2=n,
        m=1,
        strong_in=frozenset({1, 2}),
        params={"n": n},
    )


# ---------------------------------------------------------------------------
# Weak designs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeakDesign:
    """m subsets of [d_universe], each of size t, with bounded pairwise overlap.

    The declared bound is: for every i, sum_{j<i} 2^{|S_i n S_j|} <= r * (m - 1).
    """

    m: int
    t: int
    d_universe: int
    sets: tuple
    r: float = WEAK_DESIGN_OVERLAP

    def overlap_statistic(self, i: int) -> float:
        return float(sum(2 ** len(self.sets[i] & self.sets[j]) for j in range(i)))


def _gf_t_params(t: int):
    if t < 4 or t & (t - 1):
        raise ConstructionError(f"set size t={t} must be a power of 2, at least 4")
    s = t.bit_length() - 1
    if s not in IRREDUCIBLE_POLY:
        raise ConstructionError(f"no GF(2^{s}) modulus available for t={t}")
    return s


def weak_design_build(m: int, t: int, universe_blocks: Optional[int] = None) -> WeakDesign:
    """Block weak design from polynomial designs over GF(t).

    Block b occupies universe indices [b*t^2, (b+1)*t^2); set i assigned to a
    block is the graph {(x, p_i(x))} of a polynomial over GF(t). Distinct
    polynomials of degree < c intersect in at most c-1 points, and sets in
    different blocks are disjoint, which yields the declared overlap bound
    r = 2e. Infeasible (m, t) combinations raise ConstructionError.
    """
    if m < 1:
        raise ConstructionError("need at least one set")
    s = _gf_t_params(t)

    def degree_for(count: int) -> int:
        c = 1
        while t ** c < count:
            c += 1
        return c

    def sound(blocks: int) -> bool:
        per = -(-m // blocks)
        if per <= 1:
            return True
        c = degree_for(per)
        # within-block worst case plus one per cross-block pair must stay under r*(m-1)
        return 2 ** (c - 1) * (per - 1) <= (WEAK_DESIGN_OVERLAP - 1) * (m - 1)

    if universe_blocks is None:
        n_blocks = 1
        while n_blocks < m and not sound(n_blocks):
            n_blocks += 1
    else:
        n_blocks = universe_blocks
    if not sound(n_blocks):
        raise ConstructionError(f"no sound block layout for m={m}, t={t}, blocks={n_blocks}")

    per_block = -(-m // n_blocks)
    sets = []
    for i in range(m):
        b, idx = divmod(i, per_block)
        c = degree_for(per_block)
        coeffs = []
        v = idx
        for _ in range(c):
            v, r = divmod(v, t)
            coeffs.append(r)
        base = b * t * t
        members = []
        for x in range(t):
            acc = 0
            for coef in reversed(coeffs):  # Horner
                acc = gf_mul(acc, x, s) ^ coef
            members.append(base + x * t + acc)
        sets.append(frozenset(members))
    design = WeakDesign(m=m, t=t, d_universe=n_blocks * t * t, sets=tuple(sets))
    for st in design.sets:
        assert len(st) == t
    return design


# ---------------------------------------------------------------------------
# Trevisan parameters and extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrevisanParams:
    """Closed-form seeded-extractor parameters, after the documented rounding.

    Rounding rule: t is the exact value rounded up to the next even integer;
    a is kept exact (as a real); k is rounded up to an integer; d = a*t^2 is
    rounded up to the next integer multiple of t.
    """

    t: int
    a: float
    k: int
    d: int
    t_exact: float
    k_exact: float


def trevisan_params(n: int, m: int, eps: float) -> TrevisanParams:
    if not (n >= m >= 1):
        raise DomainError(f"need n >= m >= 1, got n={n}, m={m}")
    if not 0 < eps < 1:
        raise DomainError(f"need 0 < eps < 1, got {eps}")
    if m <= math.e:
        raise DomainError(f"m={m} <= e leaves log(m - e) undefined")
    with mp.workprec(120):
        t_exact = 2 * mp.log(2 * mp.mpf(n) * m * m / (mp.mpf(eps) ** 2), 2)
        t = int(mp.ceil(t_exact))
        t += t % 2
        if t <= math.e:
            raise DomainError(f"t={t} <= e leaves log(t - e) undefined")
        ratio = (mp.log(m - mp.e, 2) - mp.log(t - mp.e, 2)) / (
            mp.log(mp.e, 2) - mp.log(mp.e - 1, 2)
        )
        a = 1 + max(mp.mpf(0), ratio)
        k_exact = m + 4 * mp.log(mp.mpf(m) / eps, 2) + 6
        k = int(mp.ceil(k_exact))
        d_raw = a * t * t
        d = int(mp.ceil(d_raw / t)) * t
        return TrevisanParams(
            t=t, a=float(a), k=k, d=d, t_exact=float(t_exact), k_exact=float(k_exact)
        )


def rsh_one_bit(x: BitString, seed: BitString) -> int:
    """Reed-Solomon-Hadamard one-bit extractor.

    The seed splits into a field element alpha (low t/2 bits) and a Hadamard
    mask beta (high t/2 bits); x is parsed as Reed-Solomon coefficients over
    GF(2^{t/2}), evaluated at alpha, and the output is <encode(x)(alpha), beta>.
    """
    t = seed.length
    if t % 2:
        raise InvalidArgumentError(f"seed length {t} must be even")
    s = t // 2
    if s not in IRREDUCIBLE_POLY:
        raise InvalidArgumentError(f"no GF(2^{s}) modulus for seed length {t}")
    mask = (1 << s) - 1
    alpha, beta = seed.value & mask, seed.value >> s
    acc = 0
    for j in reversed(range(-(-x.length // s))):  # Horner on coefficients c_0..c_{L-1}
        acc = gf_mul(acc, alpha, s) ^ ((x.value >> (j * s)) & mask)
    return parity(acc & beta, s)


def trevisan_extract(
    x: BitString, seed: BitString, params: TrevisanParams, design: WeakDesign
) -> BitString:
    """Output bit i = one-bit RSH extractor on x with seed bits seed|_{S_i}."""
    if seed.length != design.d_universe:
        raise InvalidArgumentError(
            f"seed length {seed.length} != design universe {design.d_universe}"
        )
    if design.t != params.t:
        raise InvalidArgumentError("design set size does not match params.t")
    y = 0
    for i, st in enumerate(design.sets):
        sub = sum(((seed.value >> j) & 1) << b for b, j in enumerate(sorted(st)))
        y |= rsh_one_bit(x, BitString(sub, params.t)) << i
    return BitString(y, len(design.sets))


def trevisan_descriptor(n: int, m: int, eps: float) -> ExtractorDescriptor:
    """Seeded descriptor with a design whose universe covers params.d; needs GF(t), GF(2^{t/2})."""
    params = trevisan_params(n, m, eps)
    blocks = -(-params.d // (params.t * params.t))
    design = weak_design_build(m, params.t, universe_blocks=blocks)
    if params.t // 2 not in IRREDUCIBLE_POLY:
        raise ConstructionError(f"no GF(2^{params.t // 2}) modulus available for t={params.t}")
    return ExtractorDescriptor(
        family=ExtractorFamily.TREVISAN_SEEDED,
        n1=n,
        n2=design.d_universe,
        m=m,
        strong_in=frozenset({2}),
        params={"n": n, "m": m, "eps": eps, "t": params.t, "d": params.d},
        trevisan=(params, design),
    )


def _parity_flat_error(n: int, d: int, k: float) -> float:
    """Exact worst-case strong error of the parity seeded extractor on flat sources.

    The extractor is <low-d-bits(x), seed> with a uniform d-bit seed. Over a
    flat source of size ceil(2^k) the distance (seed revealed) equals
    (1/2^d) sum_s |q_hat(s)| / 2 where q is the distribution of the low d bits;
    the worst case is a vertex of the occupancy polytope, found exactly by
    maximizing over all sign patterns with a greedy fill.
    """
    if not 1 <= d <= 4 or d > n:
        raise DomainError(f"parity extractor supports 1 <= d <= 4, d <= n; got d={d}, n={n}")
    if not math.isfinite(k):
        raise DomainError(f"entropy must be finite, got k={k}")
    size = math.ceil(2.0 ** k - 1e-12)
    if not 1 <= size <= 1 << n:
        raise DomainError(f"entropy k={k} out of range for n={n}")
    D, cap = 1 << d, 1 << (n - d)
    v = np.arange(D)
    chi = 1 - 2 * parity(v[:, None] & v, d)  # chi[v, s] = (-1)^<v, s>
    signs = 2 * ((np.arange(1 << D)[:, None] >> v) & 1) - 1  # signs[sigma, s]
    vals = np.sort(signs @ chi.T, axis=1)[:, ::-1]  # per sigma, descending
    # The greedy fill takes cap points at each of the q largest values, then r
    # at the next. Python ints: the sum reaches 2^(n+d), past int64 near n = 64.
    q, r = divmod(size, cap)
    top = vals[:, :q].sum(axis=1).astype(object)
    nxt = vals[:, min(q, D - 1)].astype(object)  # r = 0 when q = D
    best = max(0, (cap * top + r * nxt).max())
    return min(1.0, best / (2.0 * D * size))


def parity_seeded_descriptor(n: int, d: int) -> ExtractorDescriptor:
    """One-bit seeded extractor <low-d-bits(x), seed> with an exact error law.

    Deliberately tiny; it exists to exercise the composition combinator at
    enumerable sizes. Strong in the seed by construction of the error law.
    """
    if not 1 <= d <= 4 or d > n:
        raise InvalidArgumentError(f"need 1 <= d <= 4 and d <= n, got d={d}, n={n}")
    return ExtractorDescriptor(
        family=ExtractorFamily.PARITY_SEEDED,
        n1=n,
        n2=d,
        m=1,
        strong_in=frozenset({2}),
        params={"n": n, "d": d},
    )


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

def compose(
    outer_seeded: ExtractorDescriptor, inner_two_source: ExtractorDescriptor
) -> ExtractorDescriptor:
    """Ext''(x1, x2) = Ext'(x1, Ext(x1, x2)); errors add."""
    if 1 not in inner_two_source.strong_in:
        raise CompositionError("inner extractor must be strong in input 1")
    if inner_two_source.m != outer_seeded.n2:
        raise CompositionError(
            f"inner output length {inner_two_source.m} != outer seed length {outer_seeded.n2}"
        )
    if outer_seeded.n1 != inner_two_source.n1:
        raise CompositionError(
            f"outer source length {outer_seeded.n1} != inner n1 {inner_two_source.n1}"
        )
    return ExtractorDescriptor(
        family=ExtractorFamily.COMPOSED,
        n1=inner_two_source.n1,
        n2=inner_two_source.n2,
        m=outer_seeded.m,
        strong_in=frozenset(),
        params={"outer": outer_seeded, "inner": inner_two_source},
    )
