"""Concrete extractors, each an `ExtractorDescriptor`: a family and its params.

* DEOR {n, m}: GF(2^n) multiplication truncated to the m low-order bits, with
  classical error 2^{-(k1+k2+1-n-m)/2}; InnerProduct {n} is <x1, x2> over GF(2)^n.
* ParitySeeded {n, d}: <low d bits of x, seed>, with an exact error law.
* TrevisanSeeded {n, m, eps}: a block weak design and a Reed-Solomon-Hadamard
  one-bit extractor; output bit i is the RSH bit of x under the seed bits at set
  i's positions. Building it adds the derived t and d to the params, which
  `paramcalc.trevisan_params` computes.
* Composed {outer, inner}: Ext''(x1, x2) = Ext'(x1, Ext(x1, x2)) for a seeded
  outer Ext' and an inner Ext strong in input 1.

Each family has one kernel, `ExtractorDescriptor.evaluate`, on plain
integers; it runs elementwise on numpy arrays too, which builds whole output
tables, and `extract` is its `BitString` edge.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .bitfield import IRREDUCIBLE_POLY, BitString, gf_mul, parity
from .errors import (
    CompositionError,
    ConstructionError,
    DomainError,
    InvalidArgumentError,
    checked_index,
    checked_real,
)
from .paramcalc import trevisan_params

WEAK_DESIGN_OVERLAP = 2 * math.e  # declared overlap parameter r


class ExtractorFamily(str, Enum):
    DEOR = "DEOR"
    INNER_PRODUCT = "InnerProduct"
    TREVISAN_SEEDED = "TrevisanSeeded"
    PARITY_SEEDED = "ParitySeeded"
    COMPOSED = "Composed"


# each family's params, and the inputs in which it is strong
_RULES = {
    ExtractorFamily.DEOR: ({"n", "m"}, frozenset({1, 2})),
    ExtractorFamily.INNER_PRODUCT: ({"n"}, frozenset({1, 2})),
    ExtractorFamily.PARITY_SEEDED: ({"n", "d"}, frozenset({2})),
    ExtractorFamily.TREVISAN_SEEDED: ({"n", "m", "eps"}, frozenset({2})),
    ExtractorFamily.COMPOSED: ({"outer", "inner"}, frozenset()),
}


@dataclass(frozen=True)
class ExtractorDescriptor:
    """A concrete extractor as a value: a family and its parameters.

    Building one checks them by the family's rules, so every descriptor that builds
    runs. ``n1``, ``n2``, ``m`` derive from the parameters and ``strong_in`` (1 and/or
    2) from the family. Equal descriptors compute the same function with the same
    error law, so they serve as cache keys; ``params`` counts for equality, not the hash.
    """

    family: ExtractorFamily
    n1: int = field(init=False)
    n2: int = field(init=False)
    m: int = field(init=False)
    params: dict = field(hash=False)

    def __post_init__(self):
        try:
            family = ExtractorFamily(self.family)
        except (TypeError, ValueError):
            raise InvalidArgumentError(f"unknown extractor family {self.family!r}") from None
        p, keys = self.params, _RULES[family][0]
        if not isinstance(p, dict) or p.keys() != keys:
            raise InvalidArgumentError(f"{family.value} takes params {sorted(keys)}, got {p!r}")
        if family is ExtractorFamily.DEOR:
            n, m = checked_index(p["n"], "n"), checked_index(p["m"], "m")
            if n not in IRREDUCIBLE_POLY:
                raise InvalidArgumentError(f"unsupported input length {n}")
            if not 1 <= m <= n:
                raise InvalidArgumentError(f"output length {m} out of range [1, {n}]")
            dims, p = (n, n, m), {"n": n, "m": m}
        elif family is ExtractorFamily.INNER_PRODUCT:
            n = checked_index(p["n"], "n")
            if n < 1:
                raise InvalidArgumentError(f"input length {n} must be at least 1")
            dims, p = (n, n, 1), {"n": n}
        elif family is ExtractorFamily.PARITY_SEEDED:
            n, d = checked_index(p["n"], "n"), checked_index(p["d"], "d")
            if not 1 <= d <= 4 or d > n:
                raise InvalidArgumentError(f"need 1 <= d <= 4 and d <= n, got d={d}, n={n}")
            dims, p = (n, d, 1), {"n": n, "d": d}
        elif family is ExtractorFamily.TREVISAN_SEEDED:
            n, m = checked_index(p["n"], "n"), checked_index(p["m"], "m")
            eps = checked_real(p["eps"], "eps")
            tp = trevisan_params(n, m, eps)
            design = weak_design_build(m, tp.t, universe_blocks=-(-tp.d // (tp.t * tp.t)))
            if tp.t // 2 not in IRREDUCIBLE_POLY:
                raise ConstructionError(f"no GF(2^{tp.t // 2}) modulus available for t={tp.t}")
            # what evaluate and error_law read: the threshold k and each set's seed positions
            object.__setattr__(self, "_trevisan",
                               (tp.k, tuple(tuple(sorted(st)) for st in design.sets)))
            dims, p = (n, design.d_universe, m), {"n": n, "m": m, "eps": eps, "t": tp.t, "d": tp.d}
        else:
            outer, inner = p["outer"], p["inner"]
            if not all(isinstance(e, ExtractorDescriptor) for e in (outer, inner)):
                raise CompositionError("outer and inner must be extractor descriptors")
            if outer.family not in (ExtractorFamily.PARITY_SEEDED,
                                    ExtractorFamily.TREVISAN_SEEDED):
                raise CompositionError(f"outer extractor must be seeded, got {outer.family.value}")
            if 1 not in inner.strong_in:
                raise CompositionError("inner extractor must be strong in input 1")
            if inner.m != outer.n2:
                raise CompositionError(
                    f"inner output length {inner.m} != outer seed length {outer.n2}")
            if outer.n1 != inner.n1:
                raise CompositionError(f"outer source length {outer.n1} != inner n1 {inner.n1}")
            dims, p = (inner.n1, inner.n2, outer.m), {"outer": outer, "inner": inner}
        for name, value in zip(("family", "params", "n1", "n2", "m"), (family, p, *dims)):
            object.__setattr__(self, name, value)

    @property
    def strong_in(self) -> frozenset:
        return _RULES[self.family][1]

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
            y, s = 0, self.params["t"] // 2
            for i, positions in enumerate(self._trevisan[1]):
                seed = sum(((x2 >> j) & 1) << b for b, j in enumerate(positions))
                y |= _rsh_bit(x1, self.n1, seed, s) << i
            return y
        outer, inner = self.params["outer"], self.params["inner"]
        return outer.evaluate(x1, inner.evaluate(x1, x2))

    def error_law(self, k1: float, k2: Optional[float] = None) -> float:
        """Error at min-entropies (k1, k2) for two-source families, at k1 for seeded ones."""
        family = self.family
        if family in (ExtractorFamily.DEOR, ExtractorFamily.INNER_PRODUCT):
            if k2 is None:
                raise DomainError(f"{family.value} error law needs the second entropy k2")
            return deor_error(self.n1, k1, k2, self.m)
        if family is ExtractorFamily.PARITY_SEEDED:
            return _parity_flat_error(self.n1, self.n2, k1)
        if family is ExtractorFamily.TREVISAN_SEEDED:
            return self.params["eps"] if checked_real(k1, "entropy") >= self._trevisan[0] else 1.0
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
        when a field is missing, or is not one that to_dict writes with its value.
        """
        try:  # params must be an object
            family, params = ExtractorFamily(d["family"]), {**d.get("params", {})}
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
        # each field given, params' too, must be written with the same repr (so 1, 1.0 and true
        # differ); an object has its own check: params here, a nested descriptor in from_dict
        wrong = [f"{pre}{k}: {family.value} takes {w[k] if k in w else 'no such field'}, got {v}"
                 for pre, given, w in (("", d, built), ("params.", params, built["params"]))
                 for k, v in given.items()
                 if k not in w or not isinstance(w[k], dict) and repr(v) != repr(w[k])]
        if wrong:
            raise DomainError("; ".join(wrong))
        return ext


# ---------------------------------------------------------------------------
# DEOR
# ---------------------------------------------------------------------------

def deor_error(n: int, k1: float, k2: float, m: int) -> float:
    """Classical error 2^{-(k1+k2+1-n-m)/2}, clamped to 1.

    Evaluated in double precision, clamped before exponentiating so that very
    low entropies give 1.0 rather than an overflow. Raises DomainError for a
    non-finite entropy or one that is not a real number, and for m outside [1, n];
    n and m are taken only as integers.
    """
    if not (type(n) is int and type(m) is int):  # the solver's path passes ints
        n, m = checked_index(n, "n"), checked_index(m, "m")
    if not 1 <= m <= n:
        raise DomainError(f"need 1 <= m <= n, got n={n}, m={m}")
    k1, k2 = checked_real(k1, "entropy k1"), checked_real(k2, "entropy k2")
    e = -(k1 + k2 + 1 - n - m) / 2
    return 1.0 if e >= 0 else 2.0 ** e


def deor_descriptor(n: int, m: int) -> ExtractorDescriptor:
    return ExtractorDescriptor(ExtractorFamily.DEOR, {"n": n, "m": m})


def inner_product_descriptor(n: int) -> ExtractorDescriptor:
    """One-bit inner-product extractor over GF(2)^n."""
    return ExtractorDescriptor(ExtractorFamily.INNER_PRODUCT, {"n": n})


# ---------------------------------------------------------------------------
# Weak designs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeakDesign:
    """m subsets of [d_universe], each of size t, with bounded pairwise overlap.

    The declared bound is: for every i,
    sum_{j<i} 2^{|S_i n S_j|} <= WEAK_DESIGN_OVERLAP * (m - 1).
    """

    m: int
    t: int
    d_universe: int
    sets: tuple

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
    r = 2e. Infeasible (m, t) combinations raise ConstructionError; a non-integer
    argument or universe_blocks < 1 raises InvalidArgumentError.
    """
    m, t = checked_index(m, "m"), checked_index(t, "t")
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
        n_blocks = checked_index(universe_blocks, "universe_blocks")
        if n_blocks < 1:
            raise InvalidArgumentError(f"universe_blocks must be at least 1, got {n_blocks}")
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
# Trevisan extraction
# ---------------------------------------------------------------------------

def _rsh_bit(x: int, n: int, seed: int, s: int) -> int:
    """Reed-Solomon-Hadamard bit of the n-bit x under a 2s-bit seed, unchecked.

    The seed splits into a field element alpha (low s bits) and a Hadamard mask
    beta (high s bits); x is parsed as Reed-Solomon coefficients over GF(2^s),
    evaluated at alpha, and the output is <encode(x)(alpha), beta>.
    """
    mask = (1 << s) - 1
    alpha, beta = seed & mask, seed >> s
    acc = 0
    for j in reversed(range(-(-n // s))):  # Horner on coefficients c_0..c_{L-1}
        acc = gf_mul(acc, alpha, s) ^ ((x >> (j * s)) & mask)
    return parity(acc & beta, s)


def trevisan_descriptor(n: int, m: int, eps: float) -> ExtractorDescriptor:
    """Seeded descriptor with a design whose universe covers params.d; needs GF(t), GF(2^{t/2})."""
    return ExtractorDescriptor(ExtractorFamily.TREVISAN_SEEDED, {"n": n, "m": m, "eps": eps})


def _parity_flat_error(n: int, d: int, k: float) -> float:
    """Exact worst-case strong error of the parity seeded extractor on flat sources.

    The extractor is <low-d-bits(x), seed> with a uniform d-bit seed. Over a
    flat source of size ceil(2^k) the distance (seed revealed) equals
    (1/2^d) sum_s |q_hat(s)| / 2 where q is the distribution of the low d bits;
    the worst case is a vertex of the occupancy polytope, found exactly by
    maximizing over all sign patterns with a greedy fill.
    """
    # past n + 1 the size is out of range; 2.0 ** k overflows from k = 1024, so 2^e is a shift
    capped = min(checked_real(k, "entropy"), n + 1)
    e = max(0, math.floor(capped) - 1000)
    size = math.ceil(2.0 ** (capped - e) - 1e-12) << e
    if not 1 <= size <= 1 << n:
        raise DomainError(f"entropy k={k} out of range for n={n}")
    import numpy as np  # this law is the module's only numpy user

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
    return min(1.0, best / (2 * D * size))  # ints: 2.0 * size would overflow past n = 1023


def parity_seeded_descriptor(n: int, d: int) -> ExtractorDescriptor:
    """One-bit seeded extractor <low-d-bits(x), seed> with an exact error law.

    Deliberately tiny; it exists to exercise the composition combinator at
    enumerable sizes. Strong in the seed by construction of the error law.
    """
    return ExtractorDescriptor(ExtractorFamily.PARITY_SEEDED, {"n": n, "d": d})


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

def compose(outer_seeded: ExtractorDescriptor,
            inner_two_source: ExtractorDescriptor) -> ExtractorDescriptor:
    """Ext''(x1, x2) = Ext'(x1, Ext(x1, x2)); errors add."""
    return ExtractorDescriptor(ExtractorFamily.COMPOSED,
                               {"outer": outer_seeded, "inner": inner_two_source})
