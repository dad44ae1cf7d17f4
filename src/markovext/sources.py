"""Classical weak-source models and exact brute-force distance oracles.

All oracles enumerate the full support; when the enumeration budget would be
exceeded they raise ResourceBudgetError instead of sampling. The extractor's
output table they read is one `evaluate` call on index grids. Probabilities
are double-precision with a 1e-12 row-sum tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import (
    ConstructionError,
    DomainError,
    InvalidArgumentError,
    ResourceBudgetError,
    checked_index,
    is_real,
    numeric_array,
)
from .extractors import ExtractorDescriptor

ROW_SUM_TOL = 1e-12
ENUMERATION_BUDGET_BITS = 26


def check_budget(bits: float, what: str) -> None:
    """Refuse (ResourceBudgetError) `what`, of 2^bits entries, beyond the enumeration
    budget: every oracle and generator asks this before it allocates."""
    if bits > ENUMERATION_BUDGET_BITS:
        raise ResourceBudgetError(f"{what} of {bits:g} bits exceeds the enumeration budget")


@dataclass(frozen=True)
class FlatSource:
    """Uniform distribution over a support set of n-bit strings."""

    n: int
    support: tuple

    def __post_init__(self):
        object.__setattr__(self, "n", checked_index(self.n, "n"))
        if self.n < 0:
            raise InvalidArgumentError(f"n must be non-negative, got {self.n}")
        if len(self.support) == 0:
            raise InvalidArgumentError("support must be non-empty")
        if len(set(self.support)) != len(self.support):
            raise InvalidArgumentError("support contains duplicates")
        size = 1 << self.n
        if any(not 0 <= checked_index(x, "support element") < size for x in self.support):
            raise InvalidArgumentError("support element out of range")

    def distribution(self) -> np.ndarray:
        check_budget(self.n, "flat distribution")
        p = np.zeros(1 << self.n)
        p[list(self.support)] = 1.0 / len(self.support)
        return p


class MarkovSourceTable:
    """Joint distribution p(z) * p(x1|z) * p(x2|z); conditionally independent by construction.

    Holds read-only copies of the arrays as checked, admitted tiny negatives as 0.0."""

    def __init__(self, pz: np.ndarray, px1_given_z: np.ndarray, px2_given_z: np.ndarray):
        pz, px1, px2 = (numeric_array(a, float, name) for a, name in (
            (pz, "pz"), (px1_given_z, "px1_given_z"), (px2_given_z, "px2_given_z")))
        if pz.ndim != 1 or px1.ndim != 2 or px2.ndim != 2:
            raise InvalidArgumentError("pz must be a vector and each conditional table a matrix")
        zc = pz.shape[0]
        if px1.shape[0] != zc or px2.shape[0] != zc:
            raise InvalidArgumentError("conditional tables must have one row per z")
        if zc == 0:
            raise InvalidArgumentError("empty table")
        for name, arr in (("pz", pz), ("px1_given_z", px1), ("px2_given_z", px2)):
            if not np.isfinite(arr).all():
                raise InvalidArgumentError(f"{name} has non-finite entries")
            if np.any(arr < -ROW_SUM_TOL):
                raise InvalidArgumentError(f"{name} has negative entries")
            np.maximum(arr, 0.0, out=arr)  # arr is the table's own copy
            if np.any(np.abs(arr.sum(axis=-1) - 1.0) > ROW_SUM_TOL):
                raise InvalidArgumentError(f"{name} rows must sum to 1 within {ROW_SUM_TOL}")
            arr.flags.writeable = False
            setattr(self, name, arr)
        self.n1 = int(math.log2(self.px1_given_z.shape[1]))
        self.n2 = int(math.log2(self.px2_given_z.shape[1]))
        if (1 << self.n1) != self.px1_given_z.shape[1] or (1 << self.n2) != self.px2_given_z.shape[1]:
            raise InvalidArgumentError("conditional rows must have power-of-two width")

    @property
    def z_card(self) -> int:
        return self.pz.shape[0]

    @classmethod
    def from_flat_pair(cls, s1: FlatSource, s2: FlatSource) -> "MarkovSourceTable":
        """Two independent flat sources as a table with trivial side information."""
        return cls(np.ones(1), s1.distribution()[None, :], s2.distribution()[None, :])


def hmin_conditional(table: MarkovSourceTable, source: int) -> float:
    """-log2 sum_z p(z) max_x p(x_i|z), the conditional min-entropy given Z."""
    if source not in (1, 2):
        raise InvalidArgumentError("source index must be 1 or 2")
    cond = table.px1_given_z if source == 1 else table.px2_given_z
    p_guess = float(np.dot(table.pz, cond.max(axis=1)))
    return -math.log2(p_guess)


OUTPUT_TABLE_CACHE_SIZE = 32


@lru_cache(maxsize=OUTPUT_TABLE_CACHE_SIZE)
def extractor_output_table(ext: ExtractorDescriptor, n1: int, n2: int) -> np.ndarray:
    """Dense read-only table T[x1, x2] = Ext(x1, x2), one `evaluate` call on index grids.

    The last few tables are kept, keyed by value.
    """
    if ext.n1 != n1 or ext.n2 != n2:
        raise InvalidArgumentError("extractor dimensions do not match the table")
    check_budget(n1 + n2, "output table")
    T = ext.evaluate(np.arange(1 << n1)[:, None], np.arange(1 << n2)[None, :])
    T.flags.writeable = False
    return T


def statistical_distance_from_uniform(
    ext: ExtractorDescriptor,
    table: MarkovSourceTable,
    conditioned_on: Iterable[str] = ("Z",),
) -> float:
    """Exact variational distance (1/2)||Ext(X1,X2) cond - U_m o cond|| by enumeration.

    Both the joint support and the histogram, one row per value of the conditioned
    inputs and 2^m bins, are refused before allocation beyond the enumeration budget."""
    cond = set(conditioned_on)
    if not cond <= {"Z", "X1", "X2"}:
        raise InvalidArgumentError(f"unknown conditioning registers: {cond}")
    n1, n2 = table.n1, table.n2
    check_budget(n1 + n2 + math.log2(table.z_card), "joint support")
    row_bits = n1 * ("X1" in cond) + n2 * ("X2" in cond)
    check_budget(row_bits + ext.m, "histogram")
    T = extractor_output_table(ext, n1, n2)
    M = 1 << ext.m

    # Only the cells (x1, x2) with mass under some z: a skipped cell weighs 0
    # in every z, so each bin still adds the same terms in (x1, x2) order.
    p1, p2 = table.px1_given_z, table.px2_given_z
    s1, s2 = np.flatnonzero(p1.any(axis=0)), np.flatnonzero(p2.any(axis=0))
    xkey, ksize = 0, 1 << row_bits
    if "X1" in cond:
        xkey = s1[:, None]
    if "X2" in cond:
        xkey = xkey * (1 << n2) + s2
    # bin (x1 * 2^n2 + x2) * 2^m + y, keeping whichever of x1, x2 is conditioned on
    key = (T[np.ix_(s1, s2)] + (xkey << ext.m)).ravel()

    per_z = "Z" in cond
    total = 0.0
    acc = np.zeros((ksize, M))
    for z in range(table.z_card):
        w = table.pz[z] * np.outer(p1[z, s1], p2[z, s2]).ravel()
        hist = np.bincount(key, weights=w, minlength=ksize * M).reshape(ksize, M)
        if per_z:
            total += 0.5 * np.abs(hist - hist.sum(axis=1, keepdims=True) / M).sum()
        else:
            acc += hist
    if not per_z:
        total = 0.5 * np.abs(acc - acc.sum(axis=1, keepdims=True) / M).sum()
    return float(total)


def _checked_joint(ext: ExtractorDescriptor, joint: np.ndarray) -> np.ndarray:
    """The joint p(x1, x2, z1, z2) as a float array, checked against the budget
    (before its shape), to hold numbers only and to be a probability distribution.
    A float ndarray is used as given: it may hold 2^26 entries."""
    n1, n2 = ext.n1, ext.n2
    check_budget(2 * (n1 + n2), "joint")
    joint = numeric_array(joint, float, "joint", copy=False)
    if joint.shape != (1 << n1, 1 << n2, 1 << n1, 1 << n2):
        raise InvalidArgumentError("joint shape must be (2^n1, 2^n2, 2^n1, 2^n2)")
    if np.any(joint < -ROW_SUM_TOL):
        raise InvalidArgumentError("joint has negative entries")
    if not abs(joint.sum() - 1.0) <= ROW_SUM_TOL:
        raise InvalidArgumentError("joint must sum to 1")
    return joint


def distinguishing_event_statistic(ext: ExtractorDescriptor, joint: np.ndarray) -> float:
    """sum over {Ext(x1,x2) = Ext(z1,z2)} of p(x1,x2,z1,z2), minus 1/M."""
    joint = _checked_joint(ext, joint)
    n1, n2 = ext.n1, ext.n2
    T = extractor_output_table(ext, n1, n2)
    eq = T[:, :, None, None] == T[None, None, :, :]
    M = 1 << ext.m
    return float(joint[eq].sum() - 1.0 / M)


def conditional_distance_given_guess(ext: ExtractorDescriptor, joint: np.ndarray) -> float:
    """(1/2)||Ext(X1,X2) Z1 Z2 - U_m o Z1 Z2|| for an arbitrary enumerable joint."""
    joint = _checked_joint(ext, joint)
    n1, n2 = ext.n1, ext.n2
    T = extractor_output_table(ext, n1, n2)
    M = 1 << ext.m
    # p(y, z1, z2): bin T[x1, x2] * 2^(n1+n2) + (z1, z2), summed in (x1, x2) order
    key = (T.reshape(-1, 1) << (n1 + n2)) + np.arange(1 << (n1 + n2))
    p_yz = np.bincount(key.ravel(), weights=joint.ravel(), minlength=M << (n1 + n2))
    p_yz = p_yz.reshape(M, 1 << n1, 1 << n2)
    p_z = p_yz.sum(axis=0)
    return float(0.5 * np.abs(p_yz - p_z[None, :, :] / M).sum())


def build_markov_table(
    n1: int,
    n2: int,
    z_card: int,
    target_k1: float,
    target_k2: float,
    seed: int,
) -> MarkovSourceTable:
    """Per-z flat conditionals whose supports are random and large enough that
    hmin_conditional meets the targets (exactly when 2^target is integral)."""
    n1, n2 = checked_index(n1, "n1"), checked_index(n2, "n2")
    z_card = checked_index(z_card, "z_card")
    if not all(is_real(t) and math.isfinite(t) for t in (target_k1, target_k2)):
        raise DomainError(f"entropy targets must be finite, got {target_k1!r}, {target_k2!r}")
    if target_k1 > n1 or target_k2 > n2:
        raise ConstructionError("entropy target exceeds the source length")
    if target_k1 < 0 or target_k2 < 0 or z_card < 1:
        raise ConstructionError("invalid targets")
    check_budget(math.log2(z_card) + max(n1, n2), "conditional rows")
    rng = np.random.default_rng(seed)
    pz = rng.random(z_card) + 0.1
    pz /= pz.sum()

    def conditionals(n: int, target: float) -> np.ndarray:
        size = math.ceil(2.0 ** target - 1e-12)
        rows = np.zeros((z_card, 1 << n))
        for z in range(z_card):
            support = rng.choice(1 << n, size=size, replace=False)
            rows[z, support] = 1.0 / size
        return rows

    return MarkovSourceTable(pz, conditionals(n1, target_k1), conditionals(n2, target_k2))


def random_flat_source(n: int, k: int, rng: np.random.Generator) -> FlatSource:
    """Uniformly random support of size 2^k; refused before the draw when the source's
    dense distribution would not fit the enumeration budget."""
    n, k = checked_index(n, "n"), checked_index(k, "k")
    if not 0 <= k <= n:
        raise InvalidArgumentError(f"need 0 <= k <= n, got k={k}, n={n}")
    check_budget(n, "flat distribution")
    support = rng.choice(1 << n, size=1 << k, replace=False)
    return FlatSource(n, tuple(support.tolist()))


def random_joint(n1: int, n2: int, rng: np.random.Generator) -> np.ndarray:
    """Random enumerable joint p(x1, x2, z1, z2) (flat Dirichlet); refused before allocating
    when it would not fit the enumeration budget, as `_checked_joint` refuses it."""
    n1, n2 = checked_index(n1, "n1"), checked_index(n2, "n2")
    if n1 < 0 or n2 < 0:
        raise InvalidArgumentError(f"need n1, n2 >= 0, got n1={n1}, n2={n2}")
    check_budget(2 * (n1 + n2), "joint")
    shape = (1 << n1, 1 << n2, 1 << n1, 1 << n2)
    j = rng.exponential(size=shape)
    return j / j.sum()
