"""Classical weak-source models and exact brute-force distance oracles.

All oracles enumerate the full support; when the enumeration budget would be
exceeded they raise ResourceBudgetError instead of sampling. The extractor's
output table they read is one `evaluate` call on index grids. Probabilities
are double-precision with a 1e-12 row-sum tolerance.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConstructionError,
    InvalidArgumentError,
    ResourceBudgetError,
    checked_index,
    checked_real,
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
        object.__setattr__(self, "support", tuple(self.support))
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


_TABLE_ARRAYS = ("pz", "px1_given_z", "px2_given_z")


def _refuse_table(arrays) -> None:
    """Raise for the first fault of a table's arrays, walked array by array in
    `_TABLE_ARRAYS` order: non-finite entries, then entries below -ROW_SUM_TOL,
    then rows (with those entries as 0.0) that do not sum to 1. Called only once
    the one-pass check over all three has found a fault."""
    for name, arr in zip(_TABLE_ARRAYS, arrays):
        if not np.isfinite(arr).all():
            raise InvalidArgumentError(f"{name} has non-finite entries")
        if np.any(arr < -ROW_SUM_TOL):
            raise InvalidArgumentError(f"{name} has negative entries")
        if np.any(np.abs(np.maximum(arr, 0.0).sum(axis=-1) - 1.0) > ROW_SUM_TOL):
            raise InvalidArgumentError(f"{name} rows must sum to 1 within {ROW_SUM_TOL}")


class MarkovSourceTable:
    """Joint distribution p(z) * p(x1|z) * p(x2|z); conditionally independent by construction.

    Holds its arrays as read-only views of one buffer, its own copy of them as
    checked, with tiny negatives admitted as 0.0."""

    def __init__(self, pz: np.ndarray, px1_given_z: np.ndarray, px2_given_z: np.ndarray):
        pz, px1, px2 = arrays = [numeric_array(a, float, name, copy=False)
                                 for a, name in zip((pz, px1_given_z, px2_given_z), _TABLE_ARRAYS)]
        if pz.ndim != 1 or px1.ndim != 2 or px2.ndim != 2:
            raise InvalidArgumentError("pz must be a vector and each conditional table a matrix")
        zc = pz.shape[0]
        if px1.shape[0] != zc or px2.shape[0] != zc:
            raise InvalidArgumentError("conditional tables must have one row per z")
        if zc == 0:
            raise InvalidArgumentError("empty table")
        buf = np.concatenate([a.ravel() for a in arrays])  # the table's own copy
        end1 = zc + px1.size
        views = buf[:zc], buf[zc:end1].reshape(px1.shape), buf[end1:].reshape(px2.shape)
        if not (np.isfinite(buf).all() and (buf >= -ROW_SUM_TOL).all()):
            _refuse_table(views)
        np.maximum(buf, 0.0, out=buf)
        sums = np.concatenate([v.sum(axis=-1, keepdims=True).ravel() for v in views])
        if (np.abs(sums - 1.0) > ROW_SUM_TOL).any():
            _refuse_table(views)
        for arr in (buf, *views):
            arr.flags.writeable = False
        self.pz, self.px1_given_z, self.px2_given_z = views
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
    if checked_index(source, "source index") not in (1, 2):
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

    Both the joint support and the histogram, one row per value of z and of the
    conditioned inputs and 2^m bins, are refused before allocation beyond the
    enumeration budget."""
    if isinstance(conditioned_on, str) or not isinstance(conditioned_on, Iterable):
        raise InvalidArgumentError(
            f"conditioned_on must be a collection of register names, got {conditioned_on!r}")
    cond = list(conditioned_on)
    if not all(isinstance(r, str) and r in ("Z", "X1", "X2") for r in cond):
        raise InvalidArgumentError(f"unknown conditioning registers: {cond}")
    n1, n2, zc = table.n1, table.n2, table.z_card
    check_budget(n1 + n2 + math.log2(zc), "joint support")
    row_bits = n1 * ("X1" in cond) + n2 * ("X2" in cond)
    check_budget(math.log2(zc) + row_bits + ext.m, "histogram")
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
    # bin ((z * 2^row_bits + x1 * 2^n2 + x2) * 2^m + y), keeping whichever of x1, x2
    # is conditioned on: one histogram row block per z, each z's bins apart
    key = T.take(s1, 0).take(s2, 1) + (xkey << ext.m)
    key = (key.ravel() + (np.arange(zc) * (ksize * M))[:, None]).ravel()
    # take, not p1[:, s1]: fancy indexing on axis 1 returns a column-major array,
    # on which the einsum and the product below run at about half speed
    w = np.einsum("zj,zk->zjk", p1.take(s1, 1), p2.take(s2, 1)) * table.pz[:, None, None]
    hist = np.bincount(key, weights=w.ravel(), minlength=zc * ksize * M).reshape(zc, ksize, M)
    if "Z" in cond:
        per_z = np.abs(hist - hist.sum(axis=2, keepdims=True) / M).sum(axis=(1, 2))
        total = 0.0
        for d in per_z.tolist():  # in z order, as a sum of Python floats
            total += 0.5 * d
        return total
    acc = hist.sum(axis=0)
    return float(0.5 * np.abs(acc - acc.sum(axis=1, keepdims=True) / M).sum())


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
    z_card, seed = checked_index(z_card, "z_card"), checked_index(seed, "seed")
    target_k1 = checked_real(target_k1, "entropy target k1")
    target_k2 = checked_real(target_k2, "entropy target k2")
    if target_k1 > n1 or target_k2 > n2:
        raise ConstructionError("entropy target exceeds the source length")
    if target_k1 < 0 or target_k2 < 0 or z_card < 1:
        raise ConstructionError("invalid targets")
    if seed < 0:
        raise InvalidArgumentError(f"seed must be non-negative, got {seed}")
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
