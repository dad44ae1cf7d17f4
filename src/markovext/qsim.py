"""Small-dimension density-operator toolkit.

Builds direct-sum quantum Markov states (classical sources X1, X2, quantum
side information C), applies the extractor channel, and numerically checks
the quantum-Markov security bound and trace-distance contractivity. The
oracles work block by block on the direct sum over t, so each eigensolve runs
at one block's dimension c1_t * c2_t; the dense `assemble` / `trace_distance`
/ `conditional_mutual_information` path is kept as an independent
cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import sources
from .errors import (
    CertificationError,
    InvalidArgumentError,
    checked_index,
    checked_real,
    numeric_array,
)
from .extractors import ExtractorDescriptor
from .paramcalc import SecurityModel, assessment

HERMITIAN_TOL = 1e-10
EIGENVALUE_TOL = 1e-10
TRACE_TOL = 1e-10
ENTROPY_TOL = 1e-9  # a certified or asserted min-entropy may pass its range by this
DISTANCE_SLACK = 1e-9


def _psd_matrices(a, ndim: int, what: str) -> np.ndarray:
    """`a` as a read-only complex copy with `ndim` axes, the last two square.

    Every matrix must be finite, Hermitian and PSD within tolerance; one
    batched eigensolve checks them all.
    """
    m = numeric_array(a, complex, what)
    if m.ndim != ndim or m.shape[-1] != m.shape[-2]:
        raise InvalidArgumentError(f"{what} must be square")
    if not np.isfinite(m).all():
        raise InvalidArgumentError(f"{what} has non-finite entries")
    if np.abs(m - m.conj().swapaxes(-1, -2)).max(initial=0.0) > HERMITIAN_TOL:
        raise InvalidArgumentError(f"{what} is not Hermitian within tolerance")
    low = np.linalg.eigvalsh(m).min(initial=0.0)
    if low < -EIGENVALUE_TOL:
        raise InvalidArgumentError(f"{what} has negative eigenvalue {low:.3e}")
    m.flags.writeable = False
    return m


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian positive semidefinite matrix with 0 < trace <= 1 (+ tolerance).

    `DensityOperator(m)` checks all of this and holds a read-only copy of m.
    The results of `tensor`, `partial_trace`, `assemble` and
    `apply_extractor_channel` are not checked again: each is PSD by
    construction from checked inputs, and its trace carries their accumulated
    tolerance (a tensor of two operators of trace 1 + TRACE_TOL has trace up to
    about 1 + 2 * TRACE_TOL).
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _psd_matrices(self.matrix, 2, "matrix")
        object.__setattr__(self, "matrix", m)
        tr = float(m.trace().real)
        if not 0.0 < tr <= 1.0 + TRACE_TOL:
            raise InvalidArgumentError(f"trace {tr} outside (0, 1]")

    @classmethod
    def _derived(cls, m: np.ndarray) -> "DensityOperator":
        """Wrap m, made read-only, without the check: m is PSD by construction."""
        m.flags.writeable = False
        rho = object.__new__(cls)
        object.__setattr__(rho, "matrix", m)
        return rho

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(self.matrix.trace().real)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Kronecker product of (c, c) matrices or (n, c, c) stacks, a's stack index major:
    numpy's kron bit for bit, from one broadcast multiply without its axis bookkeeping."""
    c, d = a.shape[-1], b.shape[-1]
    na, nb = math.prod(a.shape[:-2]), math.prod(b.shape[:-2])
    stack = () if a.ndim == b.ndim == 2 else (na * nb,)
    product = a.reshape(na, 1, c, 1, c, 1) * b.reshape(1, nb, 1, d, 1, d)
    return product.reshape(stack + (c * d, c * d))


def tensor(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    return DensityOperator._derived(_kron(a.matrix, b.matrix))


def _checked_dims(dims: Sequence[int], count: Optional[int] = None) -> List[int]:
    """`dims` as a list of `count` (if given) integer register dimensions, each at least 1."""
    dims = [checked_index(d, "dimension") for d in dims]
    if any(d < 1 for d in dims):
        raise InvalidArgumentError(f"dimensions must be at least 1, got {dims}")
    if count is not None and len(dims) != count:
        raise InvalidArgumentError(f"need {count} dimensions, got {dims}")
    return dims


def partial_trace(rho: DensityOperator, dims: Sequence[int], traced: int) -> DensityOperator:
    dims, traced = _checked_dims(dims), checked_index(traced, "traced index")
    if math.prod(dims) != rho.dim:
        raise InvalidArgumentError(f"dims {dims} do not multiply to {rho.dim}")
    if not 0 <= traced < len(dims):
        raise InvalidArgumentError("traced index out of range")
    k = len(dims)
    t = rho.matrix.reshape(dims + dims)
    t = np.trace(t, axis1=traced, axis2=traced + k)
    d_rest = rho.dim // dims[traced]
    return DensityOperator._derived(t.reshape(d_rest, d_rest))


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    if rho.dim != sigma.dim:
        raise InvalidArgumentError("dimension mismatch")
    eig = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return float(0.5 * np.abs(eig).sum())


def _entropy_from_eigs(eigs: np.ndarray) -> float:
    lam = eigs[eigs > 1e-14]
    return float(-(lam * np.log2(lam)).sum())


def von_neumann_entropy(rho: DensityOperator) -> float:
    return _entropy_from_eigs(np.linalg.eigvalsh(rho.matrix))


def conditional_mutual_information(rho: DensityOperator, dims: Tuple[int, int, int]) -> float:
    """I(A:B|C) = H(AC) + H(BC) - H(C) - H(ABC) for a tripartite state."""
    dA, dB, dC = _checked_dims(dims, 3)
    if dA * dB * dC != rho.dim:
        raise InvalidArgumentError(f"dims {dims} do not multiply to {rho.dim}")
    rho_ac = partial_trace(rho, [dA, dB, dC], 1)
    rho_bc = partial_trace(rho, [dA, dB, dC], 0)
    rho_c = partial_trace(rho_bc, [dB, dC], 0)
    return (
        von_neumann_entropy(rho_ac)
        + von_neumann_entropy(rho_bc)
        - von_neumann_entropy(rho_c)
        - von_neumann_entropy(rho)
    )


# ---------------------------------------------------------------------------
# Direct-sum Markov states
# ---------------------------------------------------------------------------

def _block_diagonal(parts: Sequence[np.ndarray]) -> np.ndarray:
    """The (..., d_t, d_t) arrays on the diagonal of one (..., D, D) array, D = sum_t d_t."""
    dim = sum(p.shape[-1] for p in parts)
    out = np.zeros(parts[0].shape[:-2] + (dim, dim), dtype=complex)
    off = 0
    for p in parts:
        d = p.shape[-1]
        out[..., off : off + d, off : off + d] = p
        off += d
    return out


def _checked_weight(weight) -> float:
    w = checked_real(weight, "block weight", InvalidArgumentError)
    if w < 0.0:
        raise InvalidArgumentError(f"block weight {weight} is negative")
    return w


def _check_trace_sums(sums: np.ndarray) -> None:
    """Each entry of `sums` is the total trace of one cq stack or drawn density: it must be 1."""
    off = np.abs(sums - 1.0) > TRACE_TOL
    if off.any():
        raise InvalidArgumentError(f"cq component traces sum to {float(sums[off][0])}, not 1")


@dataclass(frozen=True, eq=False)
class CcqBlock:
    """One direct-sum block: weight p(t) >= 0, held as a float, and per-source cq components.

    comp_i is a read-only (2^n_i, c_i, c_i) complex array; comp_i[x] is the
    (subnormalized, PSD) operator p(x|t) * rho_i^t(x) on C_i^t, and the traces
    over x sum to 1 for each source. All of this is checked when the block is
    built.
    """

    weight: float
    comp1: np.ndarray
    comp2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weight", _checked_weight(self.weight))
        for name in ("comp1", "comp2"):
            comp = _psd_matrices(getattr(self, name), 3, name)
            _check_trace_sums(np.trace(comp, axis1=1, axis2=2).real.sum(keepdims=True))
            object.__setattr__(self, name, comp)

    @classmethod
    def _derived(cls, weight: float, comp1: np.ndarray, comp2: np.ndarray) -> "CcqBlock":
        """Wrap the parts, stacks made read-only, without the check: their caller ran it."""
        comp1.flags.writeable = comp2.flags.writeable = False
        block = object.__new__(cls)
        for name, value in (("weight", weight), ("comp1", comp1), ("comp2", comp2)):
            object.__setattr__(block, name, value)
        return block

    @property
    def c1_dim(self) -> int:
        return self.comp1.shape[-1]

    @property
    def c2_dim(self) -> int:
        return self.comp2.shape[-1]


@dataclass(frozen=True, eq=False)
class CcqMarkovState:
    """Direct sum over blocks t of p(t) * rho^t_{X1 C1^t} (x) rho^t_{X2 C2^t}."""

    n1: int
    n2: int
    blocks: tuple
    certified_k: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        for name in ("n1", "n2"):
            object.__setattr__(self, name, checked_index(getattr(self, name), name))
        try:
            blocks = tuple(self.blocks)
        except TypeError:
            blocks = None
        if blocks is None or not all(isinstance(b, CcqBlock) for b in blocks):
            raise InvalidArgumentError("blocks must be an iterable of CcqBlock")
        object.__setattr__(self, "blocks", blocks)
        if self.n1 < 0 or self.n2 < 0:
            raise InvalidArgumentError("n1 and n2 must be non-negative")
        if self.certified_k is not None:
            try:
                ks = tuple(checked_real(k, "certified_k entry", InvalidArgumentError)
                           for k in self.certified_k)
            except TypeError:
                ks = ()
            # -log2(p_guess) may pass n by a few ulp
            if len(ks) != 2 or not all(-ENTROPY_TOL <= k <= n + ENTROPY_TOL
                                       for k, n in zip(ks, (self.n1, self.n2))):
                raise InvalidArgumentError(
                    f"certified_k must be a pair of reals in [0, n_i], got {self.certified_k!r}")
            object.__setattr__(self, "certified_k", ks)
        w = sum(b.weight for b in self.blocks)
        if abs(w - 1.0) > sources.ROW_SUM_TOL:
            raise InvalidArgumentError(f"block weights sum to {w}, not 1")
        for b in self.blocks:
            if len(b.comp1) != 1 << self.n1 or len(b.comp2) != 1 << self.n2:
                raise InvalidArgumentError("cq component length must be 2^n")

    @property
    def c_dim(self) -> int:
        return sum(b.c1_dim * b.c2_dim for b in self.blocks)

    def side_information(self) -> np.ndarray:
        """rho_C as a dense matrix (block diagonal over t)."""
        return _on_c(self, ())


def _on_c(state: CcqMarkovState, given: Tuple[int, ...]) -> np.ndarray:
    """Block-diagonal operators on C, one per value of the sources in `given`, x1 major,
    the others summed out; refused before any Kronecker product beyond the budget."""
    sources.check_budget(state.n1 * (1 in given) + state.n2 * (2 in given)
                         + 2 * math.log2(state.c_dim), "operators on C")
    # _kron of two stacks is the stack of every kron(comp1[x1], comp2[x2]), x1 major;
    # builtin sum adds the x-slices in order, where ndarray.sum may move the last bit
    return _block_diagonal([
        b.weight * _kron(b.comp1 if 1 in given else sum(b.comp1),
                         b.comp2 if 2 in given else sum(b.comp2))
        for b in state.blocks
    ])


def assemble(state: CcqMarkovState) -> DensityOperator:
    """Dense density operator on X1 (x) X2 (x) C with orthogonal C-blocks; refused before
    allocating when it would not fit the enumeration budget."""
    xs, dc = 1 << (state.n1 + state.n2), state.c_dim
    sources.check_budget(2 * math.log2(xs * dc), "dense state")
    cond = _on_c(state, (1, 2))
    dense = np.zeros((xs, dc, xs, dc), dtype=complex)
    x = np.arange(xs)
    dense[x, :, x, :] = cond
    return DensityOperator._derived(dense.reshape(xs * dc, xs * dc))


def from_markov_table(table) -> CcqMarkovState:
    """Embed a classical Markov table as a Markov state with 1-dimensional C-blocks.

    The blocks are not checked again: the table's rows are finite, with no negative
    entry, and sum to 1 within ROW_SUM_TOL, tighter than TRACE_TOL."""
    if not isinstance(table, sources.MarkovSourceTable):
        raise InvalidArgumentError(f"need a MarkovSourceTable, got {type(table).__name__}")
    return CcqMarkovState(
        n1=table.n1,
        n2=table.n2,
        blocks=[CcqBlock._derived(float(w), p1.astype(complex)[:, None, None],
                                  p2.astype(complex)[:, None, None])
                for w, p1, p2 in zip(table.pz, table.px1_given_z, table.px2_given_z)],
        certified_k=(sources.hmin_conditional(table, 1), sources.hmin_conditional(table, 2)),
    )


def markov_cmi(state: CcqMarkovState) -> float:
    """I(X1:X2|C) computed from the block structure (exact eigenvalues).

    Each entropy is a sum over blocks t, and within a block every spectrum is
    p(t) times a product of one C1 and one C2 spectrum.
    """
    ent = _entropy_from_eigs
    total = 0.0
    for b in state.blocks:
        # the last row of each stack is the marginal rho_i^t = sum_x comp_i[x]
        e1 = np.linalg.eigvalsh(np.concatenate([b.comp1, b.comp1.sum(axis=0, keepdims=True)]))
        e2 = np.linalg.eigvalsh(np.concatenate([b.comp2, b.comp2.sum(axis=0, keepdims=True)]))
        (e1, ec1), (e2, ec2) = (e1[:-1], e1[-1]), (e2[:-1], e2[-1])
        w = b.weight
        total += (
            ent(w * e1[:, :, None] * ec2)
            + ent(w * ec1[:, None] * e2[:, None, :])
            - ent(w * np.outer(ec1, ec2))
            - ent(w * e1[:, None, :, None] * e2[None, :, None, :])
        )
    return total


# ---------------------------------------------------------------------------
# Extractor channel
# ---------------------------------------------------------------------------

def _one_hot_outputs(ext: ExtractorDescriptor, n1: int, n2: int) -> np.ndarray:
    """Array H of shape (2^n1, 2^n2, M) with H[x1, x2, y] = [Ext(x1, x2) = y]; refused before
    the output table is built when H would not fit the enumeration budget."""
    sources.check_budget(n1 + n2 + ext.m, "one-hot output")
    return np.eye(1 << ext.m)[sources.extractor_output_table(ext, n1, n2)]


def _output_blocks(state: CcqMarkovState, ext: ExtractorDescriptor) -> List[np.ndarray]:
    """Per block t, the (M, d_t, d_t) array p(t) sum_{Ext(x1,x2)=y} A_t[x1] (x) B_t[x2];
    refused before the first block when the largest partial sum over x2, or all the
    blocks together, would not fit the enumeration budget; a state of other lengths than
    the extractor's inputs is refused first."""
    if (state.n1, state.n2) != (ext.n1, ext.n2):
        raise InvalidArgumentError(f"state lengths (n1, n2) = {(state.n1, state.n2)} do not "
                                   f"match the extractor's {(ext.n1, ext.n2)}")
    largest_c2 = max(b.c2_dim for b in state.blocks)
    sources.check_budget(state.n1 + ext.m + 2 * math.log2(largest_c2), "output partial sum")
    entries = sum((b.c1_dim * b.c2_dim) ** 2 for b in state.blocks)
    sources.check_budget(ext.m + math.log2(entries), "output blocks")
    onehot = _one_hot_outputs(ext, state.n1, state.n2)
    out = []
    for b in state.blocks:
        # sum over x2 first, then the Kronecker product with A_t[x1] summed over x1
        partial = np.einsum("uvy,vij->uyij", onehot, b.comp2)
        o = np.einsum("upq,uyij->ypiqj", b.comp1, partial)
        d = b.c1_dim * b.c2_dim
        out.append(b.weight * o.reshape(-1, d, d))
    return out


def _distance_to_uniform(out_blocks: Sequence[np.ndarray]) -> float:
    """(1/2)|| rho_{YC} - U_m (x) rho_C ||_1 as a sum over the (M, d, d) blocks of rho_{YC}.

    Each block's eigensolves run at its own dimension d.
    """
    total = 0.0
    for o in out_blocks:
        eig = np.linalg.eigvalsh(o - o.mean(axis=0))
        total += 0.5 * float(np.abs(eig).sum())
    return total


def apply_extractor_channel(
    rho: DensityOperator, ext: ExtractorDescriptor, dims: Tuple[int, int, int]
) -> DensityOperator:
    """Ext (x) 1_C applied to a state classical on X1, X2.

    dims = (2^n1, 2^n2, dC). Off-diagonal blocks in the X1 X2 basis beyond
    tolerance raise InvalidArgumentError.
    """
    d1, d2, dc = _checked_dims(dims, 3)
    if d1 != 1 << ext.n1 or d2 != 1 << ext.n2:
        raise InvalidArgumentError("extractor dimensions do not match dims")
    if d1 * d2 * dc != rho.dim:
        raise InvalidArgumentError("dims do not multiply to the state dimension")
    t = rho.matrix.reshape(d1 * d2, dc, d1 * d2, dc)
    x = np.arange(d1 * d2)
    # one contiguous max outside the diagonal (x1, x2) blocks: a max over axes (1, 3)
    # took most of the call's time
    off = np.abs(t)
    off[x, :, x, :] = 0.0
    if off.max(initial=0.0) > HERMITIAN_TOL:
        raise InvalidArgumentError("input registers are not classical within tolerance")
    onehot = _one_hot_outputs(ext, ext.n1, ext.n2).reshape(d1 * d2, -1)
    out = np.einsum("xy,xij->yij", onehot, t[x, :, x, :])
    return DensityOperator._derived(_block_diagonal(list(out)))


# ---------------------------------------------------------------------------
# Min-entropy of cq states
# ---------------------------------------------------------------------------

def hmin_cq(components: Sequence[np.ndarray]) -> float:
    """-log2 p_guess(X|C) for a cq state given as subnormalized operators per x.

    Supports |X| = 1 (p_guess = 1), |X| = 2 (Helstrom closed form) and classical C (all
    operators diagonal; averaging identity). Other cases are unsupported.
    """
    comps = _psd_matrices(components, 3, "cq components")
    _check_trace_sums(np.trace(comps, axis1=1, axis2=2).real.sum(keepdims=True))
    return _hmin_unchecked(comps)


def _hmin_unchecked(comps: np.ndarray) -> float:
    """`hmin_cq` without its input check, for the cq operators of a checked state: PSD by
    construction, their traces carry both sources' tolerances."""
    if len(comps) == 1:
        return 0.0
    if len(comps) == 2:
        eig = np.linalg.eigvalsh(comps[0] - comps[1])
        p_guess = 0.5 * (1.0 + float(np.abs(eig).sum()))
        return -math.log2(p_guess)
    off_diagonal = comps[:, ~np.eye(comps.shape[-1], dtype=bool)]
    if np.abs(off_diagonal).max(initial=0.0) <= HERMITIAN_TOL:
        p_guess = float(np.diagonal(comps, axis1=1, axis2=2).real.max(axis=0).sum())
        return -math.log2(p_guess)
    raise CertificationError("p_guess for |X| > 2 with quantum C is unsupported")


def certify_hmin(state: CcqMarkovState, source: int) -> float:
    """Certified H_min(X_i|C): by-construction value if recorded, else `_hmin_unchecked`."""
    if checked_index(source, "source index") not in (1, 2):
        raise InvalidArgumentError("source index must be 1 or 2")
    if state.certified_k is not None:
        return state.certified_k[source - 1]
    return _hmin_unchecked(_on_c(state, (source,)))


# ---------------------------------------------------------------------------
# Bound verification and channel monotonicity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundCheck:
    distance: float
    bound: float
    holds: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "holds", self.distance <= self.bound + DISTANCE_SLACK)


def verify_quantum_bound(
    state: CcqMarkovState, ext: ExtractorDescriptor, k1: float, k2: float
) -> BoundCheck:
    """Check the quantum-Markov bound sqrt(3 eps 2^{m-2}) on one instance.

    eps is the base extractor error at entropies (k1 - log(1/eps),
    k2 - log(1/eps)), solved self-consistently. The asserted (k1, k2) must
    be certified by the state; each must be a finite real (DomainError).
    """
    k1, k2 = checked_real(k1, "entropy k1"), checked_real(k2, "entropy k2")
    cert1, cert2 = certify_hmin(state, 1), certify_hmin(state, 2)
    if k1 > cert1 + ENTROPY_TOL or k2 > cert2 + ENTROPY_TOL:
        raise CertificationError(
            f"asserted entropies ({k1}, {k2}) exceed certified ({cert1:.6f}, {cert2:.6f})"
        )
    distance = _distance_to_uniform(_output_blocks(state, ext))
    # a certified entropy may sit below 0 by rounding; no source has less than 0
    bound = assessment(SecurityModel.QUANTUM_MARKOV, ext, (max(k1, 0.0), max(k2, 0.0))).error
    return BoundCheck(distance, bound)


@dataclass(frozen=True)
class MonotonicityCheck:
    before: float
    after: float
    holds: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "holds", self.after <= self.before + DISTANCE_SLACK)


def channel_monotonicity_check(
    state: CcqMarkovState, ext: ExtractorDescriptor, kraus: Sequence[np.ndarray]
) -> MonotonicityCheck:
    """Extractor-output distance to uniform must not grow under a channel on C."""
    kraus = numeric_array(kraus, complex, "Kraus operators")
    dc = state.c_dim
    if kraus.ndim != 3 or kraus.shape[1:] != (dc, dc):
        raise InvalidArgumentError(f"Kraus operators must be {dc} x {dc} matrices")
    comp = sum(K.conj().T @ K for K in kraus)
    if np.abs(comp - np.eye(dc)).max() > HERMITIAN_TOL:
        raise InvalidArgumentError("Kraus operators do not satisfy the completeness relation")
    sources.check_budget(ext.m + 2 * math.log2(dc), "dense output")
    out = _output_blocks(state, ext)
    before = _distance_to_uniform(out)
    # Kraus operators mix the C-blocks, so the channel acts on the dense form
    full = _block_diagonal(out)
    after = _distance_to_uniform([sum(K @ full @ K.conj().T for K in kraus)])
    return MonotonicityCheck(before, after)


# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------

def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random dim x dim density matrix of trace 1 (g g^dagger of a Ginibre g, normalized);
    refused before the first draw when its dim^2 entries would not fit the budget."""
    (dim,) = _checked_dims([dim])
    sources.check_budget(2 * math.log2(dim), "random density")
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def random_ccq_markov_state(
    n1: int,
    n2: int,
    n_blocks: int,
    max_c_dim: int,
    rng: np.random.Generator,
) -> CcqMarkovState:
    """Flat-by-block Markov state with by-construction certified entropies.

    Within each block the source is uniform on a random support and the
    C-component does not depend on x, so H_min(X_i|C) = -log2 sum_t p(t)/|S_t,i|.
    Refused before the first draw when the components it could hold, n_blocks
    (2^n1 + 2^n2) matrices of up to max_c_dim^2 entries, exceed the enumeration budget.
    Each component is 0 or sigma / |S_t,i|, an exact positive rescaling, so one eigensolve
    of the 2 n_blocks drawn sigma, zero-padded to max_c_dim, checks every component.
    """
    n1, n2 = checked_index(n1, "n1"), checked_index(n2, "n2")
    n_blocks = checked_index(n_blocks, "n_blocks")
    max_c_dim = checked_index(max_c_dim, "max_c_dim")
    if n1 < 0 or n2 < 0 or n_blocks < 1 or max_c_dim < 1:
        raise InvalidArgumentError(f"need n1, n2 >= 0 and n_blocks, max_c_dim >= 1, got "
                                   f"{n1}, {n2}, {n_blocks}, {max_c_dim}")
    # log2(n_blocks * (2^n1 + 2^n2) * max_c_dim^2), without building 2^n1
    bits = (max(n1, n2) + math.log2(1 + 2.0 ** -abs(n1 - n2))
            + math.log2(n_blocks) + 2 * math.log2(max_c_dim))
    sources.check_budget(bits, "random state")
    w = rng.random(n_blocks) + 0.1
    w /= w.sum()
    sigmas = np.zeros((n_blocks, 2, max_c_dim, max_c_dim), dtype=complex)
    blocks = []
    guess1 = guess2 = 0.0
    for t in range(n_blocks):
        d1 = int(rng.integers(1, max_c_dim + 1))
        d2 = int(rng.integers(1, max_c_dim + 1))
        sigma1 = random_density(d1, rng)
        sigma2 = random_density(d2, rng)
        sigmas[t, 0, :d1, :d1], sigmas[t, 1, :d2, :d2] = sigma1, sigma2

        def flat_component(n, sigma):
            size = int(rng.integers(1, (1 << n) + 1))
            comp = np.zeros((1 << n,) + sigma.shape, dtype=complex)
            comp[rng.choice(1 << n, size=size, replace=False)] = sigma / size
            return comp, size

        comp1, s1 = flat_component(n1, sigma1)
        comp2, s2 = flat_component(n2, sigma2)
        guess1 += w[t] / s1
        guess2 += w[t] / s2
        blocks.append(CcqBlock._derived(float(w[t]), comp1, comp2))
    sigmas = _psd_matrices(sigmas.reshape(-1, max_c_dim, max_c_dim), 3, "drawn densities")
    _check_trace_sums(np.trace(sigmas, axis1=1, axis2=2).real)
    return CcqMarkovState(
        n1=n1,
        n2=n2,
        blocks=blocks,
        certified_k=(-math.log2(guess1), -math.log2(guess2)),
    )


def random_channel(dim: int, n_kraus: int, rng: np.random.Generator) -> List[np.ndarray]:
    """Random CPTP map via a Haar-ish isometry (QR of a Ginibre matrix); refused before
    the first draw when its n_kraus dim x dim operators would not fit the budget."""
    dim, n_kraus = checked_index(dim, "dim"), checked_index(n_kraus, "n_kraus")
    if dim < 1 or n_kraus < 1:
        raise InvalidArgumentError(f"need dim, n_kraus >= 1, got {dim}, {n_kraus}")
    sources.check_budget(math.log2(n_kraus) + 2 * math.log2(dim), "random channel")
    g = rng.normal(size=(dim * n_kraus, dim)) + 1j * rng.normal(size=(dim * n_kraus, dim))
    q, _ = np.linalg.qr(g)
    return [q[j * dim : (j + 1) * dim, :] for j in range(n_kraus)]
