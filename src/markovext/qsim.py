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
from .errors import CertificationError, InvalidArgumentError, ResourceBudgetError
from .extractors import ExtractorDescriptor
from .paramcalc import quantum_markov_transfer, solve_self_consistent_error

HERMITIAN_TOL = 1e-10
EIGENVALUE_TOL = 1e-10
TRACE_TOL = 1e-10
DISTANCE_SLACK = 1e-9


def _psd_matrices(a, ndim: int, what: str) -> np.ndarray:
    """`a` as a read-only complex copy with `ndim` axes, the last two square.

    Every matrix must be finite, Hermitian and PSD within tolerance; one
    batched eigensolve checks them all.
    """
    try:
        m = np.array(a, dtype=complex)
    except (TypeError, ValueError) as e:
        raise InvalidArgumentError(f"{what} is not an array of matrices: {e}") from None
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


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian positive semidefinite matrix with 0 < trace <= 1 (+ tolerance)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _psd_matrices(self.matrix, 2, "matrix")
        object.__setattr__(self, "matrix", m)
        tr = float(m.trace().real)
        if not 0.0 < tr <= 1.0 + TRACE_TOL:
            raise InvalidArgumentError(f"trace {tr} outside (0, 1]")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(self.matrix.trace().real)


def tensor(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    return DensityOperator(np.kron(a.matrix, b.matrix))


def partial_trace(rho: DensityOperator, dims: Sequence[int], traced: int) -> DensityOperator:
    dims = list(dims)
    if int(np.prod(dims)) != rho.dim:
        raise InvalidArgumentError(f"dims {dims} do not multiply to {rho.dim}")
    if not 0 <= traced < len(dims):
        raise InvalidArgumentError("traced index out of range")
    k = len(dims)
    t = rho.matrix.reshape(dims + dims)
    t = np.trace(t, axis1=traced, axis2=traced + k)
    d_rest = rho.dim // dims[traced]
    return DensityOperator(t.reshape(d_rest, d_rest))


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
    dA, dB, dC = dims
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


@dataclass(frozen=True)
class CcqBlock:
    """One direct-sum block: weight p(t) >= 0 and per-source cq components.

    comp_i is a read-only (2^n_i, c_i, c_i) complex array; comp_i[x] is the
    (subnormalized, PSD) operator p(x|t) * rho_i^t(x) on C_i^t, and the traces
    over x sum to 1 for each source. All of this is checked when the block is
    built.
    """

    weight: float
    comp1: np.ndarray
    comp2: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.weight) and self.weight >= 0.0):
            raise InvalidArgumentError(f"block weight {self.weight} is not finite and >= 0")
        for name in ("comp1", "comp2"):
            comp = _psd_matrices(getattr(self, name), 3, name)
            tr = float(np.trace(comp, axis1=1, axis2=2).real.sum())
            if abs(tr - 1.0) > TRACE_TOL:
                raise InvalidArgumentError(f"cq component traces sum to {tr}, not 1")
            object.__setattr__(self, name, comp)

    @property
    def c1_dim(self) -> int:
        return self.comp1.shape[-1]

    @property
    def c2_dim(self) -> int:
        return self.comp2.shape[-1]


@dataclass(frozen=True)
class CcqMarkovState:
    """Direct sum over blocks t of p(t) * rho^t_{X1 C1^t} (x) rho^t_{X2 C2^t}."""

    n1: int
    n2: int
    blocks: tuple
    certified_k: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        if self.n1 < 0 or self.n2 < 0:
            raise InvalidArgumentError("n1 and n2 must be non-negative")
        if self.certified_k is not None and len(self.certified_k) != 2:
            raise InvalidArgumentError("certified_k must be a pair")
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
        return _block_diagonal(
            [b.weight * np.kron(sum(b.comp1), sum(b.comp2)) for b in self.blocks]
        )

    def conditional_side_information(self, x1: int, x2: int) -> np.ndarray:
        """rho_C(x1, x2) = sum_t p(t) p(x1|t) p(x2|t) rho1^t(x1) (x) rho2^t(x2)."""
        return _block_diagonal(
            [b.weight * np.kron(b.comp1[x1], b.comp2[x2]) for b in self.blocks]
        )


def assemble(state: CcqMarkovState) -> DensityOperator:
    """Dense density operator on X1 (x) X2 (x) C with orthogonal C-blocks; refused before
    allocating when it would hold more than 2^ENUMERATION_BUDGET_BITS entries."""
    rows = (1 << (state.n1 + state.n2)) * state.c_dim
    if 2 * math.log2(rows) > sources.ENUMERATION_BUDGET_BITS:
        raise ResourceBudgetError(f"dense state of {rows} rows exceeds the enumeration budget")
    return DensityOperator(_block_diagonal([
        state.conditional_side_information(x1, x2)
        for x1 in range(1 << state.n1)
        for x2 in range(1 << state.n2)
    ]))


def from_markov_table(table) -> CcqMarkovState:
    """Embed a classical Markov table as a Markov state with 1-dimensional C-blocks."""
    blocks = tuple(
        CcqBlock(weight=float(w), comp1=p1[:, None, None], comp2=p2[:, None, None])
        for w, p1, p2 in zip(table.pz, table.px1_given_z, table.px2_given_z)
    )
    return CcqMarkovState(
        n1=table.n1,
        n2=table.n2,
        blocks=blocks,
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
    """Array H of shape (2^n1, 2^n2, M) with H[x1, x2, y] = [Ext(x1, x2) = y]."""
    return np.eye(1 << ext.m)[sources.extractor_output_table(ext, n1, n2)]


def _output_blocks(state: CcqMarkovState, ext: ExtractorDescriptor) -> List[np.ndarray]:
    """Per block t, the (M, d_t, d_t) array p(t) sum_{Ext(x1,x2)=y} A_t[x1] (x) B_t[x2]."""
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
    d1, d2, dc = dims
    if d1 != 1 << ext.n1 or d2 != 1 << ext.n2:
        raise InvalidArgumentError("extractor dimensions do not match dims")
    if d1 * d2 * dc != rho.dim:
        raise InvalidArgumentError("dims do not multiply to the state dimension")
    t = rho.matrix.reshape(d1 * d2, dc, d1 * d2, dc)
    block_max = np.abs(t).max(axis=(1, 3), initial=0.0)
    np.fill_diagonal(block_max, 0.0)
    if block_max.max() > HERMITIAN_TOL:
        raise InvalidArgumentError("input registers are not classical within tolerance")
    x = np.arange(d1 * d2)
    onehot = _one_hot_outputs(ext, ext.n1, ext.n2).reshape(d1 * d2, -1)
    out = np.einsum("xy,xij->yij", onehot, t[x, :, x, :])
    return DensityOperator(_block_diagonal(list(out)))


# ---------------------------------------------------------------------------
# Min-entropy of cq states
# ---------------------------------------------------------------------------

def hmin_cq(components: Sequence[np.ndarray]) -> float:
    """-log2 p_guess(X|C) for a cq state given as subnormalized operators per x.

    Supports |X| = 2 (Helstrom closed form) and classical C (all operators
    diagonal; averaging identity). Other cases are unsupported.
    """
    comps = _psd_matrices(components, 3, "cq components")
    tr = float(np.trace(comps, axis1=1, axis2=2).real.sum())
    if abs(tr - 1.0) > 1e-9:
        raise InvalidArgumentError(f"component traces sum to {tr}, not 1")
    if len(comps) == 2:
        eig = np.linalg.eigvalsh(comps[0] - comps[1])
        p_guess = 0.5 * (1.0 + float(np.abs(eig).sum()))
        return -math.log2(p_guess)
    off_diagonal = comps[:, ~np.eye(comps.shape[-1], dtype=bool)]
    if np.abs(off_diagonal).max(initial=0.0) <= HERMITIAN_TOL:
        p_guess = float(np.diagonal(comps, axis1=1, axis2=2).real.max(axis=0).sum())
        return -math.log2(p_guess)
    raise CertificationError("p_guess for |X| > 2 with quantum C is unsupported")


def _marginal_components(state: CcqMarkovState, source: int) -> np.ndarray:
    """(2^n_source, D, D) stack of the subnormalized operators on C, one per x_source."""
    # builtin sum adds the x-slices in order; ndarray.sum may reorder and move the last bit
    return _block_diagonal([
        b.weight * (np.kron(b.comp1, sum(b.comp2)) if source == 1
                    else np.kron(sum(b.comp1), b.comp2))
        for b in state.blocks
    ])


def certify_hmin(state: CcqMarkovState, source: int) -> float:
    """Certified H_min(X_i|C): by-construction value if recorded, else hmin_cq."""
    if state.certified_k is not None:
        return state.certified_k[source - 1]
    return hmin_cq(_marginal_components(state, source))


# ---------------------------------------------------------------------------
# Bound verification and channel monotonicity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundCheck:
    distance: float
    bound: float
    holds: bool


def verify_quantum_bound(
    state: CcqMarkovState, ext: ExtractorDescriptor, k1: float, k2: float
) -> BoundCheck:
    """Check the quantum-Markov bound sqrt(3 eps 2^{m-2}) on one instance.

    eps is the base extractor error at entropies (k1 - log(1/eps),
    k2 - log(1/eps)), solved self-consistently. The asserted (k1, k2) must
    be certified by the state.
    """
    cert1, cert2 = certify_hmin(state, 1), certify_hmin(state, 2)
    if k1 > cert1 + 1e-9 or k2 > cert2 + 1e-9:
        raise CertificationError(
            f"asserted entropies ({k1}, {k2}) exceed certified ({cert1:.6f}, {cert2:.6f})"
        )
    distance = _distance_to_uniform(_output_blocks(state, ext))
    eps = solve_self_consistent_error(ext.error_law, k1, k2)
    if eps >= 1.0:
        bound = 1.0
    else:
        bound = quantum_markov_transfer([k1 + math.log2(eps)] * 2, eps, 2, ext.m).error
    return BoundCheck(distance=distance, bound=bound, holds=distance <= bound + DISTANCE_SLACK)


@dataclass(frozen=True)
class MonotonicityCheck:
    before: float
    after: float
    holds: bool


def channel_monotonicity_check(
    state: CcqMarkovState, ext: ExtractorDescriptor, kraus: Sequence[np.ndarray]
) -> MonotonicityCheck:
    """Extractor-output distance to uniform must not grow under a channel on C."""
    kraus = [np.asarray(K, dtype=complex) for K in kraus]
    dc = state.c_dim
    comp = sum(K.conj().T @ K for K in kraus)
    if np.abs(comp - np.eye(dc)).max() > HERMITIAN_TOL:
        raise InvalidArgumentError("Kraus operators do not satisfy the completeness relation")
    out = _output_blocks(state, ext)
    before = _distance_to_uniform(out)
    # Kraus operators mix the C-blocks, so the channel acts on the dense form
    full = _block_diagonal(out)
    after = _distance_to_uniform([sum(K @ full @ K.conj().T for K in kraus)])
    return MonotonicityCheck(before=before, after=after, holds=after <= before + DISTANCE_SLACK)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def state_to_dict(state: CcqMarkovState) -> dict:
    """Structured-text form: block weights, each component stack as nested (re, im) pairs."""
    return {
        "n1": state.n1,
        "n2": state.n2,
        "certified_k": list(state.certified_k) if state.certified_k else None,
        "blocks": [
            {
                "weight": b.weight,
                "comp1": b.comp1.view(float).reshape(b.comp1.shape + (2,)).tolist(),
                "comp2": b.comp2.view(float).reshape(b.comp2.shape + (2,)).tolist(),
            }
            for b in state.blocks
        ],
    }


def state_from_dict(d: dict) -> CcqMarkovState:
    """Inverse of `state_to_dict`; a malformed dict raises InvalidArgumentError."""
    try:
        blocks = tuple(
            CcqBlock(
                weight=float(b["weight"]),
                comp1=np.ascontiguousarray(b["comp1"], float).view(complex)[..., 0],
                comp2=np.ascontiguousarray(b["comp2"], float).view(complex)[..., 0],
            )
            for b in d["blocks"]
        )
        ck = d.get("certified_k")
        return CcqMarkovState(
            n1=int(d["n1"]),
            n2=int(d["n2"]),
            blocks=blocks,
            certified_k=tuple(map(float, ck)) if ck else None,
        )
    except InvalidArgumentError:
        raise
    except (IndexError, KeyError, TypeError, ValueError, OverflowError) as e:
        raise InvalidArgumentError(f"malformed state: {e!r}") from None


# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------

def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
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
    """
    w = rng.random(n_blocks) + 0.1
    w /= w.sum()
    blocks = []
    guess1 = guess2 = 0.0
    for t in range(n_blocks):
        d1 = int(rng.integers(1, max_c_dim + 1))
        d2 = int(rng.integers(1, max_c_dim + 1))
        sigma1 = random_density(d1, rng)
        sigma2 = random_density(d2, rng)

        def flat_component(n, sigma):
            size = int(rng.integers(1, (1 << n) + 1))
            comp = np.zeros((1 << n,) + sigma.shape, dtype=complex)
            comp[rng.choice(1 << n, size=size, replace=False)] = sigma / size
            return comp, size

        comp1, s1 = flat_component(n1, sigma1)
        comp2, s2 = flat_component(n2, sigma2)
        guess1 += w[t] / s1
        guess2 += w[t] / s2
        blocks.append(CcqBlock(weight=float(w[t]), comp1=comp1, comp2=comp2))
    return CcqMarkovState(
        n1=n1,
        n2=n2,
        blocks=tuple(blocks),
        certified_k=(-math.log2(guess1), -math.log2(guess2)),
    )


def random_channel(dim: int, n_kraus: int, rng: np.random.Generator) -> List[np.ndarray]:
    """Random CPTP map via a Haar-ish isometry (QR of a Ginibre matrix)."""
    g = rng.normal(size=(dim * n_kraus, dim)) + 1j * rng.normal(size=(dim * n_kraus, dim))
    q, _ = np.linalg.qr(g)
    return [q[j * dim : (j + 1) * dim, :] for j in range(n_kraus)]
