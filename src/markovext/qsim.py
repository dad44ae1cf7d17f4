"""Small-dimension density-operator toolkit.

Builds direct-sum quantum Markov states (classical sources X1, X2, quantum
side information C), applies the extractor channel, and numerically checks
the quantum-Markov security bound and trace-distance contractivity. All
linear algebra is dense; dimensions stay in the hundreds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import sources
from .errors import CertificationError, InvalidArgumentError
from .extractors import ExtractorDescriptor
from .paramcalc import quantum_markov_transfer, solve_self_consistent_error

HERMITIAN_TOL = 1e-10
EIGENVALUE_TOL = 1e-10
TRACE_TOL = 1e-10
CMI_TOL = 1e-8
DISTANCE_SLACK = 1e-9


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian positive semidefinite matrix with 0 < trace <= 1 (+ tolerance)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidArgumentError("matrix must be square")
        if np.abs(m - m.conj().T).max() > HERMITIAN_TOL:
            raise InvalidArgumentError("matrix is not Hermitian within tolerance")
        eig = np.linalg.eigvalsh(m)
        if eig.min() < -EIGENVALUE_TOL:
            raise InvalidArgumentError(f"matrix has negative eigenvalue {eig.min():.3e}")
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

@dataclass(frozen=True)
class CcqBlock:
    """One direct-sum block: weight p(t) and per-source cq components.

    comp_i[x] is the (subnormalized, positive) operator p(x|t) * rho_i^t(x) on
    C_i^t; the traces over x sum to 1 for each source.
    """

    weight: float
    comp1: tuple
    comp2: tuple

    @property
    def c1_dim(self) -> int:
        return self.comp1[0].shape[0]

    @property
    def c2_dim(self) -> int:
        return self.comp2[0].shape[0]


@dataclass(frozen=True)
class CcqMarkovState:
    """Direct sum over blocks t of p(t) * rho^t_{X1 C1^t} (x) rho^t_{X2 C2^t}."""

    n1: int
    n2: int
    blocks: tuple
    certified_k: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        w = sum(b.weight for b in self.blocks)
        if abs(w - 1.0) > 1e-12:
            raise InvalidArgumentError(f"block weights sum to {w}, not 1")
        for b in self.blocks:
            if len(b.comp1) != 1 << self.n1 or len(b.comp2) != 1 << self.n2:
                raise InvalidArgumentError("cq component length must be 2^n")
            for comp in (b.comp1, b.comp2):
                tr = sum(float(np.trace(a).real) for a in comp)
                if abs(tr - 1.0) > 1e-10:
                    raise InvalidArgumentError(f"cq component traces sum to {tr}, not 1")

    @property
    def c_dim(self) -> int:
        return sum(b.c1_dim * b.c2_dim for b in self.blocks)

    def side_information(self) -> np.ndarray:
        """rho_C as a dense matrix (block diagonal over t)."""
        out = np.zeros((self.c_dim, self.c_dim), dtype=complex)
        off = 0
        for b in self.blocks:
            d = b.c1_dim * b.c2_dim
            rc1 = sum(b.comp1)
            rc2 = sum(b.comp2)
            out[off : off + d, off : off + d] = b.weight * np.kron(rc1, rc2)
            off += d
        return out

    def conditional_side_information(self, x1: int, x2: int) -> np.ndarray:
        """rho_C(x1, x2) = sum_t p(t) p(x1|t) p(x2|t) rho1^t(x1) (x) rho2^t(x2)."""
        out = np.zeros((self.c_dim, self.c_dim), dtype=complex)
        off = 0
        for b in self.blocks:
            d = b.c1_dim * b.c2_dim
            out[off : off + d, off : off + d] = b.weight * np.kron(b.comp1[x1], b.comp2[x2])
            off += d
        return out


def assemble(state: CcqMarkovState) -> DensityOperator:
    """Dense density operator on X1 (x) X2 (x) C with orthogonal C-blocks."""
    d1, d2, dc = 1 << state.n1, 1 << state.n2, state.c_dim
    out = np.zeros((d1 * d2 * dc, d1 * d2 * dc), dtype=complex)
    for x1 in range(d1):
        for x2 in range(d2):
            blk = state.conditional_side_information(x1, x2)
            base = (x1 * d2 + x2) * dc
            out[base : base + dc, base : base + dc] = blk
    return DensityOperator(out)


def from_markov_table(table) -> CcqMarkovState:
    """Embed a classical Markov table as a Markov state with 1-dimensional C-blocks."""
    blocks = []
    one = np.ones((1, 1), dtype=complex)
    for z in range(table.z_card):
        comp1 = tuple(table.px1_given_z[z, x] * one for x in range(1 << table.n1))
        comp2 = tuple(table.px2_given_z[z, x] * one for x in range(1 << table.n2))
        blocks.append(CcqBlock(weight=float(table.pz[z]), comp1=comp1, comp2=comp2))
    return CcqMarkovState(
        n1=table.n1,
        n2=table.n2,
        blocks=tuple(blocks),
        certified_k=(sources.hmin_conditional(table, 1), sources.hmin_conditional(table, 2)),
    )


def markov_cmi(state: CcqMarkovState) -> float:
    """I(X1:X2|C) computed from the block structure (exact eigenvalues)."""
    h_x1c, h_x2c, h_c, h_all = [], [], [], []
    for b in state.blocks:
        rc1 = sum(b.comp1)
        rc2 = sum(b.comp2)
        e1 = {x: np.linalg.eigvalsh(b.comp1[x]) for x in range(len(b.comp1))}
        e2 = {x: np.linalg.eigvalsh(b.comp2[x]) for x in range(len(b.comp2))}
        ec1 = np.linalg.eigvalsh(rc1)
        ec2 = np.linalg.eigvalsh(rc2)
        h_c.append(b.weight * np.outer(ec1, ec2).ravel())
        for x1 in range(len(b.comp1)):
            h_x1c.append(b.weight * np.outer(e1[x1], ec2).ravel())
        for x2 in range(len(b.comp2)):
            h_x2c.append(b.weight * np.outer(ec1, e2[x2]).ravel())
        for x1 in range(len(b.comp1)):
            for x2 in range(len(b.comp2)):
                h_all.append(b.weight * np.outer(e1[x1], e2[x2]).ravel())
    ent = lambda parts: _entropy_from_eigs(np.concatenate(parts))
    return ent(h_x1c) + ent(h_x2c) - ent(h_c) - ent(h_all)


# ---------------------------------------------------------------------------
# Extractor channel
# ---------------------------------------------------------------------------

def _sum_by_output(ext: ExtractorDescriptor, n1: int, n2: int, dc: int, block) -> np.ndarray:
    """Array of shape (M, dc, dc): block(x1, x2) summed over each output value y = Ext(x1, x2)."""
    out = np.zeros((1 << ext.m, dc, dc), dtype=complex)
    for (x1, x2), y in np.ndenumerate(sources.extractor_output_table(ext, n1, n2)):
        out[y] += block(x1, x2)
    return out


def _output_blocks(state: CcqMarkovState, ext: ExtractorDescriptor) -> np.ndarray:
    """Array of shape (M, dC, dC): rho_C grouped by extractor output value."""
    return _sum_by_output(ext, state.n1, state.n2, state.c_dim, state.conditional_side_information)


def _distance_to_uniform(out_blocks: np.ndarray) -> float:
    """(1/2)|| rho_{YC} - U_m (x) rho_C ||_1 using the block structure in y."""
    M = out_blocks.shape[0]
    rho_c = out_blocks.sum(axis=0)
    total = 0.0
    for y in range(M):
        eig = np.linalg.eigvalsh(out_blocks[y] - rho_c / M)
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
    diag = lambda x1, x2: t[x1 * d2 + x2, :, x1 * d2 + x2, :]
    out = _sum_by_output(ext, ext.n1, ext.n2, dc, diag)
    M = 1 << ext.m
    full = np.zeros((M * dc, M * dc), dtype=complex)
    for y in range(M):
        full[y * dc : (y + 1) * dc, y * dc : (y + 1) * dc] = out[y]
    return DensityOperator(full)


# ---------------------------------------------------------------------------
# Min-entropy of cq states
# ---------------------------------------------------------------------------

def hmin_cq(components: Sequence[np.ndarray]) -> float:
    """-log2 p_guess(X|C) for a cq state given as subnormalized operators per x.

    Supports |X| = 2 (Helstrom closed form) and classical C (all operators
    diagonal; averaging identity). Other cases are unsupported.
    """
    comps = [np.asarray(c, dtype=complex) for c in components]
    tr = sum(float(c.trace().real) for c in comps)
    if abs(tr - 1.0) > 1e-9:
        raise InvalidArgumentError(f"component traces sum to {tr}, not 1")
    if len(comps) == 2:
        eig = np.linalg.eigvalsh(comps[0] - comps[1])
        p_guess = 0.5 * (1.0 + float(np.abs(eig).sum()))
        return -math.log2(p_guess)
    diag_err = max(float(np.abs(c - np.diag(np.diagonal(c))).max(initial=0.0)) for c in comps)
    if diag_err <= HERMITIAN_TOL:
        stacked = np.stack([np.diagonal(c).real for c in comps])
        p_guess = float(stacked.max(axis=0).sum())
        return -math.log2(p_guess)
    raise CertificationError("p_guess for |X| > 2 with quantum C is unsupported")


def _marginal_components(state: CcqMarkovState, source: int) -> List[np.ndarray]:
    """Subnormalized operators on C for each value of X_source."""
    n = state.n1 if source == 1 else state.n2
    dc = state.c_dim
    comps = [np.zeros((dc, dc), dtype=complex) for _ in range(1 << n)]
    off = 0
    for b in state.blocks:
        d = b.c1_dim * b.c2_dim
        if source == 1:
            other = sum(b.comp2)
            for x, a in enumerate(b.comp1):
                comps[x][off : off + d, off : off + d] += b.weight * np.kron(a, other)
        else:
            other = sum(b.comp1)
            for x, a in enumerate(b.comp2):
                comps[x][off : off + d, off : off + d] += b.weight * np.kron(other, a)
        off += d
    return comps


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


def _apply_kraus_blocks(blocks: np.ndarray, kraus: Sequence[np.ndarray]) -> np.ndarray:
    return np.stack([sum(K @ b @ K.conj().T for K in kraus) for b in blocks])


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
    after = _distance_to_uniform(_apply_kraus_blocks(out, kraus))
    return MonotonicityCheck(before=before, after=after, holds=after <= before + DISTANCE_SLACK)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _matrix_to_pairs(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, complex)]


def _matrix_from_pairs(rows: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def state_to_dict(state: CcqMarkovState) -> dict:
    """Structured-text form: block weights, per-x matrices as (re, im) pairs."""
    return {
        "n1": state.n1,
        "n2": state.n2,
        "certified_k": list(state.certified_k) if state.certified_k else None,
        "blocks": [
            {
                "weight": b.weight,
                "comp1": [_matrix_to_pairs(a) for a in b.comp1],
                "comp2": [_matrix_to_pairs(a) for a in b.comp2],
            }
            for b in state.blocks
        ],
    }


def state_from_dict(d: dict) -> CcqMarkovState:
    blocks = tuple(
        CcqBlock(
            weight=float(b["weight"]),
            comp1=tuple(_matrix_from_pairs(a) for a in b["comp1"]),
            comp2=tuple(_matrix_from_pairs(a) for a in b["comp2"]),
        )
        for b in d["blocks"]
    )
    ck = d.get("certified_k")
    return CcqMarkovState(
        n1=int(d["n1"]),
        n2=int(d["n2"]),
        blocks=blocks,
        certified_k=tuple(ck) if ck else None,
    )


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
            support = rng.choice(1 << n, size=size, replace=False)
            comp = [np.zeros_like(sigma) for _ in range(1 << n)]
            for x in support:
                comp[x] = sigma / size
            return tuple(comp), size

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
