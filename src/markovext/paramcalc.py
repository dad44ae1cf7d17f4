"""Security-parameter calculus for the Markov side-information model.

Transfers a plain extractor's (k_1, ..., k_l, eps) guarantee into
classical-proof and quantum-proof Markov-model guarantees, plus the smooth,
subnormalized and construction-specific corollaries. All logarithms are base
2; the transfers and closed-form bounds are evaluated at 120-bit precision,
the self-consistent solver in double precision. All error outputs are clamped
to [0, 1].
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

from mpmath import mp

from .errors import DomainError
from .extractors import trevisan_params


class SecurityModel(str, Enum):
    PLAIN = "Plain"
    CLASSICAL_MARKOV = "ClassicalMarkov"
    QUANTUM_MARKOV = "QuantumMarkov"
    PRODUCT_QUANTUM = "ProductQuantum"
    SMOOTH_MARKOV = "SmoothMarkov"
    SUBNORMALIZED = "Subnormalized"


@dataclass(frozen=True)
class SecurityAssessment:
    model: SecurityModel
    l: int
    required_k: tuple
    error: float
    m: int
    strong_in: frozenset = frozenset()

    def __post_init__(self):
        if self.l < 2:
            raise DomainError(f"need at least two sources, got l={self.l}")
        if len(self.required_k) != self.l:
            raise DomainError(f"got {len(self.required_k)} entropy thresholds for l={self.l} sources")
        two_source = (SecurityModel.PLAIN, SecurityModel.SMOOTH_MARKOV, SecurityModel.SUBNORMALIZED)
        if self.l != 2 and self.model in two_source:
            raise DomainError(f"the {self.model.value} model is stated for two sources; got l={self.l}")
        if not 0.0 <= self.error <= 1.0:
            raise DomainError(f"error {self.error} outside [0, 1]")
        if any(k < 0 for k in self.required_k):
            raise DomainError("entropy thresholds must be non-negative")

    def to_dict(self) -> dict:
        return {
            "model": self.model.value,
            "l": self.l,
            "required_k": list(self.required_k),
            "error": self.error,
            "m": self.m,
            "strong_in": sorted(self.strong_in),
        }


@dataclass(frozen=True)
class SmoothParams:
    delta1: float
    delta2: float
    eps1: float
    eps2: float

    def __post_init__(self):
        for v in (self.delta1, self.delta2, self.eps1, self.eps2):
            if not 0.0 <= v <= 1.0:
                raise DomainError("smoothing parameters must lie in [0, 1]")


def _markov_transfer(
    model: SecurityModel, error_of: Callable, k: Sequence[float], eps: float, l: int, m: int,
    strong_in,
) -> SecurityAssessment:
    """k_i -> k_i + log(1/eps); the error is error_of(mpf(eps)), clamped to 1."""
    if not 0 < eps < 1:
        raise DomainError(f"need 0 < eps < 1, got {eps}")
    with mp.workprec(120):
        shift = -mp.log(mp.mpf(eps), 2)
        required = tuple(float(mp.mpf(ki) + shift) for ki in k)
        # .real: the quantum law is complex for l < -1, which the assessment refuses
        error = min(1.0, float(error_of(mp.mpf(eps)).real))
    return SecurityAssessment(
        model=model,
        l=l,
        required_k=required,
        error=error,
        m=m,
        strong_in=frozenset(strong_in),
    )


def classical_markov_transfer(
    k: Sequence[float], eps: float, l: int, m: int, strong_in=frozenset()
) -> SecurityAssessment:
    """k_i -> k_i + log(1/eps), error -> (l+1) * eps."""
    return _markov_transfer(
        SecurityModel.CLASSICAL_MARKOV, lambda e: (l + 1) * e, k, eps, l, m, strong_in
    )


def quantum_markov_transfer(
    k: Sequence[float], eps: float, l: int, m: int, strong_in=frozenset()
) -> SecurityAssessment:
    """k_i -> k_i + log(1/eps), error -> sqrt((l+1) * eps * 2^(m-2))."""
    return _markov_transfer(
        SecurityModel.QUANTUM_MARKOV, lambda e: mp.sqrt((l + 1) * e * mp.mpf(2) ** (m - 2)),
        k, eps, l, m, strong_in,
    )


def smooth_transfer(base: SecurityAssessment, s: SmoothParams) -> SecurityAssessment:
    """Error 6*delta1 + 6*delta2 + 2*eps1 + 2*eps2 + 2*eps for two sources."""
    if base.model is not SecurityModel.QUANTUM_MARKOV:
        raise DomainError("smooth transfer applies to a quantum-Markov base assessment")
    error = min(
        1.0, 6 * s.delta1 + 6 * s.delta2 + 2 * s.eps1 + 2 * s.eps2 + 2 * base.error
    )
    return SecurityAssessment(
        model=SecurityModel.SMOOTH_MARKOV,
        l=base.l,
        required_k=base.required_k,
        error=error,
        m=base.m,
        strong_in=base.strong_in,
    )


def subnormalized_transfer(eps: float) -> float:
    """Factor-2 law for extraction from subnormalized states (entropies reduced by 1 bit)."""
    if eps < 0:
        raise DomainError("error must be non-negative")
    return min(1.0, 2.0 * eps)


def deor_quantum_corollary(n: int, k1p: float, k2p: float, m: int) -> float:
    """(sqrt(3)/2) * 2^{-(k1'+k2'+1-n-5m)/8}, clamped to 1."""
    if m < 1:
        raise DomainError("need m >= 1")
    with mp.workprec(120):
        val = mp.sqrt(3) / 2 * mp.mpf(2) ** (-(mp.mpf(k1p) + k2p + 1 - n - 5 * m) / 8)
        return min(1.0, float(val))


def solve_self_consistent_error(
    error_law: Callable[[float, float], float], k1p: float, k2p: float
) -> float:
    """Solve eps = error_law(k1' - log(1/eps), k2' - log(1/eps)) by bisection on log2(eps).

    Requires error_law non-increasing in each entropy, which makes the fixed
    point unique on (0, 1]. The search runs over log2(eps) in [-2000, 0] with
    f(lo) < 0 <= f(hi) and stops exactly when the midpoint is no longer
    strictly between lo and hi. Then lo and hi are adjacent floats, the
    midpoint rounds to one of them, and further steps would leave both in
    place, so the result is the limit of the bisection. Raises DomainError
    for a non-finite k1' or k2'.
    """
    if not (math.isfinite(k1p) and math.isfinite(k2p)):
        raise DomainError(f"entropies must be finite, got k1'={k1p}, k2'={k2p}")

    def f(log_eps: float) -> float:
        e = error_law(k1p + log_eps, k2p + log_eps)
        if e <= 0:
            return -math.inf
        return log_eps - math.log2(e)

    lo, hi = -2000.0, 0.0
    if f(hi) <= 0:
        return 1.0
    if f(lo) >= 0:
        return float(2.0 ** lo)
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return float(2.0 ** mid)


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    error: float
    violated: tuple = ()


def raz_quantum_feasible(
    n1: int, n2: int, k1p: float, k2p: float, m: int, delta_p: float
) -> FeasibilityReport:
    """Quantum-proof feasibility of the Raz extractor parameters.

    Checks the four printed inequalities; a logarithm of a non-positive
    argument makes the tuple infeasible rather than raising. delta' outside
    (0, 19/32) is a domain error. The error on feasible tuples is
    (sqrt(3)/2) * 2^{-m/4}.
    """
    if not 0 < delta_p < 19 / 32:
        raise DomainError(f"need 0 < delta' < 19/32, got {delta_p}")
    violated = []
    with mp.workprec(120):
        log = lambda v: mp.log(mp.mpf(v), 2)
        if not n1 >= 6 * log(n1) + 2 * log(n2):
            violated.append("n1 >= 6 log n1 + 2 log n2")
        if not k1p >= (mp.mpf(1) / 2 + delta_p) * n1 + 3 * log(n1) + log(n2):
            violated.append("k1' >= (1/2 + delta') n1 + 3 log n1 + log n2")
        arg = (1 + 3 * mp.mpf(delta_p) / 19) * n1 - k1p
        if arg <= 0 or not k2p >= mp.mpf(163) / 32 * log(arg):
            violated.append("k2' >= (163/32) log((1 + 3 delta'/19) n1 - k1')")
        bound_m = 16 * mp.mpf(delta_p) / 19 * min(mp.mpf(n1) / 8, 4 * mp.mpf(k2p) / 163) - 1
        if not m <= bound_m:
            violated.append("m <= (16 delta'/19) min[n1/8, 4 k2'/163] - 1")
        error = min(1.0, float(mp.sqrt(3) / 2 * mp.mpf(2) ** (-mp.mpf(m) / 4)))
    feasible = not violated
    return FeasibilityReport(
        feasible=feasible, error=error if feasible else 1.0, violated=tuple(violated)
    )


@dataclass(frozen=True)
class CompositionPlan:
    feasible: bool
    m_inner: float
    m_total: Optional[int]
    error: Optional[float]
    required_k: tuple
    violated: tuple = ()


def trevisan_composition_plan(
    n: int, k1p: float, k2p: float, eps_p: float, m_pp: int, eps_pp: float
) -> CompositionPlan:
    """Plan the DEOR + Trevisan composition.

    Requires m = (k1'+k2'+1-n-8 log(sqrt(3)/(2 eps'))) / 5 >= d(m'', eps'')
    and max(k1', k2') >= m'' + 4 log(m''/eps'') + 6. Infeasible preconditions
    are reported by name, never silently clamped.
    """
    if not 0 < eps_p < 1 or not 0 < eps_pp < 1:
        raise DomainError("errors must lie in (0, 1)")
    with mp.workprec(120):
        m_inner = (
            mp.mpf(k1p) + k2p + 1 - n - 8 * mp.log(mp.sqrt(3) / (2 * mp.mpf(eps_p)), 2)
        ) / 5
        seed_need = trevisan_params(n, m_pp, eps_pp).d
        entropy_need = m_pp + 4 * mp.log(mp.mpf(m_pp) / eps_pp, 2) + 6
        violated = []
        if not m_inner >= seed_need:
            violated.append("m >= d(m'', eps'') (seed-length constraint)")
        if not max(k1p, k2p) >= entropy_need:
            violated.append("max(k1', k2') >= m'' + 4 log(m''/eps'') + 6")
        if violated:
            return CompositionPlan(
                feasible=False,
                m_inner=float(m_inner),
                m_total=None,
                error=None,
                required_k=(k1p, k2p),
                violated=tuple(violated),
            )
        return CompositionPlan(
            feasible=True,
            m_inner=float(m_inner),
            m_total=int(mp.floor(m_inner)) + m_pp,
            error=min(1.0, eps_p + eps_pp),
            required_k=(k1p, k2p),
        )
