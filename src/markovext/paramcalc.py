"""Security-parameter calculus for the Markov side-information model.

Transfers a plain extractor's (k_1, ..., k_l, eps) guarantee into
classical-proof and quantum-proof Markov-model guarantees, plus the smooth,
subnormalized and construction-specific corollaries and `trevisan_params`.
All logarithms are base 2; the transfers and closed-form bounds are evaluated
at 120-bit precision in one context, `_at_120_bits`, which imports mpmath on
first use (no other module uses it), the self-consistent solver in double
precision. All error outputs are clamped to [0, 1], and a SecurityAssessment's
error lies in (0, 1]. Non-finite entropies and errors are domain errors.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Optional, Sequence

from .errors import DomainError, checked_index, checked_real


@contextmanager
def _at_120_bits():
    """mpmath's `mp` at 120-bit working precision; mpmath is imported on first use."""
    from mpmath import mp

    with mp.workprec(120):
        yield mp


class SecurityModel(str, Enum):
    PLAIN = "Plain"
    CLASSICAL_MARKOV = "ClassicalMarkov"
    QUANTUM_MARKOV = "QuantumMarkov"
    SMOOTH_MARKOV = "SmoothMarkov"
    SUBNORMALIZED = "Subnormalized"


@dataclass(frozen=True)
class SecurityAssessment:
    model: SecurityModel
    l: int = field(init=False)  # the number of thresholds
    required_k: tuple
    error: float
    m: int
    strong_in: frozenset = frozenset()

    def __post_init__(self):
        if not isinstance(self.model, SecurityModel):
            raise DomainError(f"model must be a SecurityModel member, got {self.model!r}")
        object.__setattr__(self, "m", checked_index(self.m, "m"))
        if self.m < 1:
            raise DomainError(f"need an output length m >= 1, got m={self.m}")
        object.__setattr__(self, "required_k", _thresholds(self.required_k, "entropy threshold"))
        object.__setattr__(self, "l", len(self.required_k))
        if self.l < 2:
            raise DomainError(f"need at least two sources, got l={self.l}")
        two_source = (SecurityModel.PLAIN, SecurityModel.SMOOTH_MARKOV, SecurityModel.SUBNORMALIZED)
        if self.l != 2 and self.model in two_source:
            raise DomainError(f"the {self.model.value} model is stated for two sources; got l={self.l}")
        object.__setattr__(self, "error", checked_real(self.error, "error"))
        if not 0.0 < self.error <= 1.0:
            raise DomainError(f"error {self.error!r} outside (0, 1]")
        if min(self.required_k) < 0:
            raise DomainError(f"entropy thresholds must be non-negative, got {self.required_k!r}")
        if not (isinstance(self.strong_in, (set, frozenset)) and all(
                type(i) is int and 1 <= i <= self.l for i in self.strong_in)):
            raise DomainError(f"strong_in must be a set of source indices in 1..{self.l}, "
                              f"got {self.strong_in!r}")
        object.__setattr__(self, "strong_in", frozenset(self.strong_in))

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
        for name in ("delta1", "delta2", "eps1", "eps2"):
            v = checked_real(getattr(self, name), name)
            if not 0.0 <= v <= 1.0:
                raise DomainError("smoothing parameters must lie in [0, 1]")
            object.__setattr__(self, name, v)


def _thresholds(k, what: str) -> tuple:
    """k as a tuple of finite reals, one per source; DomainError otherwise."""
    if not isinstance(k, Sequence):
        raise DomainError(f"need a sequence of {what} values, one per source, got {k!r}")
    return tuple(checked_real(ki, what) for ki in k)


def _markov_error(model: SecurityModel, eps: float, l: int, m: int) -> float:
    """(l+1) * eps classically, sqrt((l+1) * eps * 2^(m-2)) quantumly; 120 bits, clamped to 1."""
    with _at_120_bits() as mp:
        error = (l + 1) * mp.mpf(eps)
        if model is SecurityModel.QUANTUM_MARKOV:
            error = mp.sqrt(error * mp.mpf(2) ** (m - 2))
        return min(1.0, float(error))


def _markov_transfer(
    model: SecurityModel, k: Sequence[float], eps: float, l: int, m: int, strong_in
) -> SecurityAssessment:
    """k_i -> k_i + log(1/eps); the error is the model's law at eps."""
    l, m, eps = checked_index(l, "l"), checked_index(m, "m"), checked_real(eps, "eps")
    if not 0 < eps < 1:
        raise DomainError(f"need 0 < eps < 1, got {eps!r}")
    k = _thresholds(k, "entropy")
    if len(k) != l:
        raise DomainError(f"need l={l} entropies, got {k!r}")
    if min(k) < 0:
        raise DomainError(f"base entropy thresholds must be non-negative, got {k!r}")
    with _at_120_bits() as mp:
        shift = -mp.log(mp.mpf(eps), 2)
        required = tuple(float(mp.mpf(ki) + shift) for ki in k)
    return SecurityAssessment(model, required, _markov_error(model, eps, l, m), m,
                              frozenset(strong_in))


def classical_markov_transfer(
    k: Sequence[float], eps: float, l: int, m: int, strong_in=frozenset()
) -> SecurityAssessment:
    """k_i -> k_i + log(1/eps), error -> (l+1) * eps."""
    return _markov_transfer(SecurityModel.CLASSICAL_MARKOV, k, eps, l, m, strong_in)


def quantum_markov_transfer(
    k: Sequence[float], eps: float, l: int, m: int, strong_in=frozenset()
) -> SecurityAssessment:
    """k_i -> k_i + log(1/eps), error -> sqrt((l+1) * eps * 2^(m-2))."""
    return _markov_transfer(SecurityModel.QUANTUM_MARKOV, k, eps, l, m, strong_in)


def assessment(model: SecurityModel, ext, k: Sequence[float], eps: Optional[float] = None,
               smooth: Optional[SmoothParams] = None) -> SecurityAssessment:
    """The guarantee of `model` for ext at entropies k, one per source: the law at k (Plain)
    or `subnormalized_transfer` of the law at k + 1 (Subnormalized), at least ulp(0), which
    bounds a law value that underflows to 0; for ClassicalMarkov and QuantumMarkov, the
    model's law at the solved eps (two sources; at ulp(0) for an eps of 0: any eps above the
    fixed point is valid), its transfer from base thresholds k at a given eps < 1, or error 1
    at eps >= 1; `smooth_transfer` of the QuantumMarkov guarantee (SmoothMarkov). An input the
    model does not read is a DomainError, as is SmoothMarkov without smooth."""
    if not isinstance(model, SecurityModel):
        raise DomainError(f"model must be a SecurityModel member, got {model!r}")
    if (smooth is None) == (model is SecurityModel.SMOOTH_MARKOV):
        raise DomainError(f"smooth is read by SmoothMarkov alone, which needs it; "
                          f"got {model.value} with smooth={smooth!r}")
    if model is SecurityModel.SMOOTH_MARKOV:
        return smooth_transfer(assessment(SecurityModel.QUANTUM_MARKOV, ext, k, eps), smooth)
    if not isinstance(k, Sequence) or len(k) < 2:
        raise DomainError(f"need a sequence of at least two entropies, one per source, got {k!r}")
    if model is SecurityModel.PLAIN or model is SecurityModel.SUBNORMALIZED:
        if eps is not None:
            raise DomainError(f"the {model.value} model reads no base error eps")
        k1, k2 = checked_real(k[0], "entropy k1"), checked_real(k[1], "entropy k2")
        error = max(math.ulp(0.0), ext.error_law(k1, k2) if model is SecurityModel.PLAIN
                    else subnormalized_transfer(ext.error_law(k1 + 1, k2 + 1)))
    elif eps is None:
        if len(k) != 2:
            raise DomainError(f"the self-consistent solve is for l = 2; pass eps for l={len(k)}")
        eps = solve_self_consistent_error(ext.error_law, k[0], k[1])
        error = 1.0 if eps >= 1.0 else _markov_error(model, max(eps, math.ulp(0.0)), 2, ext.m)
    elif checked_real(eps, "eps") < 1.0:
        return _markov_transfer(model, k, eps, len(k), ext.m, ext.strong_in)
    else:
        error = 1.0
    return SecurityAssessment(model, k, error, ext.m, ext.strong_in)


def smooth_transfer(base: SecurityAssessment, s: SmoothParams) -> SecurityAssessment:
    """Error 6*delta1 + 6*delta2 + 2*eps1 + 2*eps2 + 2*eps for two sources."""
    if not (isinstance(base, SecurityAssessment) and base.model is SecurityModel.QUANTUM_MARKOV):
        raise DomainError(f"smooth transfer needs a quantum-Markov assessment, got {base!r}")
    if not isinstance(s, SmoothParams):
        raise DomainError(f"smoothing parameters must be a SmoothParams, got {s!r}")
    error = min(1.0, 6 * s.delta1 + 6 * s.delta2 + 2 * s.eps1 + 2 * s.eps2 + 2 * base.error)
    return replace(base, model=SecurityModel.SMOOTH_MARKOV, error=error)


def subnormalized_transfer(eps: float) -> float:
    """Factor-2 law for extraction from subnormalized states (entropies reduced by 1 bit)."""
    eps = checked_real(eps, "error")
    if eps < 0:
        raise DomainError(f"error must be non-negative, got {eps!r}")
    return min(1.0, 2.0 * eps)


def deor_quantum_corollary(n: int, k1p: float, k2p: float, m: int) -> float:
    """(sqrt(3)/2) * 2^{-(k1'+k2'+1-n-5m)/8}, clamped to 1, for 1 <= m <= n."""
    n, m = checked_index(n, "n"), checked_index(m, "m")
    if not 1 <= m <= n:
        raise DomainError(f"need 1 <= m <= n, got n={n}, m={m}")
    k1p, k2p = checked_real(k1p, "entropy k1'"), checked_real(k2p, "entropy k2'")
    with _at_120_bits() as mp:
        val = mp.sqrt(3) / 2 * mp.mpf(2) ** (-(mp.mpf(k1p) + k2p + 1 - n - 5 * m) / 8)
        return min(1.0, max(float(val), math.ulp(0.0)))  # val > 0 rounds to 0 only below ulp(0)


def solve_self_consistent_error(
    error_law: Callable[[float, float], float], k1p: float, k2p: float
) -> float:
    """Solve eps = error_law(k1' - log(1/eps), k2' - log(1/eps)): the limit of a bisection
    on log2(eps), found in a handful of law evaluations.

    Requires error_law non-increasing in each entropy, which makes the fixed
    point unique on (0, 1]. No source has negative min-entropy, so the law is
    called at max(k, 0). The root of f(x) = x - log2(law) is searched over
    log2(eps) in [-2000, 0]. A law value of 0 lies below every eps, so f is
    +inf there; a law value that is negative, NaN or not a finite real is a
    DomainError, as is a non-finite k1' or k2'.

    `_narrow_bracket` finds a < b in [-2000, 0] with f(a) < 0 <= f(b), in most
    solves adjacent floats, and a bisection of (a, b) runs until its midpoint is
    no longer strictly between them. Then a and b are adjacent floats and the
    midpoint rounds to one of them. The result is that of a bisection over all
    of [-2000, 0]: a monotone law makes f change sign once along the floats, so
    every bisection of a bracket ends at the same adjacent pair.

    A DEOR solve takes ~5-8 law evaluations where the bisection alone took ~65;
    a step in the law (the Trevisan threshold) leaves most of the work to the
    bisection, and no solve takes more evaluations than the bisection alone.
    """
    k1p, k2p = checked_real(k1p, "entropy k1'"), checked_real(k2p, "entropy k2'")

    def f(log_eps: float) -> float:
        k1, k2 = k1p + log_eps, k2p + log_eps  # not max(): its calls made a solve ~30 % slower
        e = checked_real(error_law(k1 if k1 > 0.0 else 0.0, k2 if k2 > 0.0 else 0.0),
                         "error law value")
        if e > 0.0:
            return log_eps - math.log2(e)
        if e == 0.0:
            return math.inf
        raise DomainError(f"error law value must be non-negative, got {e!r}")

    lo, hi = -2000.0, 0.0
    f_hi = f(hi)
    if f_hi <= 0:
        return 1.0
    f_lo = f(lo)
    if f_lo >= 0:
        return float(2.0 ** lo)
    a, b = _narrow_bracket(f, lo, f_lo, hi, f_hi)
    mid = 0.5 * (a + b)
    while a < mid < b:
        if f(mid) < 0:
            a = mid
        else:
            b = mid
        mid = 0.5 * (a + b)
    return float(2.0 ** mid)


def _narrow_bracket(f: Callable[[float], float], a: float, fa: float, b: float, fb: float
                    ) -> tuple:
    """Narrow a < b with f(a) < 0 <= f(b) and return it; f non-decreasing.

    Illinois false position (Dowell & Jarratt 1971): the secant through the last
    point tried and the far end, whose value is halved when that end is kept
    twice running; a midpoint where the secant leaves (a, b). When the secant moves
    the last point by at most one ulp, or two evaluations do not halve the bracket
    (a step in f, or rounding noise) after a short last move, steps of one ulp,
    two, four, ... from that point close the bracket, usually to adjacent floats;
    after a long one the bisection does the rest.
    """
    side = 1  # the end the last point tried went to: 1 for b, -1 for a
    width_before, width = math.inf, b - a
    while True:
        x, fx, y, fy = (b, fb, a, fa) if side > 0 else (a, fa, b, fb)
        # no secant while a law value of 0 at b makes fb infinite: NaN takes the midpoint
        s = x - fx * ((x - y) / (fx - fy)) if fb < math.inf else math.nan
        if abs(s - x) <= math.ulp(x):
            break
        if not a < s < b:
            s = 0.5 * (a + b)
            if not a < s < b:
                return a, b
        fs = f(s)
        if fs < 0:
            a, fa = s, fs
            if side < 0:
                fb *= 0.5
            side = -1
        else:
            b, fb = s, fs
            if side > 0:
                fa *= 0.5
            side = 1
        if b - a > 0.5 * width_before:
            # steps from s cost ~2 log2(|s - x| / ulp) calls, the bisection log2((b - a) / ulp)
            if (s - x) ** 2 > (b - a) * math.ulp(s):
                return a, b
            x = s
            break
        width_before, width = width, b - a
    step = math.ulp(x)
    while True:
        p = x - side * step
        if not a < p < b:
            return a, b
        below = f(p) < 0
        if below:
            a = p
        else:
            b = p
        if below == (side > 0):  # p and x lie on either side of the root
            return a, b
        step *= 2


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool = field(init=False)  # no inequality violated
    error: float
    violated: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "feasible", not self.violated)


def raz_quantum_feasible(
    n1: int, n2: int, k1p: float, k2p: float, m: int, delta_p: float
) -> FeasibilityReport:
    """Quantum-proof feasibility of the Raz extractor parameters.

    Checks the four printed inequalities; an inequality with a logarithm of a
    non-positive argument (an input length of 0 included) counts as violated
    rather than raising. delta' outside (0, 19/32), a negative input length, an
    output length m < 1 and a non-finite entropy are domain errors. The error
    on feasible tuples is (sqrt(3)/2) * 2^{-m/4}.
    """
    n1, n2, m = checked_index(n1, "n1"), checked_index(n2, "n2"), checked_index(m, "m")
    delta_p = checked_real(delta_p, "delta'")
    if not 0 < delta_p < 19 / 32:
        raise DomainError(f"need 0 < delta' < 19/32, got {delta_p!r}")
    if m < 1:
        raise DomainError(f"output length m must be at least 1, got {m}")
    if n1 < 0 or n2 < 0:
        raise DomainError(f"input lengths must be non-negative, got n1={n1}, n2={n2}")
    k1p, k2p = checked_real(k1p, "entropy k1'"), checked_real(k2p, "entropy k2'")
    violated = []
    with _at_120_bits() as mp:
        # the log of v <= 0 is NaN, which fails every comparison: its inequality is violated
        log = lambda v: mp.log(mp.mpf(v), 2) if v > 0 else mp.nan
        if not n1 >= 6 * log(n1) + 2 * log(n2):
            violated.append("n1 >= 6 log n1 + 2 log n2")
        if not k1p >= (mp.mpf(1) / 2 + delta_p) * n1 + 3 * log(n1) + log(n2):
            violated.append("k1' >= (1/2 + delta') n1 + 3 log n1 + log n2")
        arg = (1 + 3 * mp.mpf(delta_p) / 19) * n1 - k1p
        if not k2p >= mp.mpf(163) / 32 * log(arg):
            violated.append("k2' >= (163/32) log((1 + 3 delta'/19) n1 - k1')")
        bound_m = 16 * mp.mpf(delta_p) / 19 * min(mp.mpf(n1) / 8, 4 * mp.mpf(k2p) / 163) - 1
        if not m <= bound_m:
            violated.append("m <= (16 delta'/19) min[n1/8, 4 k2'/163] - 1")
        error = min(1.0, float(mp.sqrt(3) / 2 * mp.mpf(2) ** (-mp.mpf(m) / 4)))
    return FeasibilityReport(error=1.0 if violated else error, violated=tuple(violated))


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
    n, m = checked_index(n, "n"), checked_index(m, "m")
    if not (n >= m >= 1):
        raise DomainError(f"need n >= m >= 1, got n={n}, m={m}")
    eps = checked_real(eps, "eps")
    if not 0 < eps < 1:
        raise DomainError(f"need 0 < eps < 1, got {eps}")
    if m <= math.e:
        raise DomainError(f"m={m} <= e leaves log(m - e) undefined")
    with _at_120_bits() as mp:
        t_exact = 2 * mp.log(2 * mp.mpf(n) * m * m / (mp.mpf(eps) ** 2), 2)
        t = int(mp.ceil(t_exact))
        t += t % 2
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


@dataclass(frozen=True)
class CompositionPlan:
    feasible: bool = field(init=False)  # no precondition violated
    m_inner: float
    m_total: Optional[int]
    error: Optional[float]
    required_k: tuple
    violated: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "feasible", not self.violated)


def trevisan_composition_plan(
    n: int, k1p: float, k2p: float, eps_p: float, m_pp: int, eps_pp: float
) -> CompositionPlan:
    """Plan the DEOR + Trevisan composition.

    Requires m = (k1'+k2'+1-n-8 log(sqrt(3)/(2 eps'))) / 5 >= d(m'', eps'')
    and max(k1', k2') >= m'' + 4 log(m''/eps'') + 6. Infeasible preconditions
    are reported by name, never silently clamped. Non-finite entropies are
    domain errors.
    """
    eps_p, eps_pp = checked_real(eps_p, "eps'"), checked_real(eps_pp, "eps''")
    if not (0 < eps_p < 1 and 0 < eps_pp < 1):
        raise DomainError("errors must lie in (0, 1)")
    k1p, k2p = checked_real(k1p, "entropy k1'"), checked_real(k2p, "entropy k2'")
    seed_need = trevisan_params(n, m_pp, eps_pp).d
    with _at_120_bits() as mp:
        m_inner = (
            mp.mpf(k1p) + k2p + 1 - n - 8 * mp.log(mp.sqrt(3) / (2 * mp.mpf(eps_p)), 2)
        ) / 5
        entropy_need = m_pp + 4 * mp.log(mp.mpf(m_pp) / eps_pp, 2) + 6
        violated = []
        if not m_inner >= seed_need:
            violated.append("m >= d(m'', eps'') (seed-length constraint)")
        if not max(k1p, k2p) >= entropy_need:
            violated.append("max(k1', k2') >= m'' + 4 log(m''/eps'') + 6")
        return CompositionPlan(
            m_inner=float(m_inner),
            m_total=None if violated else int(mp.floor(m_inner)) + m_pp,
            error=None if violated else min(1.0, eps_p + eps_pp),
            required_k=(k1p, k2p),
            violated=tuple(violated),
        )
