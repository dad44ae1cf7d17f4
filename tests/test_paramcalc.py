import functools
import math
import random

import pytest
from mpmath import mp

from markovext.errors import DomainError
from markovext.extractors import (
    compose,
    deor_descriptor,
    deor_error,
    parity_seeded_descriptor,
    trevisan_descriptor,
    trevisan_params,
)
from markovext.paramcalc import (
    SecurityAssessment,
    SecurityModel,
    SmoothParams,
    classical_markov_transfer,
    deor_quantum_corollary,
    quantum_markov_transfer,
    raz_quantum_feasible,
    smooth_transfer,
    solve_self_consistent_error,
    subnormalized_transfer,
    trevisan_composition_plan,
)


# ---------------------------------------------------------------------------
# Classical and quantum transfers
# ---------------------------------------------------------------------------

def test_classical_transfer_example():
    a = classical_markov_transfer((10, 12), 2 ** -6, 2, 3)
    assert a.model is SecurityModel.CLASSICAL_MARKOV
    assert a.required_k == (16.0, 18.0)
    assert a.error == pytest.approx(0.046875, rel=1e-12)


def test_classical_transfer_three_sources():
    a = classical_markov_transfer((8, 8, 8), 2 ** -8, 3, 2)
    assert a.error == pytest.approx(4 * 2 ** -8, rel=1e-12)
    assert a.required_k == (16.0, 16.0, 16.0)


def test_classical_transfer_eps_near_one():
    a = classical_markov_transfer((5, 5), 1 - 1e-9, 2, 1)
    assert a.error == 1.0
    assert a.required_k[0] == pytest.approx(5.0, abs=1e-6)


def test_quantum_transfer_example():
    a = quantum_markov_transfer((10, 10), 2 ** -10, 2, 4)
    assert a.required_k == (20.0, 20.0)
    assert a.error == pytest.approx(math.sqrt(3) / 16, rel=1e-12)


def test_quantum_transfer_m2_and_m1_specializations():
    eps = 2 ** -12
    assert quantum_markov_transfer((8, 8), eps, 2, 2).error == pytest.approx(
        math.sqrt(3 * eps), rel=1e-12
    )
    assert quantum_markov_transfer((8, 8), eps, 2, 1).error == pytest.approx(
        math.sqrt(3 * eps / 2), rel=1e-12
    )


def test_transfer_domain_errors():
    with pytest.raises(DomainError):
        classical_markov_transfer((5, 5), 0.0, 2, 1)
    with pytest.raises(DomainError):
        classical_markov_transfer((5, 5), 1.0, 2, 1)
    with pytest.raises(DomainError):
        quantum_markov_transfer((5,), 0.1, 1, 1)
    with pytest.raises(DomainError):
        quantum_markov_transfer((5, 5, 5), 0.1, 2, 1)


_CLASSICAL = SecurityModel.CLASSICAL_MARKOV


@pytest.mark.parametrize("build", [
    lambda: SecurityAssessment(_CLASSICAL, 2, (5.0, 5.0), 1.5, 1),
    lambda: SecurityAssessment(_CLASSICAL, 2, (5.0, -1.0), 0.1, 1),
    lambda: SecurityAssessment(_CLASSICAL, 1, (5.0,), 0.1, 1),
    lambda: SecurityAssessment(_CLASSICAL, 3, (5.0, 5.0), 0.1, 1),
    lambda: SecurityAssessment(SecurityModel.PLAIN, 3, (5.0, 5.0, 5.0), 0.1, 1),
    lambda: SecurityAssessment(SecurityModel.SUBNORMALIZED, 3, (5.0, 5.0, 5.0), 0.1, 1),
    lambda: smooth_transfer(quantum_markov_transfer((5, 5, 5), 2 ** -20, 3, 1),
                            SmoothParams(0, 0, 0, 0)),
    lambda: quantum_markov_transfer((5, 5), 0.1, -3, 1),
    lambda: deor_quantum_corollary(8, 6, 6, 0),
    lambda: trevisan_composition_plan(1 << 20, 700000, 700000, 1.5, 256, 2 ** -40),
], ids=["error_1.5", "negative_threshold", "l1", "two_thresholds_for_l3", "plain_l3",
        "subnormalized_l3", "smooth_l3", "quantum_l_negative", "corollary_m0",
        "composition_eps_1.5"])
def test_calculus_refuses_out_of_domain_input(build):
    with pytest.raises(DomainError):
        build()


def test_transfer_monotonicity_grid():
    rnd = random.Random(4)
    for _ in range(100):
        k = rnd.uniform(4, 30)
        eps = 2.0 ** -rnd.uniform(2, 30)
        m = rnd.randrange(1, 8)
        for fn in (classical_markov_transfer, quantum_markov_transfer):
            base = fn((k, k), eps, 2, m).error
            assert fn((k, k), min(0.999, 2 * eps), 2, m).error >= base - 1e-15
        qm = quantum_markov_transfer((k, k), eps, 2, m).error
        assert quantum_markov_transfer((k, k), eps, 2, m + 1).error >= qm - 1e-15
        # required_k never decreases under a transfer
        a = classical_markov_transfer((k, k), eps, 2, m)
        assert all(r >= k for r in a.required_k)


def test_degradation_ordering_quantum_vs_classical():
    rnd = random.Random(8)
    for _ in range(100):
        eps = 2.0 ** -rnd.uniform(2, 40)
        m = rnd.randrange(2, 10)
        if 3 * eps > 1:
            continue
        q = quantum_markov_transfer((20, 20), eps, 2, m).error
        c = classical_markov_transfer((20, 20), eps, 2, m).error
        assert q >= c - 1e-15


def test_l2_specializations_reproduce_two_source_lemmas():
    eps = 2 ** -9
    assert classical_markov_transfer((7, 7), eps, 2, 3).error == pytest.approx(
        3 * eps, rel=1e-12
    )
    m = 5
    assert quantum_markov_transfer((7, 7), eps, 2, m).error == pytest.approx(
        math.sqrt(3 * eps * 2 ** (m - 2)), rel=1e-12
    )


# ---------------------------------------------------------------------------
# Smooth and subnormalized variants
# ---------------------------------------------------------------------------

def _quantum_base(err_target: float, m: int = 2) -> SecurityAssessment:
    # pick eps so the transfer lands exactly on err_target for m=2
    eps = err_target ** 2 / 3
    return quantum_markov_transfer((10, 10), eps, 2, m)


def test_smooth_transfer_degenerate():
    base = _quantum_base(2 ** -8)
    a = smooth_transfer(base, SmoothParams(0, 0, 0, 0))
    assert a.error == pytest.approx(2 * base.error, rel=1e-12)
    assert a.model is SecurityModel.SMOOTH_MARKOV


def test_smooth_transfer_sum():
    base = _quantum_base(2 ** -8)
    a = smooth_transfer(base, SmoothParams(2 ** -12, 2 ** -12, 2 ** -10, 2 ** -10))
    expected = 12 * 2 ** -12 + 4 * 2 ** -10 + 2 * base.error
    assert a.error == pytest.approx(expected, rel=1e-12)


def test_smooth_transfer_clamps_and_guards():
    base = _quantum_base(2 ** -8)
    assert smooth_transfer(base, SmoothParams(0.2, 0.2, 0.2, 0.2)).error == 1.0
    cl = classical_markov_transfer((10, 10), 2 ** -8, 2, 2)
    with pytest.raises(DomainError):
        smooth_transfer(cl, SmoothParams(0, 0, 0, 0))
    with pytest.raises(DomainError):
        SmoothParams(-0.1, 0, 0, 0)


def test_subnormalized_transfer():
    assert subnormalized_transfer(0.0) == 0.0
    assert subnormalized_transfer(0.3) == pytest.approx(0.6, rel=1e-12)
    assert subnormalized_transfer(0.5) == 1.0
    assert subnormalized_transfer(0.9) == 1.0
    with pytest.raises(DomainError):
        subnormalized_transfer(-0.1)


# ---------------------------------------------------------------------------
# DEOR quantum corollary
# ---------------------------------------------------------------------------

def test_deor_corollary_values():
    assert deor_quantum_corollary(8, 8, 8, 1) == pytest.approx(
        math.sqrt(3) / 2 * 2 ** -0.5, rel=1e-12
    )
    # exponent-zero case: k1'+k2'+1 = n+5m
    assert deor_quantum_corollary(8, 6, 6, 1) == pytest.approx(
        math.sqrt(3) / 2, rel=1e-12
    )
    assert deor_quantum_corollary(64, 60, 60, 4) == pytest.approx(
        math.sqrt(3) / 2 * 2 ** (-37 / 8), rel=1e-12
    )


def test_self_consistent_error_is_a_fixed_point():
    rnd = random.Random(12)
    for _ in range(50):
        n = rnd.randrange(8, 64)
        m = rnd.randrange(1, 5)
        k1 = rnd.uniform(0.7 * n, n)
        k2 = rnd.uniform(0.7 * n, n)
        law = lambda a, b: deor_error(n, a, b, m)
        eps = solve_self_consistent_error(law, k1, k2)
        if eps < 1.0:
            shift = math.log2(eps)
            assert eps == pytest.approx(law(k1 + shift, k2 + shift), rel=1e-9)


def test_self_consistent_error_clamps_to_one():
    law = lambda a, b: 1.0
    assert solve_self_consistent_error(law, 10, 10) == 1.0


def _bisect_200_steps(error_law, k1p, k2p):
    """Reference: the solver as it was, with a fixed count of 200 bisection steps."""

    def f(log_eps):
        e = error_law(k1p + log_eps, k2p + log_eps)
        if e <= 0:
            return -math.inf
        return log_eps - math.log2(e)

    lo, hi = -2000.0, 0.0
    if f(hi) <= 0:
        return 1.0
    if f(lo) >= 0:
        return float(2.0 ** lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return float(2.0 ** (0.5 * (lo + hi)))


class _CountingLaw:
    def __init__(self, law):
        self.law = law
        self.calls = 0

    def __call__(self, k1, k2):
        self.calls += 1
        return self.law(k1, k2)


def _deor_grid(seed, per_cell):
    """(law, n, m, k1', k2') over n in {4, 6, 8, 16, 64}, m in {1, 2, 4}, n/2 <= k' <= n."""
    rnd = random.Random(seed)
    for n in (4, 6, 8, 16, 64):
        for m in (1, 2, 4):
            if m > n:
                continue
            law = lambda a, b, n=n, m=m: deor_error(n, a, b, m)
            for _ in range(per_cell):
                yield law, n, m, rnd.uniform(n / 2, n), rnd.uniform(n / 2, n)


def _composed_law():
    # The parity law is defined for 0 <= k <= n only; below that the error is 1.
    # It costs ~1 ms an evaluation, and both solvers probe the same points, so
    # the values are kept.
    law = compose(parity_seeded_descriptor(8, 3), deor_descriptor(8, 3)).error_law
    return functools.lru_cache(maxsize=None)(lambda a, b: law(a, b) if min(a, b) >= 0 else 1.0)


def test_solver_matches_the_200_step_bisection_bit_for_bit():
    cases = [(law, k1, k2) for law, _, _, k1, k2 in _deor_grid(7, 40)]
    rnd = random.Random(6)
    # the Trevisan step sits at its threshold k = 16
    trevisan = trevisan_descriptor(8, 3, 0.9)
    for law, count, lo, hi in ((_composed_law(), 3, 5, 8),
                               (trevisan.error_law, 40, trevisan.trevisan[0].k, 18),
                               (lambda a, b: 0.25, 40, 0, 8)):
        cases += [(law, rnd.uniform(lo, hi), rnd.uniform(lo, hi)) for _ in range(count)]
    for law, k1, k2 in cases:
        assert solve_self_consistent_error(law, k1, k2) == _bisect_200_steps(law, k1, k2)


def test_solver_law_evaluations_per_deor_solve():
    # From a width of 2000 down to adjacent floats near log2(eps) <= -1 takes at
    # most 63 halvings, plus the two end checks. Closer to eps = 1 the float
    # spacing near log2(eps) shrinks and the count grows.
    solved = 0
    for law, _, _, k1, k2 in _deor_grid(8, 40):
        counted = _CountingLaw(law)
        if solve_self_consistent_error(counted, k1, k2) <= 0.5:
            assert counted.calls <= 66
            solved += 1
    assert solved > 100


def test_solver_agrees_with_the_deor_closed_form():
    for law, n, m, k1, k2 in _deor_grid(9, 40):
        eps = solve_self_consistent_error(law, k1, k2)
        closed = min(1.0, 2.0 ** (-(k1 + k2 + 1 - n - m) / 4))
        assert abs(eps - closed) <= 1e-14 * closed


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_solver_and_deor_law_refuse_non_finite_entropies(bad):
    law = lambda a, b: deor_error(64, a, b, 4)
    with pytest.raises(DomainError):
        solve_self_consistent_error(law, bad, 2.5)
    with pytest.raises(DomainError):
        solve_self_consistent_error(law, 2.5, bad)
    with pytest.raises(DomainError):
        deor_error(64, bad, 2.5, 4)
    with pytest.raises(DomainError):
        deor_error(64, 2.5, bad, 4)


def test_deor_law_in_floats_matches_mpmath_at_53_bits():
    rnd = random.Random(10)
    for _ in range(5000):
        n = rnd.choice((2, 3, 4, 6, 8, 16, 64))
        m = rnd.randint(1, n)
        k1, k2 = rnd.uniform(-50, n), rnd.uniform(-50, n)
        with mp.workprec(53):
            ref = min(1.0, float(mp.mpf(2) ** (-(mp.mpf(k1) + k2 + 1 - n - m) / 2)))
        assert abs(deor_error(n, k1, k2, m) - ref) <= math.ulp(ref)
    assert deor_error(64, -3000, 0, 1) == 1.0


def test_corollary_agrees_with_transfer_path():
    rnd = random.Random(77)
    checked = 0
    while checked < 100:
        n = rnd.randrange(16, 128)
        m = rnd.randrange(1, 5)
        k1 = rnd.uniform(0.8 * n, n)
        k2 = rnd.uniform(0.8 * n, n)
        if k1 + k2 + 1 - n - 5 * m <= 8:  # keep both paths away from the clamp
            continue
        law = lambda a, b: deor_error(n, a, b, m)
        eps = solve_self_consistent_error(law, k1, k2)
        via_transfer = quantum_markov_transfer(
            (k1 + math.log2(eps), k2 + math.log2(eps)), eps, 2, m
        ).error
        assert via_transfer == pytest.approx(
            deor_quantum_corollary(n, k1, k2, m), rel=1e-9
        )
        checked += 1


# ---------------------------------------------------------------------------
# Raz feasibility
# ---------------------------------------------------------------------------

def test_raz_delta_domain():
    with pytest.raises(DomainError):
        raz_quantum_feasible(1 << 16, 1 << 16, 60000, 512, 10, 0.7)
    with pytest.raises(DomainError):
        raz_quantum_feasible(1 << 16, 1 << 16, 60000, 512, 10, 0.0)


def test_raz_concrete_tuple():
    n1 = n2 = 1 << 16
    k1 = math.ceil(0.75 * n1) + 3 * 16 + 16
    rep = raz_quantum_feasible(n1, n2, k1, 512, 10, 0.25)
    # decide feasibility by evaluating the four printed inequalities directly
    ok1 = n1 >= 6 * math.log2(n1) + 2 * math.log2(n2)
    ok2 = k1 >= (0.5 + 0.25) * n1 + 3 * math.log2(n1) + math.log2(n2)
    arg = (1 + 3 * 0.25 / 19) * n1 - k1
    ok3 = arg > 0 and 512 >= (163 / 32) * math.log2(arg)
    ok4 = 10 <= (16 * 0.25 / 19) * min(n1 / 8, 4 * 512 / 163) - 1
    assert rep.feasible == (ok1 and ok2 and ok3 and ok4)
    if rep.feasible:
        assert rep.error == pytest.approx(math.sqrt(3) / 2 * 2 ** -2.5, rel=1e-12)


def test_raz_first_inequality_violation_named():
    # 6 log2(16) + 2 log2(16) = 32 > 16
    rep = raz_quantum_feasible(16, 16, 15, 15, 1, 0.1)
    assert not rep.feasible
    assert any("6 log" in v for v in rep.violated)
    assert rep.error == 1.0


def test_raz_log_of_nonpositive_is_infeasible_not_error():
    # k1' > (1 + 3 delta'/19) n1 makes the third inequality's log argument negative
    rep = raz_quantum_feasible(1 << 16, 1 << 16, 1 << 17, 512, 1, 0.25)
    assert not rep.feasible


# ---------------------------------------------------------------------------
# Trevisan composition plan
# ---------------------------------------------------------------------------

def test_composition_plan_feasible_case():
    n = 1 << 20
    plan = trevisan_composition_plan(n, 700000, 700000, 2 ** -20, 256, 2 ** -40)
    assert plan.feasible
    d = trevisan_params(n, 256, 2 ** -40).d
    assert plan.m_inner >= d
    assert plan.m_total == int(plan.m_inner) + 256
    assert plan.error == pytest.approx(2 ** -20 + 2 ** -40, rel=1e-12)


def test_composition_plan_seed_constraint_named():
    plan = trevisan_composition_plan(1 << 20, 530000, 530000, 2 ** -20, 256, 2 ** -40)
    assert not plan.feasible
    assert any("seed-length" in v for v in plan.violated)
    assert plan.m_total is None and plan.error is None


def test_composition_plan_entropy_constraint_named():
    # entropies below m'' + 4 log(m''/eps'') + 6 = 214
    n = 1 << 10
    plan = trevisan_composition_plan(n, 100, 100, 0.5, 64, 2 ** -30)
    assert not plan.feasible
    assert any("4 log" in v for v in plan.violated)


def test_composition_plan_scan_for_feasible_tuple():
    found = None
    for log_n in range(10, 21):
        n = 1 << log_n
        k = 0.7 * n
        plan = trevisan_composition_plan(n, k, k, 2 ** -10, 32, 2 ** -20)
        if plan.feasible:
            found = (n, plan)
            break
    assert found is not None
    n, plan = found
    d = trevisan_params(n, 32, 2 ** -20).d
    assert plan.m_inner >= d
    assert max(0.7 * n, 0.7 * n) >= 32 + 4 * math.log2(32 / 2 ** -20) + 6
