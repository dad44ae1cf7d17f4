import ast
import collections
import dataclasses
import functools
import math
import os
import random
import statistics
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from markovext.errors import DomainError, InvalidArgumentError
from markovext.qsim import BoundCheck, MonotonicityCheck
from markovext.extractors import (
    compose,
    deor_descriptor,
    deor_error,
    inner_product_descriptor,
    parity_seeded_descriptor,
    trevisan_descriptor,
    trevisan_params,
)
from markovext.paramcalc import (
    CompositionPlan,
    FeasibilityReport,
    SecurityAssessment,
    SecurityModel,
    SmoothParams,
    assessment,
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
    lambda: SecurityAssessment(_CLASSICAL, (5.0, 5.0), 1.5, 1),
    lambda: SecurityAssessment(_CLASSICAL, (5.0, 5.0), 0.0, 1),
    lambda: SecurityAssessment(_CLASSICAL, (5.0, 5.0), -0.0, 1),
    lambda: SecurityAssessment(_CLASSICAL, (5.0, -1.0), 0.1, 1),
    lambda: SecurityAssessment(_CLASSICAL, (5.0,), 0.1, 1),
    lambda: SecurityAssessment(SecurityModel.PLAIN, (5.0, 5.0, 5.0), 0.1, 1),
    lambda: SecurityAssessment(SecurityModel.SUBNORMALIZED, (5.0, 5.0, 5.0), 0.1, 1),
    lambda: smooth_transfer(quantum_markov_transfer((5, 5, 5), 2 ** -20, 3, 1),
                            SmoothParams(0, 0, 0, 0)),
    lambda: quantum_markov_transfer((5, 5), 0.1, -3, 1),
    lambda: deor_quantum_corollary(8, 6, 6, 0),
    lambda: trevisan_composition_plan(1 << 20, 700000, 700000, 1.5, 256, 2 ** -40),
    lambda: SecurityAssessment("Plain", (1.0, 1.0), 0.5, 1),
    lambda: SecurityAssessment(None, (1.0, 1.0), 0.5, 1),
    lambda: assessment(SecurityModel.SMOOTH_MARKOV, deor_descriptor(64, 4), (60, 60),
                       smooth=(0, 0, 0, 0)),
    lambda: smooth_transfer(quantum_markov_transfer((5, 5), 0.1, 2, 1), None),
    lambda: smooth_transfer("x", SmoothParams(0, 0, 0, 0)),
    lambda: smooth_transfer(None, SmoothParams(0, 0, 0, 0)),
], ids=["error_1.5", "error_0", "error_negative_0", "negative_threshold", "l1", "plain_l3",
        "subnormalized_l3", "smooth_l3", "quantum_l_negative", "corollary_m0",
        "composition_eps_1.5", "model_string", "model_none", "assessment_smooth_tuple",
        "smooth_none", "smooth_base_string", "smooth_base_none"])
def test_calculus_refuses_out_of_domain_input(build):
    with pytest.raises(DomainError):
        build()


_INF, _NAN, _HUGE = math.inf, math.nan, 10 ** 400  # _HUGE: an int beyond the float range


@pytest.mark.parametrize("build,error", [
    (lambda: deor_quantum_corollary(8, _INF, 8, 2), DomainError),
    (lambda: deor_quantum_corollary(8, _NAN, 8, 2), DomainError),
    (lambda: deor_quantum_corollary(-3, 4, 4, 2), DomainError),
    (lambda: deor_quantum_corollary(4, 4, 4, 5), DomainError),
    (lambda: deor_quantum_corollary(8, 4, 4, 1.5), InvalidArgumentError),
    (lambda: raz_quantum_feasible(-1, 64, 40, 40, 1, 0.1), DomainError),
    (lambda: raz_quantum_feasible(64, 64, 40, _INF, 1, 0.1), DomainError),
    (lambda: raz_quantum_feasible(64, 64, 40, 40, 1.5, 0.1), InvalidArgumentError),
    (lambda: trevisan_composition_plan(64, _INF, _INF, 0.1, 4, 0.1), DomainError),
    (lambda: trevisan_composition_plan(1 << 20, _NAN, 700000, 2 ** -20, 256, 2 ** -40),
     DomainError),
    (lambda: subnormalized_transfer(_NAN), DomainError),
    (lambda: subnormalized_transfer(_INF), DomainError),
    (lambda: classical_markov_transfer((_INF, 5), 0.1, 2, 1), DomainError),
    (lambda: quantum_markov_transfer((5, _NAN), 0.1, 2, 1), DomainError),
    (lambda: classical_markov_transfer((5, 5), 0.1, 2.0, 1.5), InvalidArgumentError),
    (lambda: classical_markov_transfer((5, 5), 0.1, 2, 1.5), InvalidArgumentError),
    (lambda: quantum_markov_transfer((5, 5), 0.1, 2, True), InvalidArgumentError),
    (lambda: quantum_markov_transfer((5, 5), 0.1, "2", 2), InvalidArgumentError),
    (lambda: quantum_markov_transfer((5, 5), 0.1, 2, 0), DomainError),
    (lambda: SecurityAssessment(SecurityModel.PLAIN, (1.0, 1.0), 0.5, -3), DomainError),
    *[(lambda k=k: SecurityAssessment(SecurityModel.PLAIN, k, 0.5, 1), DomainError)
      for k in ((1.0, _NAN), (_INF, 1.0), ("1", 1.0))],
    (lambda: SecurityAssessment(SecurityModel.PLAIN, (1.0, 1.0), "0.5", 1), DomainError),
    (lambda: SecurityAssessment(SecurityModel.PLAIN, (1.0, 1.0), True, 1), DomainError),
    *[(lambda s=s: SecurityAssessment(SecurityModel.PLAIN, (1.0, 1.0), 0.5, 1, s),
       DomainError) for s in ({3}, {0}, {True}, {1, "x"}, {1.0}, [1, 2], None)],
    (lambda: SmoothParams("a", 0, 0, 0), DomainError),
    (lambda: SmoothParams(0, None, 0, 0), DomainError),
    (lambda: SmoothParams(True, 0, 0, 0), DomainError),
    (lambda: deor_quantum_corollary(8, "4", 4, 2), DomainError),
    (lambda: deor_quantum_corollary(8, 4, True, 2), DomainError),
    (lambda: classical_markov_transfer(("5", 5), 0.1, 2, 1), DomainError),
    (lambda: classical_markov_transfer((5, 5), "0.1", 2, 1), DomainError),
    (lambda: subnormalized_transfer("0.1"), DomainError),
    (lambda: subnormalized_transfer(None), DomainError),
    (lambda: raz_quantum_feasible(64, 64, 40, 40, 1, "0.1"), DomainError),
    (lambda: raz_quantum_feasible(64, 64, "40", 40, 1, 0.1), DomainError),
    (lambda: trevisan_composition_plan(64, 40, 40, "0.1", 4, 0.1), DomainError),
    (lambda: trevisan_composition_plan(64, 40, 40, 0.1, 4, "0.1"), DomainError),
    (lambda: solve_self_consistent_error(lambda a, b: 0.5, "8", 8), DomainError),
    (lambda: deor_error(8, "1", 2, 1), DomainError),
    (lambda: deor_error(8, 1, None, 1), DomainError),
    (lambda: deor_descriptor(8, 2).error_law("3", 4), DomainError),
    (lambda: trevisan_descriptor(8, 3, 0.9).error_law("3"), DomainError),
    (lambda: parity_seeded_descriptor(8, 3).error_law(None), DomainError),
    (lambda: deor_error(8.5, 6, 6, 2), InvalidArgumentError),
    (lambda: deor_error(8, 1, 2, "1"), InvalidArgumentError),
    (lambda: deor_error(8, 6, 6, True), InvalidArgumentError),
    (lambda: deor_error(8, 6, 6, 99), DomainError),
    (lambda: deor_error(8, 6, 6, 0), DomainError),
    (lambda: deor_quantum_corollary(8, _HUGE, 8, 2), DomainError),
    (lambda: quantum_markov_transfer((5, _HUGE), 0.1, 2, 1), DomainError),
    (lambda: subnormalized_transfer(_HUGE), DomainError),
    (lambda: raz_quantum_feasible(64, 64, 40, _HUGE, 1, 0.1), DomainError),
    (lambda: trevisan_composition_plan(64, _HUGE, 40, 0.1, 4, 0.1), DomainError),
    (lambda: SecurityAssessment(SecurityModel.PLAIN, (1.0, _HUGE), 0.5, 1), DomainError),
    (lambda: parity_seeded_descriptor(8, 3).error_law(_HUGE), DomainError),
    (lambda: parity_seeded_descriptor(8, 3).error_law(1e300), DomainError),
    (lambda: parity_seeded_descriptor(1100, 3).error_law(1101.5), DomainError),
    (lambda: trevisan_descriptor(8, 3, 0.9).error_law(_HUGE), DomainError),
], ids=["corollary_k_inf", "corollary_k_nan", "corollary_n_negative", "corollary_m_above_n",
        "corollary_m_1.5", "raz_n1_negative", "raz_k_inf", "raz_m_1.5", "composition_k_inf",
        "composition_k_nan", "subnormalized_nan", "subnormalized_inf", "classical_k_inf",
        "quantum_k_nan", "classical_float_l_and_m", "classical_float_m", "quantum_bool_m",
        "quantum_string_l", "quantum_m_0", "assessment_m_negative",
        "assessment_nan_threshold", "assessment_inf_threshold", "assessment_string_threshold",
        "assessment_string_error", "assessment_bool_error", "assessment_strong_in_3",
        "assessment_strong_in_0", "assessment_strong_in_bool", "assessment_strong_in_string",
        "assessment_strong_in_float", "assessment_strong_in_list", "assessment_strong_in_none",
        "smooth_string", "smooth_none", "smooth_bool", "corollary_string_k",
        "corollary_bool_k", "classical_string_k", "classical_string_eps",
        "subnormalized_string", "subnormalized_none", "raz_string_delta", "raz_string_k",
        "composition_string_eps", "composition_string_outer_eps", "solver_string_k",
        "deor_law_string_k1", "deor_law_none_k2", "deor_descriptor_law_string_k",
        "trevisan_law_string_k", "parity_law_none_k", "deor_law_n_8.5", "deor_law_string_m",
        "deor_law_bool_m", "deor_law_m_above_n", "deor_law_m_0", "corollary_huge_k",
        "quantum_huge_k", "subnormalized_huge", "raz_huge_k", "composition_huge_k",
        "assessment_huge_threshold", "parity_law_huge_k", "parity_law_k_1e300",
        "parity_law_k_past_n_at_n_1100",
        "trevisan_law_huge_k"])
def test_calculus_refuses_non_finite_and_non_integer_input(build, error):
    with pytest.raises(error):
        build()


def test_deor_law_takes_numpy_integer_lengths():
    assert deor_error(np.int64(8), 6, 6, np.int64(2)) == deor_error(8, 6, 6, 2)


def test_assessment_holds_strong_in_as_a_frozenset():
    a = SecurityAssessment(SecurityModel.PLAIN, (1.0, 1.0), 0.5, 1, {2, 1})
    assert a.strong_in == frozenset({1, 2}) and isinstance(a.strong_in, frozenset)
    assert a.to_dict()["strong_in"] == [1, 2]
    hash(a)


def test_assessment_holds_l_and_m_as_ints():
    a = SecurityAssessment(SecurityModel.PLAIN, (1.0, 1.0), 0.5, np.int64(3))
    assert type(a.l) is int and type(a.m) is int
    assert a.to_dict()["m"] == 3


_DERIVED = [  # (type, derived field, the other arguments)
    (SecurityAssessment, "l", {"model": SecurityModel.PLAIN, "required_k": (1.0, 1.0),
                               "error": 0.5, "m": 1}),
    (FeasibilityReport, "feasible", {"error": 0.5}),
    (CompositionPlan, "feasible", {"m_inner": 1.0, "m_total": None, "error": None,
                                   "required_k": (1.0, 1.0)}),
    (BoundCheck, "holds", {"distance": 0.0, "bound": 1.0}),
    (MonotonicityCheck, "holds", {"before": 0.0, "after": 0.0}),
]


@pytest.mark.parametrize("cls,name,others", _DERIVED, ids=[c.__name__ for c, _, _ in _DERIVED])
def test_a_result_derives_its_summary_field(cls, name, others):
    assert not {f.name: f for f in dataclasses.fields(cls)}[name].init
    built = cls(**others)
    with pytest.raises(TypeError):
        cls(**others, **{name: getattr(built, name)})


def test_a_derived_field_cannot_contradict_the_others():
    assert BoundCheck(1.0, 0.0).holds is False and BoundCheck(1e-10, 0.0).holds is True
    assert MonotonicityCheck(0.0, 1.0).holds is False
    assert FeasibilityReport(0.5, ("x",)).feasible is False
    assert FeasibilityReport(0.5).feasible is True
    assert CompositionPlan(1.0, None, None, (1.0, 1.0), ("x",)).feasible is False
    assert SecurityAssessment(SecurityModel.PLAIN, (1.0, 2.0), 0.5, 1).l == 2
    assert classical_markov_transfer((8, 8, 8), 2 ** -8, 3, 2).l == 3


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


def test_deor_corollary_reports_ulp_0_where_its_value_underflows():
    # the 120-bit value is ~2^-2047, positive, so ulp(0) bounds it; 0.0 would be no error
    assert deor_quantum_corollary(16384, 16384, 16384, 1) == math.ulp(0.0)


def test_deor_corollary_above_the_double_range_floor_is_unchanged():
    assert deor_quantum_corollary(64, 60, 60, 4) == 0.03509674996750851


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


def test_solver_never_asks_the_law_for_a_negative_entropy():
    # the parity law refuses a negative entropy; a threshold below 0 admits what 0 admits
    law = compose(parity_seeded_descriptor(8, 3), deor_descriptor(8, 3)).error_law
    asked = []

    def probe(a, b):
        asked.append(min(a, b))
        return law(a, b)

    for k, expected in ((8, 0.467), (7, 0.640)):
        eps = solve_self_consistent_error(probe, k, k)
        assert eps == pytest.approx(expected, abs=1e-3)
        assert eps == pytest.approx(law(k + math.log2(eps), k + math.log2(eps)), rel=1e-9)
    assert min(asked) == 0.0


_MARKOV = (SecurityModel.CLASSICAL_MARKOV, SecurityModel.QUANTUM_MARKOV)


@pytest.mark.parametrize("model,transfer", zip(_MARKOV, (classical_markov_transfer,
                                                        quantum_markov_transfer)))
def test_assessment_is_the_transfer_at_the_solved_error(model, transfer):
    solved = clamped = 0
    for law, n, m, k1, k2 in _deor_grid(24, 8):
        ext = deor_descriptor(n, m)
        a = assessment(model, ext, (k1, k2))
        assert (a.model, a.l, a.required_k, a.m) == (model, 2, (k1, k2), m)
        assert a.strong_in == ext.strong_in
        eps = solve_self_consistent_error(law, k1, k2)
        if eps < 1.0:
            base = (k1 + math.log2(eps), k2 + math.log2(eps))
            assert a.error == transfer(base, eps, 2, m).error
            solved += 1
        else:
            assert a.error == 1.0
            clamped += 1
        if model is SecurityModel.CLASSICAL_MARKOV:  # the classical suite's old bound
            assert a.error == min(1.0, 3.0 * eps)
    assert solved and clamped


_SMOOTH = SmoothParams(2 ** -12, 0, 2 ** -10, 0)


def test_assessment_of_each_model():
    ext, k = deor_descriptor(64, 4), (56.5, 60.25)
    strong = ext.strong_in
    plain = assessment(SecurityModel.PLAIN, ext, k)
    assert plain == SecurityAssessment(SecurityModel.PLAIN, k, deor_error(64, *k, 4), 4, strong)
    sub = assessment(SecurityModel.SUBNORMALIZED, ext, k)
    assert sub.error == subnormalized_transfer(deor_error(64, k[0] + 1, k[1] + 1, 4))
    assert sub.required_k == k and sub.model is SecurityModel.SUBNORMALIZED
    for model, transfer in zip(_MARKOV, (classical_markov_transfer, quantum_markov_transfer)):
        # a given base error: k are the base thresholds, as the transfer reads them
        assert assessment(model, ext, k + (50.0,), 2 ** -30) == transfer(
            k + (50.0,), 2 ** -30, 3, 4, strong)
        for eps in (1.0, 2.0):
            assert assessment(model, ext, k, eps) == SecurityAssessment(model, k, 1.0, 4, strong)
    for eps in (None, 2 ** -30, 2.0):
        assert assessment(SecurityModel.SMOOTH_MARKOV, ext, k, eps, _SMOOTH) == smooth_transfer(
            assessment(SecurityModel.QUANTUM_MARKOV, ext, k, eps), _SMOOTH)


def test_assessment_floors_an_underflowing_law_at_ulp_0():
    ext = inner_product_descriptor(4096)
    assert ext.error_law(3200, 3200) == 0.0
    for model in (SecurityModel.PLAIN, SecurityModel.SUBNORMALIZED):
        assert assessment(model, ext, (3200, 3200)).error == math.ulp(0.0)


@pytest.mark.parametrize("model,eps,smooth", [
    (SecurityModel.PLAIN, 1e-6, None),
    (SecurityModel.SUBNORMALIZED, 2.0, None),
    (SecurityModel.PLAIN, None, _SMOOTH),
    (SecurityModel.SUBNORMALIZED, None, _SMOOTH),
    (SecurityModel.CLASSICAL_MARKOV, None, _SMOOTH),
    (SecurityModel.QUANTUM_MARKOV, 1e-6, _SMOOTH),
    (SecurityModel.SMOOTH_MARKOV, None, None),
    (SecurityModel.SMOOTH_MARKOV, 1e-6, None),
], ids=["plain_eps", "subnormalized_eps", "plain_smooth", "subnormalized_smooth",
        "classical_smooth", "quantum_smooth", "smooth_none", "smooth_none_eps"])
def test_assessment_refuses_an_input_its_model_does_not_read(model, eps, smooth):
    with pytest.raises(DomainError):
        assessment(model, deor_descriptor(8, 2), (6, 6), eps, smooth)


@pytest.mark.parametrize("model", ["QuantumMarkov", "Plain", None])
def test_assessment_refuses_a_model_that_is_not_a_member(model):
    with pytest.raises(DomainError):
        assessment(model, deor_descriptor(8, 2), (6, 6))


def test_assessment_refuses_a_negative_entropy(monkeypatch):
    for model in SecurityModel:
        smooth = _SMOOTH if model is SecurityModel.SMOOTH_MARKOV else None
        with pytest.raises(DomainError):
            assessment(model, deor_descriptor(8, 2), (-1, 6), smooth=smooth)
    # at a given eps < 1 the transfer refuses a negative base threshold before mpmath loads
    monkeypatch.setitem(sys.modules, "mpmath", None)
    for model in _MARKOV + (SecurityModel.SMOOTH_MARKOV,):
        smooth = _SMOOTH if model is SecurityModel.SMOOTH_MARKOV else None
        for k in ((6, -1), (-1, 6), (6, 6, -0.5)):
            with pytest.raises(DomainError):
                assessment(model, deor_descriptor(8, 2), k, 1e-6, smooth)
    for transfer in (classical_markov_transfer, quantum_markov_transfer):
        with pytest.raises(DomainError):
            transfer((6, -1), 1e-6, 2, 2)


@pytest.mark.parametrize("k", [(6,), (), 6, None, (6, math.nan), (6, "6"), (True, 6)],
                         ids=["one", "none_given", "scalar", "null", "nan", "str", "bool"])
def test_assessment_refuses_entropies_that_are_not_one_real_per_source(k):
    for model in SecurityModel:
        for eps in ((None, 2.0, 1e-6) if model in _MARKOV + (SecurityModel.SMOOTH_MARKOV,)
                    else (None,)):
            smooth = _SMOOTH if model is SecurityModel.SMOOTH_MARKOV else None
            with pytest.raises(DomainError):
                assessment(model, deor_descriptor(8, 2), k, eps, smooth)


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "markovext")
_SOLVER_TRANSFERS_AND_ULP = ("solve_self_consistent_error", "classical_markov_transfer",
                             "quantum_markov_transfer", "smooth_transfer",
                             "subnormalized_transfer", "ulp")


def _references(path):
    """(line, name) of each reference to the solver, a transfer or `ulp`, imports included;
    the package's re-exports in __init__.py do not count."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = getattr(node, "id", None) or node.attr
            if name in _SOLVER_TRANSFERS_AND_ULP:
                found.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom) and not path.endswith("__init__.py"):
            found.extend((node.lineno, a.name) for a in node.names
                         if a.name in _SOLVER_TRANSFERS_AND_ULP + ("*",))
    return found


def test_only_paramcalc_names_the_solver_a_transfer_or_ulp():
    # paramcalc.assessment owns what each model guarantees, its floors included: every
    # other module asks it, and none solves, transfers or floors by hand
    found = {name: _references(os.path.join(SRC, name)) for name in sorted(os.listdir(SRC))
             if name.endswith(".py") and name != "paramcalc.py"}
    assert {name: refs for name, refs in found.items() if refs} == {}


def _mpmath_uses(path):
    """(line, what) of each import of mpmath and each reference to `workprec`."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, a.name) for a in node.names
                         if a.name.split(".")[0] == "mpmath")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mpmath":
            found.append((node.lineno, node.module))
        elif getattr(node, "id", None) == "workprec" or getattr(node, "attr", None) == "workprec":
            found.append((node.lineno, "workprec"))
    return found


def test_only_paramcalc_imports_mpmath_and_it_sets_the_precision_once():
    # one context in paramcalc imports mpmath and sets the 120-bit working precision
    found = {name: _mpmath_uses(os.path.join(SRC, name)) for name in sorted(os.listdir(SRC))
             if name.endswith(".py")}
    assert [what for _, what in found.pop("paramcalc.py")] == ["mpmath", "workprec"]
    assert {name: uses for name, uses in found.items() if uses} == {}


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
                               (trevisan.error_law, 40, trevisan_params(8, 3, 0.9).k, 18),
                               (lambda a, b: 0.25, 40, 0, 8)):
        cases += [(law, rnd.uniform(lo, hi), rnd.uniform(lo, hi)) for _ in range(count)]
    for law, k1, k2 in cases:
        assert solve_self_consistent_error(law, k1, k2) == _bisect_200_steps(law, k1, k2)


def test_solver_law_evaluations_per_deor_solve():
    # The bisection alone took up to 66 (63 halvings from a width of 2000 down to
    # adjacent floats near log2(eps) <= -1, plus the two end checks). The secant
    # lands on the root of the linear DEOR law in two or three steps; where rounding
    # of k' + log2(eps) makes f a staircase, steps of 1, 2, 4, ... ulps close the
    # bracket. The most on this grid is 10.
    calls = []
    for law, _, _, k1, k2 in _deor_grid(8, 40):
        counted = _CountingLaw(law)
        if solve_self_consistent_error(counted, k1, k2) <= 0.5:
            calls.append(counted.calls)
    assert len(calls) > 100
    assert max(calls) <= 10
    assert sum(calls) / len(calls) <= 8


def test_solver_closes_a_staircase_bracket_in_few_law_evaluations():
    # DEOR (16, 4): the first secant lands a few ulps from the root and then creeps by
    # 2 ulps a step; handing the 0.33-wide bracket to the bisection there took 42 calls
    k1, k2, law = 9.323171320077524, 10.979014386585883, lambda a, b: deor_error(16, a, b, 4)
    counted = _CountingLaw(law)
    assert solve_self_consistent_error(counted, k1, k2) == _bisect_to_adjacent_floats(law, k1, k2)
    assert counted.calls <= 8


def test_solver_law_evaluations_over_random_deor_solves():
    rnd, calls = random.Random(7), []
    for _ in range(2000):
        n = rnd.choice((4, 6, 8, 16, 64))
        m = rnd.randint(1, min(n, 4))
        law = _CountingLaw(lambda a, b, n=n, m=m: deor_error(n, a, b, m))
        solve_self_consistent_error(law, rnd.uniform(n / 2, n), rnd.uniform(n / 2, n))
        calls.append(law.calls)
    assert max(calls) < 20  # 42 before staircase brackets were closed by ulp steps
    assert statistics.mean(calls) <= 5.8  # 6.13 before


def _bisect_to_adjacent_floats(error_law, k1p, k2p):
    """Reference: the solver as it was before it narrowed a bracket first, a bisection
    over [-2000, 0] that stops when lo and hi are adjacent floats."""

    def f(log_eps):
        k1, k2 = k1p + log_eps, k2p + log_eps
        e = error_law(k1 if k1 > 0.0 else 0.0, k2 if k2 > 0.0 else 0.0)
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


_TREVISAN = trevisan_descriptor(8, 3, 0.9)
_TREVISAN_K = trevisan_params(8, 3, 0.9).k


def _law_cases(seed):
    """(family, law, k1', k2') for every law family, k' kept where no law underflows to 0."""
    rnd = random.Random(seed)
    for n in (2, 3, 5, 8, 13, 32, 64):
        for m in sorted({1, 2, n // 2 or 1, n}):
            law = lambda a, b, n=n, m=m: deor_error(n, a, b, m)
            yield from (("deor", law, rnd.uniform(0, n), rnd.uniform(0, n)) for _ in range(12))
    for n in (8, 256, 2048):
        law = inner_product_descriptor(n).error_law
        yield from (("inner_product", law, rnd.uniform(0, n), rnd.uniform(0, n))
                    for _ in range(20))
    law = _composed_law()
    yield from (("composed", law, rnd.uniform(5, 8), rnd.uniform(5, 8)) for _ in range(20))
    # a step: the Trevisan law is 1 below k and eps = 0.9 from k on
    yield from (("trevisan", _TREVISAN.error_law, rnd.uniform(_TREVISAN_K, _TREVISAN_K + 0.3),
                 rnd.uniform(0, 18)) for _ in range(40))
    for c in (1e-300, 2.0 ** -40, 0.25, 0.999):
        yield from (("constant", lambda a, b, c=c: c, rnd.uniform(0, 64), rnd.uniform(0, 64))
                    for _ in range(10))


def test_solver_never_takes_more_law_evaluations_than_the_bisection_alone():
    solved = collections.defaultdict(list)
    for family, law, k1, k2 in _law_cases(11):
        new, old = _CountingLaw(law), _CountingLaw(law)
        eps = solve_self_consistent_error(new, k1, k2)
        assert eps == _bisect_to_adjacent_floats(old, k1, k2)
        assert new.calls <= old.calls, (family, k1, k2)
        if eps < 1.0:
            solved[family].append(new.calls)
    assert set(solved) == {"deor", "inner_product", "composed", "trevisan", "constant"}
    assert statistics.median(solved["deor"]) <= 8
    assert statistics.median(solved["constant"]) <= 4


_COMPOSED = _composed_law()


@st.composite
def _law_and_entropies(draw):
    """(family, law, k1', k2'), the entropies mostly where eps < 1 and no law underflows to 0."""
    family = draw(st.sampled_from(["deor", "inner_product", "composed", "trevisan", "constant"]))
    if family == "deor":
        n = draw(st.integers(2, 64))
        m = draw(st.integers(1, max(1, n // 4)))
        law, lo, hi = (lambda a, b: deor_error(n, a, b, m)), n / 2, n
    elif family == "inner_product":
        n = draw(st.sampled_from([2, 8, 64, 512, 2048]))  # at 2048 the law stays above 0
        law, lo, hi = inner_product_descriptor(n).error_law, n / 2, n
    elif family == "composed":
        law, lo, hi = _COMPOSED, 6, 8
    elif family == "trevisan":  # k2' is not read
        law, lo, hi = _TREVISAN.error_law, _TREVISAN_K - 1, _TREVISAN_K + 2
    else:
        c = draw(st.floats(2.0 ** -1000, 1.0))
        law, lo, hi = (lambda a, b: c), 0, 64
    entropy = st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    return family, law, draw(entropy), draw(entropy)


@settings(max_examples=150, deadline=None)
@given(_law_and_entropies())
def test_solver_matches_the_200_step_bisection_on_any_law(case):
    _, law, k1, k2 = case
    # the reference calls the law at k' + log2(eps) unclamped; the solver clamps it at 0
    clamped = lambda a, b: law(max(a, 0.0), max(b, 0.0))
    assert solve_self_consistent_error(law, k1, k2) == _bisect_200_steps(clamped, k1, k2)


def test_solver_reads_a_law_value_of_0_as_an_error_below_every_eps():
    # at n = 4096 the inner-product law at k1 = k2 = 3200 underflows to 0; more entropy
    # must not give a worse error
    law = inner_product_descriptor(4096).error_law
    low, high = (solve_self_consistent_error(law, k, k) for k in (3000, 3200))
    assert low == pytest.approx(2.0 ** -476, rel=1e-12)
    assert high == 2.0 ** -576  # the fixed point of eps = 2^-(2 (3200 + log2 eps) - 4096) / 2
    assert solve_self_consistent_error(lambda a, b: 0.0, 5, 5) == 0.0


@pytest.mark.parametrize("value", [math.nan, -0.25, -math.inf, math.inf, "0.1", None, True],
                         ids=["nan", "negative", "-inf", "inf", "string", "none", "bool"])
def test_solver_refuses_a_law_value_that_is_not_a_non_negative_real(value):
    with pytest.raises(DomainError, match="error law value"):
        solve_self_consistent_error(lambda a, b: value, 5, 5)


def test_classical_suite_solves_take_few_law_evaluations(monkeypatch):
    # a timing-free guard for the solver's gain: a plain bisection takes ~64 per solve here
    from markovext import extractors, paramcalc, suites

    counts, inside = {"solves": 0, "evals": 0}, [False]
    deor, solve = extractors.deor_error, paramcalc.solve_self_consistent_error

    def counting_deor(*args):
        counts["evals"] += inside[0]
        return deor(*args)

    def counting_solve(*args):
        counts["solves"] += 1
        inside[0] = True
        try:
            return solve(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(extractors, "deor_error", counting_deor)
    monkeypatch.setattr(paramcalc, "solve_self_consistent_error", counting_solve)
    assert len(list(suites.classical(range(20)))) == 20
    assert counts["solves"] == 20
    assert counts["evals"] / counts["solves"] <= 12


def test_solver_agrees_with_the_deor_closed_form():
    for law, n, m, k1, k2 in _deor_grid(9, 40):
        eps = solve_self_consistent_error(law, k1, k2)
        closed = min(1.0, 2.0 ** (-(k1 + k2 + 1 - n - m) / 4))
        assert abs(eps - closed) <= 1e-14 * closed


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, _HUGE, -_HUGE, True,
                                 Decimal("7")],
                         ids=["nan", "inf", "-inf", "huge", "-huge", "bool", "decimal"])
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


@pytest.mark.parametrize("x", [Fraction(7, 3), Fraction(1, 10), np.float32(1.5)],
                         ids=["fraction_7_3", "fraction_1_10", "float32"])
@pytest.mark.parametrize("call", [
    lambda x: classical_markov_transfer((x, 5), 0.1, 2, 1),
    lambda x: quantum_markov_transfer((5, x), 0.1, 2, 1),
    lambda x: deor_quantum_corollary(8, x, 6, 2),
    lambda x: raz_quantum_feasible(64, 64, 40, x, 1, 0.1),
    lambda x: trevisan_composition_plan(64, x, 40, 0.1, 4, 0.1),
], ids=["classical", "quantum", "corollary", "raz", "composition"])
def test_calculus_takes_any_real_entropy_as_its_float(call, x):
    assert call(x) == call(float(x))


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


@pytest.mark.parametrize("n1,n2,violated", [(4096, 0, 2), (0, 4096, 4)], ids=["n2_0", "n1_0"])
def test_raz_log_of_an_input_length_of_0_violates_its_inequalities(n1, n2, violated):
    # an input length of 0 puts log 0 in the first two inequalities; at n1 = n2 = 4096 only
    # the second is violated
    assert raz_quantum_feasible(4096, 4096, 4000, 4000, 1, 0.5).violated == (
        "k1' >= (1/2 + delta') n1 + 3 log n1 + log n2",)
    rep = raz_quantum_feasible(n1, n2, 4000, 4000, 1, 0.5)
    assert not rep.feasible and rep.error == 1.0
    assert rep.violated[:2] == ("n1 >= 6 log n1 + 2 log n2",
                                "k1' >= (1/2 + delta') n1 + 3 log n1 + log n2")
    assert len(rep.violated) == violated


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
