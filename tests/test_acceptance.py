"""End-to-end acceptance gate.

One test per criterion, each with exact stated tolerances; every test ends by
printing a single pass line (a failed assertion leaves the line unprinted).
"""
import json
import math
import time

import numpy as np
import pytest

from markovext.bitfield import BitString
from markovext.cli import main as cli_main
from markovext.extractors import (
    WEAK_DESIGN_OVERLAP,
    compose,
    deor_descriptor,
    deor_error,
    parity_seeded_descriptor,
    trevisan_params,
    weak_design_build,
)
from markovext.paramcalc import (
    deor_quantum_corollary,
    quantum_markov_transfer,
    solve_self_consistent_error,
)
from markovext.qsim import (
    channel_monotonicity_check,
    markov_cmi,
    random_ccq_markov_state,
    random_channel,
    verify_quantum_bound,
)
from markovext.sources import (
    MarkovSourceTable,
    build_markov_table,
    conditional_distance_given_guess,
    distinguishing_event_statistic,
    hmin_conditional,
    random_flat_source,
    random_joint,
    statistical_distance_from_uniform,
)

PAIRS_PER_CONFIG = 500


def _flat_pair_table(n, k, rng):
    s1 = random_flat_source(n, k, rng)
    s2 = random_flat_source(n, k, rng)
    return MarkovSourceTable.from_flat_pair(s1, s2)


def test_criterion_01_deor_classical_bound():
    t0 = time.monotonic()
    worst_margin = math.inf
    for n in (4, 6, 8):
        for m in (1, 2):
            ext = deor_descriptor(n, m)
            bound = deor_error(n, n - 1, n - 1, m)
            rng = np.random.default_rng(1000 + 10 * n + m)
            for _ in range(PAIRS_PER_CONFIG):
                table = _flat_pair_table(n, n - 1, rng)
                dist = statistical_distance_from_uniform(ext, table, conditioned_on=())
                assert dist <= bound + 1e-12
                worst_margin = min(worst_margin, bound - dist)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"[PASS] criterion 1: DEOR classical bound held on 3000 flat pairs "
          f"(min slack {worst_margin:.3e}, {elapsed:.1f}s)")


def test_criterion_02_strongness_in_each_input():
    for n in (4, 6, 8):
        for m in (1, 2):
            ext = deor_descriptor(n, m)
            bound = deor_error(n, n - 1, n - 1, m)
            rng = np.random.default_rng(2000 + 10 * n + m)
            for _ in range(PAIRS_PER_CONFIG):
                table = _flat_pair_table(n, n - 1, rng)
                for cond in (("X1",), ("X2",)):
                    dist = statistical_distance_from_uniform(ext, table, conditioned_on=cond)
                    assert dist <= bound + 1e-12
    print("[PASS] criterion 2: conditional distance given X_i within the DEOR "
          "bound for both inputs on all 3000 pairs")


def test_criterion_03_classical_markov_theorem_end_to_end():
    count = 0
    for n in (4, 6):
        for z_card in (2, 4):
            rng = np.random.default_rng(300 + n + z_card)
            for i in range(50):
                m = 1 + (i % 2)
                ext = deor_descriptor(n, m)
                target = float(rng.uniform(n - 2, n))
                table = build_markov_table(n, n, z_card, target, target, seed=int(rng.integers(1 << 31)))
                k1p = hmin_conditional(table, 1)
                k2p = hmin_conditional(table, 2)
                eps = solve_self_consistent_error(ext.error_law, k1p, k2p)
                bound = min(1.0, 3.0 * eps)
                dist = statistical_distance_from_uniform(ext, table, conditioned_on=("Z",))
                assert dist <= bound + 1e-12
                count += 1
    assert count == 200
    print("[PASS] criterion 3: distance given Z within 3*eps on 200 Markov tables")


def test_criterion_04_distinguishing_event_inequality():
    rng = np.random.default_rng(44)
    for i in range(200):
        m = 1 + (i % 3)
        ext = deor_descriptor(3, m)
        joint = random_joint(3, 3, rng)
        stat = distinguishing_event_statistic(ext, joint)
        dist = conditional_distance_given_guess(ext, joint)
        assert stat <= dist + 1e-12
    print("[PASS] criterion 4: guessing-event statistic below the conditional "
          "distance on 200 joints")


def test_criterion_05_quantum_markov_bound():
    t0 = time.monotonic()
    for i in range(100):
        rng = np.random.default_rng(5000 + i)
        state = random_ccq_markov_state(3, 3, int(rng.integers(1, 4)), 4, rng)
        ext = deor_descriptor(3, 1 + (i % 3))
        chk = verify_quantum_bound(state, ext, *state.certified_k)
        assert chk.holds, f"instance {i}: {chk.distance} > {chk.bound}"
        assert abs(markov_cmi(state)) <= 1e-8
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(f"[PASS] criterion 5: quantum bound and CMI<=1e-8 on 100 states ({elapsed:.1f}s)")


def test_criterion_06_trace_distance_contractivity():
    for i in range(50):
        rng = np.random.default_rng(600 + i)
        state = random_ccq_markov_state(2, 2, int(rng.integers(1, 3)), 2, rng)
        ext = deor_descriptor(2, 1 + (i % 2))
        kraus = random_channel(state.c_dim, int(rng.integers(1, 4)), rng)
        chk = channel_monotonicity_check(state, ext, kraus)
        assert chk.after <= chk.before + 1e-9
    print("[PASS] criterion 6: channel never increased the output distance "
          "on 50 random channels")


def test_criterion_07_parameter_calculus_exactness():
    a = quantum_markov_transfer((10, 10), 2 ** -10, 2, 4)
    assert a.required_k == (20.0, 20.0)
    assert abs(a.error - math.sqrt(3) / 16) <= 1e-12 * (math.sqrt(3) / 16)

    rng = np.random.default_rng(71)
    checked = 0
    while checked < 100:
        n = int(rng.integers(16, 128))
        m = int(rng.integers(1, 5))
        k1 = float(rng.uniform(0.8 * n, n))
        k2 = float(rng.uniform(0.8 * n, n))
        if k1 + k2 + 1 - n - 5 * m <= 8:
            continue
        law = lambda a_, b_: deor_error(n, a_, b_, m)
        eps = solve_self_consistent_error(law, k1, k2)
        via = quantum_markov_transfer((k1 + math.log2(eps), k2 + math.log2(eps)), eps, 2, m).error
        direct = deor_quantum_corollary(n, k1, k2, m)
        assert abs(via - direct) <= 1e-9 * direct
        checked += 1
    print("[PASS] criterion 7: transfer formula exact and corollary/transfer "
          "paths agree on 100 tuples")


def _independent_params_oracle(n, m, eps):
    """Straight-line re-evaluation of the four closed forms at 200 bits."""
    from mpmath import mp

    with mp.workprec(200):
        t_exact = 2 * mp.log(2 * mp.mpf(n) * m * m / (mp.mpf(eps) ** 2), 2)
        t = int(mp.ceil(t_exact))
        if t % 2:
            t += 1
        num = mp.log(mp.mpf(m) - mp.e, 2) - mp.log(mp.mpf(t) - mp.e, 2)
        den = mp.log(mp.e, 2) - mp.log(mp.e - 1, 2)
        a = 1 + max(mp.mpf(0), num / den)
        k = int(mp.ceil(m + 4 * mp.log(mp.mpf(m) / eps, 2) + 6))
        d = int(mp.ceil(a * t * t / t)) * t
        return t, float(a), k, d


def test_criterion_08_trevisan_parameters_and_weak_design():
    rng = np.random.default_rng(88)
    for _ in range(50):
        n = int(rng.integers(1 << 10, 1 << 20))
        m = int(rng.integers(4, 512))
        eps = float(2.0 ** -rng.uniform(4, 60))
        p = trevisan_params(n, m, eps)
        t, a, k, d = _independent_params_oracle(n, m, eps)
        assert (p.t, p.k, p.d) == (t, k, d)
        assert p.a == pytest.approx(a, rel=1e-12)
    for m in range(1, 65):
        design = weak_design_build(m, 16)
        for i in range(m):
            assert design.overlap_statistic(i) <= WEAK_DESIGN_OVERLAP * (m - 1) + 1e-9
    print("[PASS] criterion 8: parameters match the independent oracle on 50 "
          "tuples; weak-design overlap enumerated for m<=64")


def test_criterion_09_composition_bound():
    inner = deor_descriptor(8, 3)
    outer = parity_seeded_descriptor(8, 3)
    composed = compose(outer, inner)
    k = 7
    bound = inner.error_law(k, k) + outer.error_law(k)
    rng = np.random.default_rng(99)
    for _ in range(100):
        table = _flat_pair_table(8, k, rng)
        dist = statistical_distance_from_uniform(composed, table, conditioned_on=())
        assert dist <= bound + 1e-12
    print(f"[PASS] criterion 9: composed distance within eps+eps'={bound:.6f} "
          "on 100 flat pairs")


def test_criterion_10_cli_determinism_and_equivalence(tmp_path, capsys):
    in1, in2, out = tmp_path / "a", tmp_path / "b", tmp_path / "y"
    in1.write_bytes(bytes([0xB5]))
    in2.write_bytes(bytes([0x63]))
    rc = cli_main(["extract", str(in1), str(in2), str(out),
                   "--family", "deor", "--n1", "8", "--m", "6"])
    assert rc == 0
    expected = deor_descriptor(8, 6).extract(BitString(0xB5, 8), BitString(0x63, 8))
    assert out.read_bytes() == expected.to_bytes()

    runs = []
    for _ in range(2):
        rc = cli_main(["verify", "--suite", "classical", "--seed", "17", "--budget", "5"])
        assert rc == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    assert json.loads(runs[0])["records"] == json.loads(runs[1])["records"]
    print("[PASS] criterion 10: CLI extract bit-identical to the library; "
          "seeded verify reports identical across invocations")
