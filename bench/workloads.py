"""The benchmark's workloads: op schedules, op bodies and output checks.

A workload is a fixed cycle of op slots, shuffled once by the seed and then
repeated. `prepare(slot, rng, tag)` draws one op's inputs outside the timed
window, writes any input files at paths starting with `tag`, and returns an
`Op`; only `Op.run` is timed. `Op.check` gets
what `run` returned and gives None when the output is right, otherwise the
reason it is wrong. The program is driven only through its public functions
and `cli.main`, always looked up at call time so that tracing sees the calls.
"""
from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from markovext import cli, extractors, paramcalc, qsim, sources
from markovext.bitfield import BitString

CLASSICAL_TOL = 1e-12  # criteria 1-3 and 9
QUANTUM_TOL = 1e-9     # criteria 5 and 6, and the dense-versus-block cross-check
CMI_TOL = 1e-8
PLAN_REL_TOL = 1e-9    # criterion 7


@dataclass
class Op:
    slot: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    digest: Callable[[object], bytes] = lambda out: repr(out).encode()


def check_bounds(pairs) -> Optional[str]:
    """pairs of (value, bound, tol); an inequality fails when value > bound + tol."""
    for value, bound, tol in pairs:
        if not value <= bound + tol:
            return f"{value!r} exceeds bound {bound!r} + {tol}"
    return None


def _bounded_op(slot, run):
    return Op(slot, run, check_bounds)


# ---------------------------------------------------------------------------
# classical: exact enumeration (criteria 1-3 and 9)
# ---------------------------------------------------------------------------

# Each op builds its own descriptor, so it builds its own output table. A
# slot's name carries every parameter that sets an op's cost (n, m, |Z|);
# only the seeds are drawn per op, so each parameter set keeps its share of
# the cycle. The wide8 ops are 1 in 32, not 1 in 16: p90 must not sit next to
# the boundary of their mode.
CLASSICAL_CYCLE = {
    **{f"strong_n4_m{m}": 5 for m in (1, 2)},
    **{f"markov_n4_m{m}_z{z}": 3 for m in (1, 2) for z in (2, 4)},
    **{f"strong_n6_m{m}": 10 for m in (1, 2)},
    **{f"markov_n6_m{m}_z{z}": 5 for m in (1, 2) for z in (2, 4)},
    "wide8_deor": 1, "wide8_composed": 1,
}


def slot_params(slot) -> dict:
    """The integer parameters in a slot name: `markov_n6_m2_z4` -> {n: 6, m: 2, z: 4}."""
    return {part[0]: int(part[1:]) for part in slot.split("_")[1:] if part[1:].isdigit()}


def _classical(slot, rng, tag):
    kind = slot.split("_", 1)[0]
    params = slot_params(slot)
    seed = int(rng.integers(1 << 31))
    if kind == "markov":
        n, m, z_card = params["n"], params["m"], params["z"]
        target = float(rng.uniform(n - 2, n))

        def run():
            ext = extractors.deor_descriptor(n, m)
            table = sources.build_markov_table(n, n, z_card, target, target, seed)
            k1p = sources.hmin_conditional(table, 1)
            k2p = sources.hmin_conditional(table, 2)
            eps = paramcalc.solve_self_consistent_error(ext.error_law, k1p, k2p)
            dist = sources.statistical_distance_from_uniform(ext, table, conditioned_on=("Z",))
            return [(dist, min(1.0, 3.0 * eps), CLASSICAL_TOL)]

        return _bounded_op(slot, run)

    composed = slot == "wide8_composed"
    n, m = (8, 2) if kind == "wide8" else (params["n"], params["m"])
    conds = [()] if composed else [(), ("X1",), ("X2",)]

    def run():
        if composed:
            inner = extractors.deor_descriptor(8, 3)
            outer = extractors.parity_seeded_descriptor(8, 3)
            ext = extractors.compose(outer, inner)
            bound = inner.error_law(7, 7) + outer.error_law(7)
        else:
            ext = extractors.deor_descriptor(n, m)
            bound = extractors.deor_error(n, n - 1, n - 1, m)
        gen = np.random.default_rng(seed)
        s1 = sources.random_flat_source(n, n - 1, gen)
        s2 = sources.random_flat_source(n, n - 1, gen)
        table = sources.MarkovSourceTable.from_flat_pair(s1, s2)
        return [(sources.statistical_distance_from_uniform(ext, table, conditioned_on=c),
                 bound, CLASSICAL_TOL) for c in conds]

    return _bounded_op(slot, run)


# ---------------------------------------------------------------------------
# quantum: the qsim oracles (criteria 5 and 6)
# ---------------------------------------------------------------------------

# As in classical, a slot's name carries its parameters: blocks, m and, for
# contract2, the number of Kraus operators. The dimensions of each block's C
# part are drawn inside `random_ccq_markov_state` from the op's seed, so they
# vary within a slot. wide4 is 2 ops in 53, not 1 in 16, for the same reason
# as wide8.
QUANTUM_CYCLE = {
    **{f"small3_b{b}_m{m}": 3 for b in (1, 2, 3) for m in (1, 2, 3)},
    **{f"contract2_b{b}_m{m}_k{k}": 2 for b in (1, 2) for m in (1, 2) for k in (1, 2, 3)},
    "wide4_m1": 1, "wide4_m2": 1,
}


def _quantum(slot, rng, tag):
    kind = slot.split("_", 1)[0]
    params = slot_params(slot)
    m = params["m"]
    seed = int(rng.integers(1 << 31))
    if kind == "contract2":
        blocks, n_kraus = params["b"], params["k"]

        def run():
            gen = np.random.default_rng(seed)
            state = qsim.random_ccq_markov_state(2, 2, blocks, 2, gen)
            ext = extractors.deor_descriptor(2, m)
            kraus = qsim.random_channel(state.c_dim, n_kraus, gen)
            chk = qsim.channel_monotonicity_check(state, ext, kraus)
            dims = (4, 4, state.c_dim)
            rho = qsim.assemble(state)
            out = qsim.apply_extractor_channel(rho, ext, dims)
            uniform = qsim.DensityOperator(np.eye(1 << m) / (1 << m))
            ideal = qsim.tensor(uniform, qsim.DensityOperator(state.side_information()))
            dense = qsim.trace_distance(out, ideal)
            cmi = qsim.conditional_mutual_information(rho, dims)
            return [(chk.after, chk.before, QUANTUM_TOL),
                    (abs(dense - chk.before), 0.0, QUANTUM_TOL),
                    (cmi, 0.0, CMI_TOL)]

        return _bounded_op(slot, run)

    if kind == "wide4":
        n, blocks, max_c_dim = 4, 16, 3
    else:
        n, blocks, max_c_dim = 3, params["b"], 4

    def run():
        gen = np.random.default_rng(seed)
        state = qsim.random_ccq_markov_state(n, n, blocks, max_c_dim, gen)
        ext = extractors.deor_descriptor(n, m)
        chk = qsim.verify_quantum_bound(state, ext, *state.certified_k)
        cmi = qsim.markov_cmi(state)
        return [(chk.distance, chk.bound, QUANTUM_TOL), (abs(cmi), 0.0, CMI_TOL)]

    return _bounded_op(slot, run)


# ---------------------------------------------------------------------------
# requests: in-process `xtract` calls
# ---------------------------------------------------------------------------

# 1 request in 20 is malformed. The extract and verify requests fill ranks
# ~34-131 of the 160 by latency, so p50 (rank 80) lies inside them; the
# solver-bound plans fill ranks ~132-160, so p90 (rank 144) lies inside those.
REQUESTS_CYCLE = {
    "extract_deor64": 16, "extract_deor16": 16, "extract_ip64": 16,
    "extract_composed8": 16, "extract_descriptor16": 8,
    "extract_descriptor64": 8, "extract_trevisan8": 8,
    "plan_quantum_markov": 12, "plan_smooth_markov": 8, "plan_subnormalized": 8,
    "plan_classical_markov": 4, "plan_plain": 4, "plan_raz": 4,
    "plan_trevisan_composition": 4, "report": 10, "verify": 10,
    "malformed_deor_n1_ne_n2": 1, "malformed_trevisan_no_eps": 1,
    "malformed_budget_0": 1, "malformed_missing_flag": 1,
    "malformed_k1_nan": 1, "malformed_k1_gt_n1": 1, "malformed_m_gt_n": 1,
    "malformed_missing_file": 1,
}

# Documented exit codes: 2 usage, 3 domain, 4 resource budget.
MALFORMED_EXIT = {
    "malformed_deor_n1_ne_n2": {3}, "malformed_trevisan_no_eps": {3},
    "malformed_budget_0": {4}, "malformed_missing_flag": {2},
    "malformed_k1_nan": {2, 3, 4}, "malformed_k1_gt_n1": {2, 3, 4},
    "malformed_m_gt_n": {2, 3, 4}, "malformed_missing_file": {2, 3, 4},
}

# Defects of ROADMAP open item 5, reproduced at the commit that added this
# benchmark: the first three exit 0, the last raises FileNotFoundError. They
# count as failed ops; `correct` turns false only on a failure outside them.
KNOWN_DEFECTS = frozenset({
    "malformed_k1_nan", "malformed_k1_gt_n1", "malformed_m_gt_n", "malformed_missing_file",
})

TREVISAN = (8, 3, 0.9)  # the largest Trevisan parameters that extract today (t = 16)


def call_cli(argv):
    """Run `xtract argv` in process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits 2 on usage errors
            code = exc.code
    return code, out.getvalue()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


def _write_bits(path, rng, nbits):
    data = rng.bytes((nbits + 7) // 8)
    with open(path, "wb") as fh:
        fh.write(data)
    return BitString.from_bytes(data, nbits)


def _extract_op(slot, rng, tag):
    family = slot.split("_", 1)[1]
    if family == "trevisan8":
        ext = extractors.trevisan_descriptor(*TREVISAN)
        flags = ["--family", "trevisan", "--n1", "8", "--n2", str(ext.n2), "--m", "3",
                 "--eps", repr(TREVISAN[2])]
    elif family == "composed8":
        m = int(rng.integers(1, 5))
        ext = extractors.compose(extractors.parity_seeded_descriptor(8, m),
                                 extractors.deor_descriptor(8, m))
        flags = ["--family", "composed", "--n1", "8", "--m", str(m)]
    elif family == "ip64":
        ext = extractors.inner_product_descriptor(64)
        flags = ["--family", "inner-product", "--n1", "64"]
    else:
        n = int(family.removeprefix("deor").removeprefix("descriptor"))
        m = int(rng.integers(1, n + 1))
        ext = extractors.deor_descriptor(n, m)
        flags = ["--family", "deor", "--n1", str(n), "--m", str(m)]
        if family.startswith("descriptor"):
            with open(tag + ".json", "w") as fh:
                json.dump(ext.to_dict(), fh)
            flags = ["--descriptor", tag + ".json"]
    x1 = _write_bits(tag + ".x1", rng, ext.n1)
    x2 = _write_bits(tag + ".x2", rng, ext.n2)
    expected = ext.extract(x1, x2).to_bytes()
    out_path = tag + ".y"
    open(out_path, "wb").close()  # the request rewrites its output file, as a repeated run does
    argv = ["extract", tag + ".x1", tag + ".x2", out_path, *flags]

    def run():
        code, _ = call_cli(argv)
        if code != 0:
            return code, b""
        with open(out_path, "rb") as fh:
            return code, fh.read()

    def check(out):
        code, got = out
        if code != 0:
            return f"exit {code}"
        return None if got == expected else f"bytes {got.hex()} != library {expected.hex()}"

    return Op(slot, run, check, digest=lambda out: out[1])


def _plan_op(slot, rng, tag):
    model = slot.split("_", 1)[1].replace("_", "-")
    n, m = 64, int(rng.integers(1, 5))
    k1, k2 = (float(v) for v in rng.uniform(0.8 * n, n, size=2))
    common = ["--family", "deor", "--n1", str(n), "--n2", str(n), "--m", str(m),
              "--k1", repr(k1), "--k2", repr(k2)]
    expect_feasible = None
    if model == "quantum-markov":
        argv = ["plan", "--model", model, *common]
        expected = paramcalc.deor_quantum_corollary(n, k1, k2, m)
    elif model == "smooth-markov":
        d1, d2, e1, e2 = (float(v) for v in 10.0 ** -rng.uniform(4, 9, size=4))
        argv = ["plan", "--model", model, *common, "--delta1", repr(d1), "--delta2", repr(d2),
                "--eps1", repr(e1), "--eps2", repr(e2)]
        corollary = paramcalc.deor_quantum_corollary(n, k1, k2, m)
        expected = min(1.0, 6 * d1 + 6 * d2 + 2 * e1 + 2 * e2 + 2 * corollary)
    elif model == "subnormalized":
        argv = ["plan", "--model", model, *common]
        expected = paramcalc.subnormalized_transfer(extractors.deor_error(n, k1 + 1, k2 + 1, m))
    elif model == "classical-markov":
        eps = float(2.0 ** -rng.uniform(8, 40))
        argv = ["plan", "--model", model, *common, "--eps", repr(eps), "--l", "3"]
        expected = paramcalc.classical_markov_transfer([k1, k2, k1], eps, 3, m).error
    elif model == "plain":
        argv = ["plan", "--model", model, *common]
        expected = extractors.deor_error(n, k1, k2, m)
    elif model == "raz":
        nr = int(rng.choice([2048, 4096]))
        delta = float(rng.uniform(0.05, 0.5))
        kr1, kr2 = (float(v) for v in rng.uniform(0.8 * nr, nr, size=2))
        argv = ["plan", "--model", "quantum-markov", "--family", "raz", "--n1", str(nr),
                "--n2", str(nr), "--m", str(m), "--k1", repr(kr1), "--k2", repr(kr2),
                "--delta-prime", repr(delta)]
        rep = paramcalc.raz_quantum_feasible(nr, nr, kr1, kr2, m, delta)
        expected, expect_feasible = rep.error, rep.feasible
    else:  # trevisan-composition
        nt = int(rng.choice([1024, 4096]))
        kt1, kt2 = (float(v) for v in rng.uniform(0.9 * nt, nt, size=2))
        eps, outer_m = float(2.0 ** -rng.uniform(10, 30)), int(rng.choice([8, 16, 32]))
        outer_eps = float(2.0 ** -rng.uniform(5, 15))
        argv = ["plan", "--model", "quantum-markov", "--family", "trevisan-composition",
                "--n1", str(nt), "--n2", str(nt), "--m", str(m), "--k1", repr(kt1),
                "--k2", repr(kt2), "--eps", repr(eps), "--outer-m", str(outer_m),
                "--outer-eps", repr(outer_eps)]
        plan = paramcalc.trevisan_composition_plan(nt, kt1, kt2, eps, outer_m, outer_eps)
        expected, expect_feasible = plan.error, plan.feasible

    def check(out):
        code, text = out
        if code != 0:
            return f"exit {code}"
        try:
            got = strict_json(text)["assessment"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"bad report: {exc}"
        if expect_feasible is not None and got.get("feasible") != expect_feasible:
            return f"feasible {got.get('feasible')} != {expect_feasible}"
        error = got.get("error")
        if expected is None or error is None:
            return None if error == expected else f"error {error!r} != {expected!r}"
        if not abs(error - expected) <= PLAN_REL_TOL * abs(expected):
            return f"error {error!r} != {expected!r}"
        return None

    return Op(slot, lambda: call_cli(argv), check, digest=lambda out: out[1].encode())


def _report_op(slot, rng, tag):
    path = tag + ".json"
    records = [{"seed": int(s), "distance": float(d), "bound": float(b), "holds": bool(d <= b)}
               for s, d, b in zip(rng.integers(0, 1000, 4), rng.random(4), rng.random(4))]
    report = {"version": "1", "request": {"command": "verify", "suite": "classical"},
              "assessment": None, "records": records, "timing": None}
    with open(path, "w") as fh:
        fh.write(cli.report_to_json(report))
    expected = cli.report_to_csv(report)

    def check(out):
        code, text = out
        if code != 0:
            return f"exit {code}"
        return None if text == expected else "csv differs from the library rendering"

    return Op(slot, lambda: call_cli(["report", path, "--format", "csv"]), check,
              digest=lambda out: out[1].encode())


def _verify_op(slot, rng, tag):
    budget = 3
    argv = ["verify", "--suite", "distinguishing", "--seed", str(int(rng.integers(1 << 20))),
            "--budget", str(budget)]

    def check(out):
        code, text = out
        if code != 0:
            return f"exit {code}"
        try:
            records = strict_json(text)["records"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"bad report: {exc}"
        if len(records) != budget or not all(r["holds"] for r in records):
            return "records missing or failing"
        return None

    return Op(slot, lambda: call_cli(argv), check, digest=lambda out: out[1].encode())


def _malformed_op(slot, rng, tag):
    _write_bits(tag + ".x8", rng, 8)
    _write_bits(tag + ".x16", rng, 16)
    k = repr(float(rng.uniform(40, 60)))
    plan = ["plan", "--model", "quantum-markov", "--family", "deor"]
    argv = {
        "malformed_deor_n1_ne_n2": ["extract", tag + ".x8", tag + ".x16", tag + ".y",
                                    "--family", "deor", "--n1", "8", "--n2", "16"],
        "malformed_trevisan_no_eps": ["extract", tag + ".x8", tag + ".x16", tag + ".y",
                                      "--family", "trevisan", "--n1", "8", "--m", "3"],
        "malformed_budget_0": ["verify", "--suite", "distinguishing", "--budget", "0"],
        "malformed_missing_flag": [*plan, "--n1", "64", "--n2", "64", "--m", "4", "--k1", k],
        "malformed_k1_nan": [*plan, "--n1", "64", "--n2", "64", "--m", "4",
                             "--k1", "nan", "--k2", k],
        "malformed_k1_gt_n1": [*plan, "--n1", "7", "--n2", "64", "--m", "4",
                               "--k1", "60", "--k2", k],
        "malformed_m_gt_n": [*plan, "--n1", "64", "--n2", "64", "--m", "100",
                             "--k1", k, "--k2", k],
        "malformed_missing_file": ["extract", tag + ".absent", tag + ".x8", tag + ".y",
                                   "--family", "deor", "--n1", "8", "--m", "4"],
    }[slot]
    allowed = MALFORMED_EXIT[slot]

    def check(out):
        code, _ = out
        return None if code in allowed else f"exit {code}, documented {sorted(allowed)}"

    return Op(slot, lambda: call_cli(argv), check, digest=lambda out: repr(out[0]).encode())


def _requests(slot, rng, tag):
    kind = slot.split("_", 1)[0]
    make = {"extract": _extract_op, "plan": _plan_op, "report": _report_op,
            "verify": _verify_op, "malformed": _malformed_op}[kind]
    return make(slot, rng, tag)


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    cycle: dict
    prepare: Callable
    known_defects: frozenset = frozenset()

    def schedule(self, seed: int) -> list:
        """One cycle of slots, in an order drawn from the seed."""
        slots = [slot for slot, count in self.cycle.items() for _ in range(count)]
        order = np.random.default_rng([seed, 0x5C4ED]).permutation(len(slots))
        return [slots[i] for i in order]


WORKLOADS = {
    "classical": Workload("classical", CLASSICAL_CYCLE, _classical),
    "quantum": Workload("quantum", QUANTUM_CYCLE, _quantum),
    "requests": Workload("requests", REQUESTS_CYCLE, _requests, KNOWN_DEFECTS),
}
