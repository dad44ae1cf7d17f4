"""The benchmark's own checks. Run from the root of a checkout:

    python3 bench/selftest.py

Exits 0 when every check passes, 1 otherwise. It takes about two minutes:
most of it is one tiny run of each workload in each trace mode.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import phase  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

problems = []


def expect(ok: bool, what: str):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


def one_cycle(workload, seed, scratch, **kw):
    return worker.run(workload, seed, seconds=0, min_ops=1, scratch=scratch, **kw)


def check_determinism(scratch):
    for name, workload in WORKLOADS.items():
        a = one_cycle(workload, 1, scratch)
        b = one_cycle(workload, 1, scratch)
        c = one_cycle(workload, 2, scratch)
        expect(a["schedule_order"] == b["schedule_order"], f"{name}: same seed, same schedule")
        expect(a["digest"] == b["digest"], f"{name}: same seed, same output digest")
        expect(a["schedule_order"] != c["schedule_order"], f"{name}: other seed, other schedule")
        expect(a["digest"] != c["digest"], f"{name}: other seed, other inputs")


class Corrupted:
    """A workload whose ops of one slot return a wrong output or raise."""

    def __init__(self, workload, slot, mode):
        self.workload, self.slot, self.mode = workload, slot, mode
        self.name, self.cycle = workload.name, workload.cycle
        self.known_defects = workload.known_defects
        self.schedule = workload.schedule

    def prepare(self, slot, rng, tag):
        op = self.workload.prepare(slot, rng, tag)
        if slot != self.slot:
            return op
        if self.mode == "raise":
            def run():
                raise RuntimeError("injected")
        else:
            def run(inner=op.run):
                return wrong(inner())
        return Op(op.slot, run, op.check, op.digest)


def wrong(out):
    """The same output with its value made wrong."""
    if isinstance(out, list):  # (value, bound, tol) triples
        return [(bound + 1.0, bound, tol) for _, bound, tol in out]
    code, payload = out
    if isinstance(payload, bytes):
        return code, bytes(b ^ 0xFF for b in payload)
    if not payload:  # a malformed request: report success instead of its error code
        return 0, payload
    try:
        report = json.loads(payload)
        report["assessment"]["error"] = 2 * report["assessment"]["error"] + 1e-3
        return code, json.dumps(report)
    except (ValueError, KeyError, TypeError):
        return code, payload + "x"


def check_failure_accounting(scratch):
    cases = [("classical", "strong_n4_m1"), ("quantum", "contract2_b1_m1_k1"),
             ("requests", "extract_deor64"), ("requests", "plan_quantum_markov"),
             ("requests", "report"), ("requests", "malformed_budget_0")]
    for name, slot in cases:
        for mode in ("wrong", "raise"):
            workload = WORKLOADS[name]
            res = one_cycle(Corrupted(workload, slot, mode), 3, scratch)
            count = workload.cycle[slot]
            expect(res["failed_by_slot"].get(slot) == count and slot in res["unexpected_failures"],
                   f"{name}: a {mode} {slot} output counts as a failure")


def check_estimator():
    # Two cycles of ["a", "a", "b"]; every "a" op takes 5 ms and every "b" op
    # 2 ms at the reference speed, while the host ran at speeds 4x apart.
    ref = phase.REFERENCE_S
    timings = [["a", 2 * ref, 10e-3], ["a", ref, 5e-3], ["b", ref, 2e-3],
               ["a", ref / 2, 2.5e-3], ["a", 4 * ref, 20e-3], ["b", 2 * ref, 4e-3]]
    res = worker.summarize(timings, ["a", "a", "b"])
    expect(abs(res["ops_per_s"] - 3 / (2 * 5e-3 + 2e-3)) < 1e-9,
           "estimator: each op at the reference speed of its probe, each slot with its cycle share")
    expect(abs(res["op_p50_ms"] - 5.0) < 1e-9 and abs(res["op_p90_ms"] - 5.0) < 1e-9,
           "estimator: latency quantiles of the ops at the reference speed")
    expect(abs(res["raw_op_p90_ms"] - 20.0) < 1e-9, "estimator: raw figures as timed")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_tiny_runs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for entry in spec["workloads"]:
        digests = []
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench("--workload", entry["name"], "--seed", "5", "--seconds", "1",
                             "--trace", str(trace))
            what = f"{entry['name']} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{what}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            named = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{what}: result has exactly the four keys")
            expect(got == named, f"{what}: prints every {section} metric with its unit")
            expect(result["correct"] is True and result["attempted"] >= 100,
                   f"{what}: correct, with at least 100 ops")
            expect(all(name in proc.stdout for name in named), f"{what}: table names every metric")
            record = next(line for line in proc.stdout.splitlines() if line.startswith("record "))
            digests.append(json.loads(record[len("record "):])["digest"])
        expect(len(digests) == 2 and digests[0] == digests[1],
               f"{entry['name']}: an untraced and a traced process give the same output digest")


def check_refuses_without_program(scratch):
    bare = os.path.join(scratch, "bare")
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run_bench("--workload", "classical", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without src/ the benchmark exits non-zero and prints no result")


def main() -> int:
    scratch = os.path.join(ROOT, ".bench_run", f"selftest-{os.getpid()}")
    try:
        check_estimator()
        check_determinism(scratch)
        check_failure_accounting(scratch)
        check_refuses_without_program(scratch)
        check_tiny_runs()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
