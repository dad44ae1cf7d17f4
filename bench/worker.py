"""One measured run of one workload, in a fresh interpreter.

Started by run.py with BLAS threads pinned and `src` on the path. Runs whole
cycles of the workload's schedule as a closed loop with one client until
`--seconds` have passed and at least MIN_OPS ops are done, then prints a
JSON summary as its last line.

Before every op the worker runs the phase probe (phase.py), and once more
after the last. Each op's time is scaled to the reference speed by the mean
of the probes just before and just after it, so an op that ran while the
host was slow counts at the speed of a fast host. Every op counts; a run is
whole cycles, so each slot keeps its share of the cycle.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter

import numpy as np

from phase import at_reference, phase_probe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_OPS = 100  # so that at least ten samples lie beyond p90


def _import_program():
    import markovext
    import markovext.cli  # noqa: F401  (the first op may start once both are imported)

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(markovext.__file__).startswith(src):
        sys.exit(f"markovext imported from {markovext.__file__}, not from {src}")
    return markovext


def run(workload, seed: int, seconds: float, tracer=None, min_ops: int = MIN_OPS,
        scratch: str | None = None) -> dict:
    slots = workload.schedule(seed)
    scratch = scratch or os.path.join(ROOT, ".bench_run", f"work-{os.getpid()}")
    timings = []  # per op in run order: [slot, phase probe, latency]
    failed, failure_examples = Counter(), {}
    digest = hashlib.sha256()
    ops = cycle = 0
    rss_mb = None  # after a fixed amount of work, so it does not grow with speed
    started = time.perf_counter()
    os.makedirs(scratch, exist_ok=True)
    try:
        while True:
            # Each place in the cycle keeps its file names from cycle to cycle:
            # creating a file on the tuning machine's disk took ~0.7 ms, and
            # more the more files had been created and deleted before, while
            # rewriting one took ~0.1 ms.
            batch = [workload.prepare(slot, np.random.default_rng([seed, cycle, i]),
                                      os.path.join(scratch, str(i)))
                     for i, slot in enumerate(slots)]
            for op in batch:
                probe = phase_probe()
                t0 = time.perf_counter()
                try:
                    out = op.run() if tracer is None else tracer.run_op(ops, op.run)
                    error = None
                except (Exception, SystemExit) as exc:  # a crash is a failed op, never a crashed run
                    out, error = None, f"{type(exc).__name__}: {exc}"
                    outcome = type(exc).__name__.encode()  # the message may hold a scratch path
                timings.append([op.slot, probe, time.perf_counter() - t0])
                if out is not None:
                    error = op.check(out)
                    outcome = op.digest(out) if error is None else error.encode()
                if cycle == 0:
                    digest.update(op.slot.encode() + b"\0" + outcome)
                if error is not None:
                    failed[op.slot] += 1
                    failure_examples.setdefault(op.slot, error)
                ops += 1
            cycle += 1
            if cycle * len(slots) >= min_ops and rss_mb is None:
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if time.perf_counter() - started >= seconds and ops >= min_ops:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    probes = [probe for _, probe, _ in timings[1:]] + [phase_probe()]
    for timing, after in zip(timings, probes):  # the probes on either side of the op
        timing[1] = (timing[1] + after) / 2

    return {
        "workload": workload.name,
        "seed": seed,
        "attempted": ops,
        "failed": sum(failed.values()),
        "failed_by_slot": dict(failed),
        "failure_examples": failure_examples,
        "unexpected_failures": sorted(set(failed) - workload.known_defects),
        "cycles": cycle,
        "cycle_ops": len(slots),
        **summarize(timings, slots),
        "peak_rss_mb": rss_mb,
        "schedule": {slot: slots.count(slot) for slot in workload.cycle},
        "schedule_order": slots,
        "digest": digest.hexdigest(),
    }


def summarize(timings, slots) -> dict:
    """Throughput and latency quantiles of a run of whole cycles.

    `timings` holds [slot, probe, latency] per op, where probe is the mean of
    the probes on either side of the op. Each latency is taken at the
    reference speed of its own probe. A slot adds its count in the cycle times
    the median of its ops to the cycle's time. The `raw_` figures are as
    timed."""
    scaled = [at_reference(latency, probe) for _, probe, latency in timings]
    raw = [latency for _, _, latency in timings]

    def per_cycle(latencies):
        by_slot = {}
        for (slot, _, _), latency in zip(timings, latencies):
            by_slot.setdefault(slot, []).append(latency)
        medians = {slot: statistics.median(v) for slot, v in sorted(by_slot.items())}
        return len(slots) / sum(slots.count(slot) * t for slot, t in medians.items()), medians

    ops_per_s, slot_s = per_cycle(scaled)
    return {
        "probe_ms": 1e3 * statistics.median(probe for _, probe, _ in timings),
        "ops_per_s": ops_per_s,
        "op_p50_ms": 1e3 * quantile(scaled, 0.5),
        "op_p90_ms": 1e3 * quantile(scaled, 0.9),
        "raw_ops_per_s": per_cycle(raw)[0],
        "raw_op_p50_ms": 1e3 * quantile(raw, 0.5),
        "raw_op_p90_ms": 1e3 * quantile(raw, 0.9),
        "slot_median_ms": {slot: 1e3 * t for slot, t in slot_s.items()},
    }


def quantile(values, q: float) -> float:
    """The smallest value with at least a share q of the values at or below it."""
    return float(np.quantile(values, q, method="inverted_cdf"))


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--spans", default=None, help="write the trace's spans here (jsonl)")
    args = p.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, tracer)
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
