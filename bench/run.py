"""The repo benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload classical --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. With `--trace 0` it prints the end-to-end
metrics; with `--trace 1` it makes an untraced and a traced run and prints
the per-layer metrics. Every run happens in a fresh interpreter with BLAS
threads pinned to 1 and the checkout's `src` as the only program path. The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
See bench/README.md for what each workload and metric means.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

from phase import at_reference

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("classical", "quantum", "requests")
SETUP_PROBES = 8  # before the measured run, and as many after it: setup_s is their median
SETUP_PROBE_LIMIT_S = 5.0
WORKER_MARGIN_S = 40.0  # worker start, preparing inputs, finishing the last cycle
BLAS_THREADS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
# Imports the program, reports that it has, then runs the phase probe once to
# warm it up and reports the median of five more.
PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import markovext, markovext.cli; "
         "print(markovext.__file__, flush=True); import statistics; "
         "from phase import phase_probe; phase_probe(); "
         "print(statistics.median(phase_probe() for _ in range(5)), flush=True)")


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_THREADS)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_probe(env) -> float:
    """Wall time from interpreter start until markovext and markovext.cli are
    imported, at the reference speed of the phase probes run just after."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE, BENCH], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        path = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        probe = proc.stdout.read().strip()
        if proc.wait(timeout=SETUP_PROBE_LIMIT_S) != 0 or not path.startswith(SRC + os.sep):
            raise RuntimeError(f"setup probe failed: {path!r}")
    return at_reference(elapsed, float(probe))


def run_worker(env, args, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", os.path.join(ROOT, ".bench_run",
                                        f"spans-{args.workload}-seed{args.seed}.jsonl")]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=args.seconds + WORKER_MARGIN_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def machine_record(env) -> dict:
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(f"{base}/{index}/level").strip()
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(f"{base}/{index}/size").strip()
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "mpmath": metadata.version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cache": caches,
        "blas_threads": {k: env[k] for k in BLAS_THREADS},
    }


def source_record() -> dict:
    """The commit, when the checkout has one, and a digest of the program's sources."""
    head = _read(os.path.join(ROOT, ".git", "HEAD")).strip()
    if head.startswith("ref: "):
        head = _read(os.path.join(ROOT, ".git", head[5:])).strip()
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "markovext")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"commit": head or None, "source_sha256": digest.hexdigest()}


def end_to_end(run: dict, setup_s: float) -> dict:
    return {
        "ops_per_s": (run["ops_per_s"], "op/s"),
        "op_p50_ms": (run["op_p50_ms"], "ms"),
        "op_p90_ms": (run["op_p90_ms"], "ms"),
        "ok_ratio": (1.0 - run["failed"] / run["attempted"], "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "markovext", "__init__.py")):
        print(f"error: no program at {SRC}/markovext; run from a full checkout", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, ".bench_run"), exist_ok=True)
    env = child_env()
    samples = []  # set-up probes, in seconds at the reference speed
    try:
        if args.trace:
            untraced = run_worker(env, args, 0)
            run = run_worker(env, args, 1)
            metrics = run["layers"]
            metrics["trace.overhead_ratio"] = (run["ops_per_s"] / untraced["ops_per_s"], "ratio")
            runs = [untraced, run]
        else:
            setup_probe(env)  # fills the bytecode cache, as a repeated `xtract` finds it
            samples += [setup_probe(env) for _ in range(SETUP_PROBES)]
            run = run_worker(env, args, 0)
            samples += [setup_probe(env) for _ in range(SETUP_PROBES)]
            metrics = end_to_end(run, statistics.median(samples))
            runs = [run]
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **source_record(), **machine_record(env),
        "schedule": run["schedule"], "schedule_order": run["schedule_order"],
        "digest": run["digest"], "cycles": run["cycles"], "cycle_ops": run["cycle_ops"],
        **{key: run[key] for key in ("probe_ms", "raw_ops_per_s",
                                     "raw_op_p50_ms", "raw_op_p90_ms", "slot_median_ms")},
        "setup_samples_s": samples,
        "failed_by_slot": run["failed_by_slot"], "failure_examples": run["failure_examples"],
    }
    with open(os.path.join(ROOT, ".bench_run",
                           f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)

    attempted, failed = run["attempted"], run["failed"]
    print(f"{args.workload} seed {args.seed}: {attempted} ops in {run['cycles']} cycles "
          f"of {run['cycle_ops']}; fail_ratio {failed / attempted:.6g} ({failed} of {attempted}"
          f", by slot {run['failed_by_slot']})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print("record " + json.dumps(record, allow_nan=False))
    print(json.dumps({
        "correct": all(not r["unexpected_failures"] for r in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
