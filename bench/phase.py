"""The phase probe: how fast the host runs this process right now.

The machine the benchmark was tuned on (2 vCPUs shared with other tenants)
ran the same code at speeds up to 2x apart, in phases that last from seconds
to minutes. The probe is a fixed loop of small numpy calls, the kind of work
the program's kernels do between their Python steps, timed next to every op.
A pure-Python loop was tried first and followed only part of each slowdown:
ops slowed up to 1.9x while it slowed 1.45x. Times are reported at the
reference speed, at which the probe takes REFERENCE_S: a time t measured
while the probe took p is reported as t * REFERENCE_S / p. Only the
benchmark's own code runs in the probe, so a change to the program does not
move it.
"""
from __future__ import annotations

import time

import numpy as np

ITERATIONS = 150
REFERENCE_S = 1.0e-3  # about the probe on the tuning machine


def phase_probe() -> float:
    """Seconds the probe loop takes now."""
    t0 = time.perf_counter()
    for _ in range(ITERATIONS):
        a = np.arange(64.0)
        (a.reshape(8, 8) @ a.reshape(8, 8)).sum()
    return time.perf_counter() - t0


def at_reference(seconds: float, probe_s: float) -> float:
    """A time measured while the probe took probe_s, at the reference speed."""
    return seconds * REFERENCE_S / probe_s
