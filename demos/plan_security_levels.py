"""Sweep asserted entropies for the GF(2^n)-multiplication extractor and
print how the guaranteed error degrades from the plain model through the
classical and quantum Markov models.

Run:  python3 demos/plan_security_levels.py
"""
from markovext import SecurityModel, deor_descriptor, deor_error, markov_assessment

n, m = 64, 4
ext = deor_descriptor(n, m)

print(f"two-source extractor: n={n}, m={m} output bits")
print(f"{'k1=k2':>6}  {'plain':>12}  {'classical':>12}  {'quantum':>12}")
for k in range(40, 65, 4):
    plain = deor_error(n, k, k, m)
    # the base error is solved so that the Markov thresholds land on k
    classical = markov_assessment(SecurityModel.CLASSICAL_MARKOV, ext, k, k).error
    quantum = markov_assessment(SecurityModel.QUANTUM_MARKOV, ext, k, k).error
    print(f"{k:>6}  {plain:>12.3e}  {classical:>12.3e}  {quantum:>12.3e}")

print()
print("the quantum-Markov guarantee pays a square root plus a 2^(m-2) factor,")
print("so it needs noticeably more entropy headroom than the classical one.")
