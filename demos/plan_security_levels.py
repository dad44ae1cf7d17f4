"""Sweep asserted entropies for the GF(2^n)-multiplication extractor and
print how the guaranteed error degrades from the plain model through the
classical and quantum Markov models.

Run:  python3 demos/plan_security_levels.py
"""
from markovext import SecurityModel, assessment, deor_descriptor

n, m = 64, 4
ext = deor_descriptor(n, m)

print(f"two-source extractor: n={n}, m={m} output bits")
print(f"{'k1=k2':>6}  {'plain':>12}  {'classical':>12}  {'quantum':>12}")
for k in range(40, 65, 4):
    # the plain law at k; for the Markov models the base error is solved so that their
    # thresholds land on k
    plain, classical, quantum = (assessment(model, ext, (k, k)).error for model in (
        SecurityModel.PLAIN, SecurityModel.CLASSICAL_MARKOV, SecurityModel.QUANTUM_MARKOV))
    print(f"{k:>6}  {plain:>12.3e}  {classical:>12.3e}  {quantum:>12.3e}")

print()
print("the quantum-Markov guarantee pays a square root plus a 2^(m-2) factor,")
print("so it needs noticeably more entropy headroom than the classical one.")
