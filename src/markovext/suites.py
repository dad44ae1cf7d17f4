"""The seeded verification suites of ``xtract verify``.

Each suite is a generator of ``(seed, qsim.BoundCheck)``, one per instance, for
the seeds it is given; the check's ``holds`` is the verdict. They run the numpy
oracles of `sources` and `qsim`, so `cli.cmd_verify` imports this module when it
runs, and the other commands never load numpy. The suites call through the module
attributes (``sources.build_markov_table(...)``), so a wrapper installed on them runs.
"""
from __future__ import annotations

import numpy as np

from . import extractors, paramcalc, qsim, sources


def classical(seeds):
    ext = extractors.deor_descriptor(6, 2)
    for s in seeds:
        table = sources.build_markov_table(6, 6, 2, 5.0, 5.0, s)
        k = (sources.hmin_conditional(table, 1), sources.hmin_conditional(table, 2))
        bound = paramcalc.assessment(paramcalc.SecurityModel.CLASSICAL_MARKOV, ext, k).error
        dist = sources.statistical_distance_from_uniform(ext, table, conditioned_on=("Z",))
        yield s, qsim.BoundCheck(dist, bound)


def quantum(seeds):
    ext = extractors.deor_descriptor(3, 2)
    for s in seeds:
        rng = np.random.default_rng(s)
        state = qsim.random_ccq_markov_state(3, 3, int(rng.integers(1, 4)), 2, rng)
        yield s, qsim.verify_quantum_bound(state, ext, *state.certified_k)


def distinguishing(seeds):
    ext = extractors.deor_descriptor(3, 2)
    for s in seeds:
        joint = sources.random_joint(3, 3, np.random.default_rng(s))
        stat = sources.distinguishing_event_statistic(ext, joint)
        yield s, qsim.BoundCheck(stat, sources.conditional_distance_given_guess(ext, joint))


def monotonicity(seeds):
    ext = extractors.deor_descriptor(2, 1)
    for s in seeds:
        rng = np.random.default_rng(s)
        state = qsim.random_ccq_markov_state(2, 2, int(rng.integers(1, 3)), 2, rng)
        kraus = qsim.random_channel(state.c_dim, int(rng.integers(1, 4)), rng)
        chk = qsim.channel_monotonicity_check(state, ext, kraus)
        yield s, qsim.BoundCheck(chk.after, chk.before)


def composition(seeds):
    ext = extractors.compose(extractors.parity_seeded_descriptor(8, 3),
                             extractors.deor_descriptor(8, 3))
    bound = ext.error_law(7.0, 7.0)
    for s in seeds:
        rng = np.random.default_rng(s)
        s1 = sources.random_flat_source(8, 7, rng)
        s2 = sources.random_flat_source(8, 7, rng)
        table = sources.MarkovSourceTable.from_flat_pair(s1, s2)
        yield s, qsim.BoundCheck(sources.statistical_distance_from_uniform(ext, table, ()), bound)
