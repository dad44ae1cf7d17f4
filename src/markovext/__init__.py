"""Multi-source randomness extraction in the Markov side-information model.

Concrete two-source and seeded extractors over GF(2^n), the security
calculus that carries a plain extractor guarantee into classical and quantum
Markov models, and exact desk-scale verification oracles (brute-force
statistical distances, small density-operator simulations).
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

from .bitfield import BitString, gf_mul
from .errors import (
    CertificationError,
    CompositionError,
    ConstructionError,
    DomainError,
    InvalidArgumentError,
    MarkovExtError,
    ResourceBudgetError,
)
from .extractors import (
    ExtractorDescriptor,
    ExtractorFamily,
    WeakDesign,
    compose,
    deor_descriptor,
    deor_error,
    inner_product_descriptor,
    parity_seeded_descriptor,
    trevisan_descriptor,
    weak_design_build,
)
from .paramcalc import (
    CompositionPlan,
    FeasibilityReport,
    SecurityAssessment,
    SecurityModel,
    SmoothParams,
    TrevisanParams,
    assessment,
    classical_markov_transfer,
    deor_quantum_corollary,
    quantum_markov_transfer,
    raz_quantum_feasible,
    smooth_transfer,
    solve_self_consistent_error,
    subnormalized_transfer,
    trevisan_composition_plan,
    trevisan_params,
)
# The oracles below need numpy; they load on first access (PEP 562), so that
# `import markovext` and the `plan`/`extract`/`report` commands never import it.
_LAZY = {
    "sources": (
        "FlatSource",
        "MarkovSourceTable",
        "build_markov_table",
        "conditional_distance_given_guess",
        "distinguishing_event_statistic",
        "hmin_conditional",
        "random_flat_source",
        "random_joint",
        "statistical_distance_from_uniform",
    ),
    "qsim": (
        "CcqBlock",
        "CcqMarkovState",
        "DensityOperator",
        "apply_extractor_channel",
        "assemble",
        "channel_monotonicity_check",
        "conditional_mutual_information",
        "from_markov_table",
        "hmin_cq",
        "markov_cmi",
        "partial_trace",
        "random_ccq_markov_state",
        "random_channel",
        "tensor",
        "trace_distance",
        "verify_quantum_bound",
        "von_neumann_entropy",
    ),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name in _LAZY:
        return _import_module(f".{name}", __name__)
    if name in _OWNER:
        return getattr(_import_module(f".{_OWNER[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY, *_OWNER})
