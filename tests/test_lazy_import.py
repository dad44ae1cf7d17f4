"""numpy loads only with the oracles and mpmath only with the calculus: `import markovext`
and the `plan`, `extract` and `report` commands run without numpy, the non-Trevisan
`extract` requests and `report` without mpmath too, every public name still resolves to its
owner's object, and the package exports no other name."""
import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap

import pytest

import markovext

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

# Every public name of the package, by the module that owns it.
PUBLIC = {
    "bitfield": ["BitString", "gf_mul"],
    "errors": ["CertificationError", "CompositionError", "ConstructionError", "DomainError",
               "InvalidArgumentError", "MarkovExtError", "ResourceBudgetError"],
    "extractors": ["ExtractorDescriptor", "ExtractorFamily", "WeakDesign", "compose",
                   "deor_descriptor", "deor_error", "inner_product_descriptor",
                   "parity_seeded_descriptor", "trevisan_descriptor", "weak_design_build"],
    "paramcalc": ["CompositionPlan", "FeasibilityReport", "SecurityAssessment", "SecurityModel",
                  "SmoothParams", "TrevisanParams", "assessment", "classical_markov_transfer",
                  "deor_quantum_corollary", "quantum_markov_transfer", "raz_quantum_feasible",
                  "smooth_transfer", "solve_self_consistent_error", "subnormalized_transfer",
                  "trevisan_composition_plan", "trevisan_params"],
    "sources": ["FlatSource", "MarkovSourceTable", "build_markov_table",
                "conditional_distance_given_guess", "distinguishing_event_statistic",
                "hmin_conditional", "random_flat_source", "random_joint",
                "statistical_distance_from_uniform"],
    "qsim": ["CcqBlock", "CcqMarkovState", "DensityOperator", "apply_extractor_channel",
             "assemble", "channel_monotonicity_check", "conditional_mutual_information",
             "from_markov_table", "hmin_cq", "markov_cmi", "partial_trace",
             "random_ccq_markov_state", "random_channel", "tensor", "trace_distance",
             "verify_quantum_bound", "von_neumann_entropy"],
}

_NO_NUMPY = textwrap.dedent("""
    import contextlib, io, os, sys
    import markovext, markovext.cli
    from markovext.cli import main

    print("mpmath" in sys.modules)
    tmp, golden = sys.argv[1], sys.argv[2]
    x = os.path.join(tmp, "x")
    with open(x, "wb") as fh:
        fh.write(bytes(range(256)) * 16)
    report = os.path.join(tmp, "plan.json")
    no_calculus = [
        ["extract", x, x, os.path.join(tmp, "y1"), "--family", "deor", "--n1", "64", "--m", "4"],
        ["extract", x, x, os.path.join(tmp, "y2"), "--family", "inner-product", "--n1", "8"],
        ["extract", x, x, os.path.join(tmp, "y3"), "--family", "composed", "--n1", "8",
         "--m", "2"],
        ["extract", x, x, os.path.join(tmp, "y5"), "--family", "parity", "--n1", "8",
         "--n2", "3"],
        ["report", golden, "--format", "csv"],
        ["report", golden, "--format", "json"],
    ]
    calculus = [
        ["plan", "--model", "quantum-markov", "--family", "deor", "--n1", "64", "--n2", "64",
         "--m", "4", "--k1", "60", "--k2", "60", "--out", report],
        ["extract", x, x, os.path.join(tmp, "y4"), "--family", "trevisan", "--n1", "8",
         "--m", "3", "--eps", "0.9"],
        ["report", report, "--format", "csv"],
        ["report", report, "--format", "json"],
    ]
    for requests in (no_calculus, calculus):
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(argv) for argv in requests]
        print(codes, "numpy" in sys.modules, "mpmath" in sys.modules)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["verify", "--suite", "distinguishing", "--budget", "1"])
    print(code, "numpy" in sys.modules)
""")


def test_plan_extract_and_report_run_without_numpy(tmp_path):
    env = {**os.environ, "PYTHONPATH": SRC}
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                          "golden_report.json")
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY, str(tmp_path), golden], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "False", "[0, 0, 0, 0, 0, 0] False False", "[0, 0, 0, 0] False True", "0 True"]


@pytest.mark.parametrize("owner", sorted(PUBLIC))
def test_every_public_name_is_its_owners_object(owner):
    module = importlib.import_module(f"markovext.{owner}")
    assert getattr(markovext, owner) is module
    listed = dir(markovext)
    assert owner in listed
    for name in PUBLIC[owner]:
        assert getattr(markovext, name) is getattr(module, name), name
        assert name in listed, name
    # nothing else: a re-export cannot come back or vanish without PUBLIC changing
    submodules = {info.name for info in pkgutil.iter_modules(markovext.__path__)}
    public = {name for name in listed if not name.startswith("_")}
    assert public - submodules == {name for names in PUBLIC.values() for name in names}


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        markovext.no_such_name
    assert not hasattr(markovext, "cli_") and not hasattr(markovext, "numpy")


_REFUSED_CALCULUS = textwrap.dedent("""
    import math, sys
    from markovext import paramcalc, trevisan_params
    from markovext.errors import MarkovExtError

    inf, nan = math.inf, math.nan
    calls = [
        lambda: paramcalc.deor_quantum_corollary(8, inf, 8, 2),
        lambda: paramcalc.deor_quantum_corollary(-3, 4, 4, 2),
        lambda: paramcalc.deor_quantum_corollary(8, 4, 4, 1.5),
        lambda: paramcalc.raz_quantum_feasible(-1, 64, 40, 40, 1, 0.1),
        lambda: paramcalc.trevisan_composition_plan(64, inf, inf, 0.1, 4, 0.1),
        lambda: paramcalc.trevisan_composition_plan(64, 40, 40, 0.1, 2, 0.1),
        lambda: paramcalc.subnormalized_transfer(nan),
        lambda: paramcalc.classical_markov_transfer((5, 5), 1.0, 2, 1),
        lambda: paramcalc.quantum_markov_transfer((5, nan), 0.1, 2, 1),
        lambda: trevisan_params(8, 3, 1.5),
        lambda: paramcalc.deor_quantum_corollary(8, "4", 4, 2),
        lambda: paramcalc.raz_quantum_feasible(64, 64, 40, 40, 1, "0.1"),
        lambda: paramcalc.trevisan_composition_plan(64, 40, 40, "0.1", 4, 0.1),
        lambda: paramcalc.subnormalized_transfer("0.1"),
        lambda: paramcalc.classical_markov_transfer(("5", 5), 0.1, 2, 1),
        lambda: paramcalc.classical_markov_transfer((5, 5), "0.1", 2, 1),
        lambda: paramcalc.SecurityAssessment(paramcalc.SecurityModel.PLAIN, (1.0, 1.0), "0.5", 1),
        lambda: paramcalc.SmoothParams("a", 0, 0, 0),
        lambda: paramcalc.SecurityAssessment(paramcalc.SecurityModel.PLAIN, 5.0, 0.5, 1),
        lambda: paramcalc.classical_markov_transfer(5.0, 0.1, 2, 1),
    ]
    for call in calls:
        try:
            call()
        except MarkovExtError:
            continue
        print("accepted")
    print("mpmath" in sys.modules)
""")


def test_refused_calculus_calls_do_not_load_mpmath():
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", _REFUSED_CALCULUS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_the_suites_do_not_import_the_cli():
    env = {**os.environ, "PYTHONPATH": SRC}
    code = "import sys, markovext.suites; print('markovext.cli' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
