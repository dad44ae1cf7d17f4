"""Command-line front end.

Subcommands: ``plan`` (security-parameter calculus), ``extract`` (run an
extractor over raw-bit files), ``verify`` (seeded numeric verification
suites), ``report`` (re-render a report as json or csv). ``main`` builds the
parser once per process and runs each request through the ``cmd_<subcommand>``
function that the module holds at call time, so a wrapper installed later runs.

Exit codes: 0 success, 2 usage (also a file that cannot be read or written),
3 domain (also a report or descriptor file holding NaN or Infinity), 4
resource budget, 5 verification failure. All output is deterministic given
flags and seed and is strict JSON; reports carry an explicit schema version
and a null timing field.

Raw-bit files are packed little-endian: bit i of the string is bit (i % 8)
of byte (i // 8). CSV reports have two columns, ``key`` (dotted path, list
indices numeric) and ``value`` (JSON-encoded leaf), which makes the
json -> csv -> json round trip lossless.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from typing import Optional

import numpy as np

from . import __version__
from .errors import DomainError, MarkovExtError, ResourceBudgetError
from .bitfield import BitString
from . import extractors, paramcalc, qsim, sources

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_RESOURCE = 4
EXIT_VERIFY = 5

REPORT_VERSION = "1"
HOLDS_TOL = 1e-9
MAX_VERIFY_BUDGET = 5000

VERIFY_SUITES = ("classical", "quantum", "distinguishing", "monotonicity", "composition")


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------

def build_descriptor(family: str, n1: int, n2: Optional[int], m: int,
                     eps: Optional[float] = None):
    """The descriptor of a CLI family. An n2 of None takes the family's own n2
    (n1, or the seed length of trevisan and composed); a given n2 must equal it."""
    if family in ("inner-product", "parity") and m != 1:
        raise DomainError(f"{family} outputs one bit; got m={m}")
    if family == "deor":
        ext = extractors.deor_descriptor(n1, m)
    elif family == "inner-product":
        ext = extractors.inner_product_descriptor(n1)
    elif family == "parity":
        ext = extractors.parity_seeded_descriptor(n1, n1 if n2 is None else n2)
    elif family == "trevisan":
        if eps is None:
            raise DomainError("trevisan requires --eps")
        ext = extractors.trevisan_descriptor(n1, m, eps)
    elif family == "composed":
        inner = extractors.deor_descriptor(n1, m)
        outer = extractors.parity_seeded_descriptor(n1, m)
        ext = extractors.compose(outer, inner)
    else:
        raise DomainError(f"unknown extractor family {family!r}")
    if n2 is not None and n2 != ext.n2:
        raise DomainError(f"{family} with n1={n1} takes n2={ext.n2}, got n2={n2}")
    return ext


def _reject_constant(name: str):
    raise DomainError(f"{name} is not a JSON number")


def _loads(text: str):
    """json.loads that refuses NaN and +-Infinity, which strict JSON does not have."""
    return json.loads(text, parse_constant=_reject_constant)


def _dumps(value, **kwargs) -> str:
    try:
        return json.dumps(value, allow_nan=False, **kwargs)
    except ValueError as e:
        raise DomainError(f"cannot write strict JSON: {e}") from None


def descriptor_from_file(path: str):
    with open(path) as fh:
        d = _loads(fh.read())
    return extractors.ExtractorDescriptor.from_dict(d)


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

_MODELS = {
    "plain": paramcalc.SecurityModel.PLAIN,
    "classical-markov": paramcalc.SecurityModel.CLASSICAL_MARKOV,
    "quantum-markov": paramcalc.SecurityModel.QUANTUM_MARKOV,
    "smooth-markov": paramcalc.SecurityModel.SMOOTH_MARKOV,
    "subnormalized": paramcalc.SecurityModel.SUBNORMALIZED,
}


def _plan_assessment(args) -> dict:
    if not (0 <= args.k1 <= args.n1 and 0 <= args.k2 <= args.n2):
        raise DomainError(f"need 0 <= k1 <= n1 and 0 <= k2 <= n2, got k1={args.k1}, k2={args.k2}")
    if args.family == "raz":
        if args.delta_prime is None:
            raise DomainError("raz planning requires --delta-prime")
        rep = paramcalc.raz_quantum_feasible(
            args.n1, args.n2, args.k1, args.k2, args.m, args.delta_prime
        )
        return {
            "model": paramcalc.SecurityModel.QUANTUM_MARKOV.value,
            "family": "raz",
            "feasible": rep.feasible,
            "error": rep.error,
            "violated": list(rep.violated),
            "required_k": [args.k1, args.k2],
            "m": args.m,
        }
    if args.family == "trevisan-composition":
        if args.eps is None or args.outer_m is None or args.outer_eps is None:
            raise DomainError(
                "trevisan-composition planning requires --eps, --outer-m, --outer-eps"
            )
        plan = paramcalc.trevisan_composition_plan(
            args.n1, args.k1, args.k2, args.eps, args.outer_m, args.outer_eps
        )
        return {
            "model": paramcalc.SecurityModel.QUANTUM_MARKOV.value,
            "family": "trevisan-composition",
            "feasible": plan.feasible,
            "m_inner": plan.m_inner,
            "m_total": plan.m_total,
            "error": plan.error,
            "violated": list(plan.violated),
            "required_k": list(plan.required_k),
        }

    law = build_descriptor(args.family, args.n1, args.n2, args.m).error_law
    k1, k2, m, l = args.k1, args.k2, args.m, args.l
    model = args.model
    if model in ("plain", "smooth-markov", "subnormalized") and l != 2:
        raise DomainError(f"the {model} model is stated for two sources; got l={l}")
    if model in ("plain", "subnormalized"):  # direct laws: no self-consistent solve
        if model == "plain":
            error = law(k1, k2)
        else:
            error = paramcalc.subnormalized_transfer(law(k1 + 1, k2 + 1))
        a = paramcalc.SecurityAssessment(
            model=_MODELS[model],
            l=2,
            required_k=(k1, k2),
            error=error,
            m=m,
            strong_in=frozenset({1, 2}),
        )
        return a.to_dict()

    if args.eps is not None:
        # user-supplied base error: asserted entropies are the base thresholds
        eps = args.eps
        base_k = [k1, k2] + [k1] * (l - 2)
    else:
        if l != 2:
            raise DomainError(f"the self-consistent solve is for l = 2; pass --eps for l={l}")
        eps = paramcalc.solve_self_consistent_error(law, k1, k2)
        base_k = [k1 + math.log2(eps), k2 + math.log2(eps)]
    if eps >= 1.0:
        return {
            "model": _MODELS[model].value,
            "l": l,
            "required_k": [k1, k2],
            "error": 1.0,
            "m": m,
            "strong_in": [1, 2],
        }
    if model == "classical-markov":
        return paramcalc.classical_markov_transfer(base_k, eps, l, m, {1, 2}).to_dict()
    if model == "quantum-markov":
        return paramcalc.quantum_markov_transfer(base_k, eps, l, m, {1, 2}).to_dict()
    if model == "smooth-markov":
        base = paramcalc.quantum_markov_transfer(base_k[:2], eps, 2, m, {1, 2})
        smooth = paramcalc.SmoothParams(args.delta1, args.delta2, args.eps1, args.eps2)
        return paramcalc.smooth_transfer(base, smooth).to_dict()
    raise DomainError(f"unknown model {model!r}")


def cmd_plan(args) -> int:
    request = {
        "command": "plan",
        "model": args.model,
        "family": args.family,
        "n1": args.n1,
        "n2": args.n2,
        "m": args.m,
        "k1": args.k1,
        "k2": args.k2,
        "l": args.l,
        "eps": args.eps,
        "delta1": args.delta1,
        "delta2": args.delta2,
        "eps1": args.eps1,
        "eps2": args.eps2,
        "delta_prime": args.delta_prime,
    }
    report = {
        "version": REPORT_VERSION,
        "request": request,
        "assessment": _plan_assessment(args),
        "records": [],
        "timing": None,
    }
    _emit(report, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------

def _read_bits(path: str, length: int) -> BitString:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) * 8 < length:
        raise DomainError(f"{path} supplies {len(data) * 8} bits, need {length}")
    return BitString.from_bytes(data, length)


def cmd_extract(args) -> int:
    if args.descriptor is not None:
        ext = descriptor_from_file(args.descriptor)
    else:
        if args.n1 is None:
            raise DomainError("extract needs --n1 (or a --descriptor file)")
        m = args.m if args.m is not None else 1
        ext = build_descriptor(args.family, args.n1, args.n2, m, args.eps)
    x1 = _read_bits(args.in1, ext.n1)
    x2 = _read_bits(args.in2, ext.n2)
    y = ext.extract(x1, x2)
    with open(args.out, "wb") as fh:
        fh.write(y.to_bytes())
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _record(seed: int, distance: float, bound: float) -> dict:
    return {
        "seed": seed,
        "distance": float(distance),
        "bound": float(bound),
        "holds": bool(distance <= bound + HOLDS_TOL),
    }


def _suite_classical(seed: int, budget: int):
    ext = extractors.deor_descriptor(6, 2)
    records = []
    for i in range(budget):
        s = seed + i
        table = sources.build_markov_table(6, 6, 2, 5.0, 5.0, s)
        k1p = sources.hmin_conditional(table, 1)
        k2p = sources.hmin_conditional(table, 2)
        eps = paramcalc.solve_self_consistent_error(ext.error_law, k1p, k2p)
        dist = sources.statistical_distance_from_uniform(ext, table, conditioned_on=("Z",))
        records.append(_record(s, dist, min(1.0, 3.0 * eps)))
    return records


def _suite_quantum(seed: int, budget: int):
    ext = extractors.deor_descriptor(3, 2)
    records = []
    for i in range(budget):
        s = seed + i
        rng = np.random.default_rng(s)
        state = qsim.random_ccq_markov_state(3, 3, int(rng.integers(1, 4)), 2, rng)
        chk = qsim.verify_quantum_bound(state, ext, *state.certified_k)
        records.append(_record(s, chk.distance, chk.bound))
    return records


def _suite_distinguishing(seed: int, budget: int):
    ext = extractors.deor_descriptor(3, 2)
    records = []
    for i in range(budget):
        s = seed + i
        joint = sources.random_joint(3, 3, np.random.default_rng(s))
        stat = sources.distinguishing_event_statistic(ext, joint)
        dist = sources.conditional_distance_given_guess(ext, joint)
        records.append(_record(s, stat, dist))
    return records


def _suite_monotonicity(seed: int, budget: int):
    ext = extractors.deor_descriptor(2, 1)
    records = []
    for i in range(budget):
        s = seed + i
        rng = np.random.default_rng(s)
        state = qsim.random_ccq_markov_state(2, 2, int(rng.integers(1, 3)), 2, rng)
        kraus = qsim.random_channel(state.c_dim, int(rng.integers(1, 4)), rng)
        chk = qsim.channel_monotonicity_check(state, ext, kraus)
        records.append(_record(s, chk.after, chk.before))
    return records


def _suite_composition(seed: int, budget: int):
    ext = build_descriptor("composed", 8, 8, 3)
    bound = ext.error_law(7.0, 7.0)
    records = []
    for i in range(budget):
        s = seed + i
        rng = np.random.default_rng(s)
        s1 = sources.random_flat_source(8, 7, rng)
        s2 = sources.random_flat_source(8, 7, rng)
        table = sources.MarkovSourceTable.from_flat_pair(s1, s2)
        dist = sources.statistical_distance_from_uniform(ext, table, conditioned_on=())
        records.append(_record(s, dist, bound))
    return records


_SUITE_RUNNERS = {
    "classical": _suite_classical,
    "quantum": _suite_quantum,
    "distinguishing": _suite_distinguishing,
    "monotonicity": _suite_monotonicity,
    "composition": _suite_composition,
}


def cmd_verify(args) -> int:
    if args.budget < 1 or args.budget > MAX_VERIFY_BUDGET:
        raise ResourceBudgetError(
            f"budget must lie in [1, {MAX_VERIFY_BUDGET}], got {args.budget}"
        )
    records = _SUITE_RUNNERS[args.suite](args.seed, args.budget)
    report = {
        "version": REPORT_VERSION,
        "request": {"command": "verify", "suite": args.suite, "seed": args.seed, "budget": args.budget},
        "assessment": None,
        "records": records,
        "timing": None,
    }
    _emit(report, args.out)
    return EXIT_OK if all(r["holds"] for r in records) else EXIT_VERIFY


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def _flatten(obj, prefix=""):
    if isinstance(obj, dict) and obj:
        for k in sorted(obj):
            yield from _flatten(obj[k], f"{prefix}{k}.")
    elif isinstance(obj, list) and obj:
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), obj


def report_to_csv(report: dict) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["key", "value"])
    for key, value in _flatten(report):
        w.writerow([key, _dumps(value)])
    return buf.getvalue()


def csv_to_report(text: str) -> dict:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["key", "value"]:
        raise DomainError("csv report must start with a 'key,value' header")
    root: dict = {}
    for key, raw in rows[1:]:
        parts = key.split(".")
        node = root
        for j, part in enumerate(parts[:-1]):
            node = node.setdefault(part, {})
        node[parts[-1]] = _loads(raw)

    def densify(node):
        if not isinstance(node, dict):
            return node
        if node and all(k.isdigit() for k in node):
            return [densify(node[str(i)]) for i in range(len(node))]
        return {k: densify(v) for k, v in node.items()}

    return densify(root)


def report_to_json(report: dict) -> str:
    return _dumps(report, indent=2, sort_keys=True) + "\n"


def _emit(report: dict, out: Optional[str]):
    text = report_to_json(report)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_report(args) -> int:
    with open(args.path) as fh:
        text = fh.read()
    try:
        report = _loads(text)
    except json.JSONDecodeError:
        report = csv_to_report(text)
    if args.format == "json":
        sys.stdout.write(report_to_json(report))
    else:
        sys.stdout.write(report_to_csv(report))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _finite_float(text: str) -> float:
    """argparse type for the real-valued flags: any float except nan and +-inf."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="xtract",
        description="Plan, run and verify multi-source randomness extractors.",
    )
    p.add_argument("--version", action="version", version=f"xtract {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True)

    plan = sub.add_parser("plan", help="security-parameter calculus for a request")
    plan.add_argument("--model", required=True, choices=list(_MODELS))
    plan.add_argument("--family", required=True, choices=[
        "deor", "inner-product", "raz", "trevisan-composition"])
    plan.add_argument("--n1", type=int, required=True)
    plan.add_argument("--n2", type=int, required=True)
    plan.add_argument("--m", type=int, required=True)
    plan.add_argument("--k1", type=_finite_float, required=True)
    plan.add_argument("--k2", type=_finite_float, required=True)
    plan.add_argument("--l", type=int, default=2, help="source count (calculus only for l > 2)")
    plan.add_argument("--eps", type=_finite_float, default=None,
                      help="base extractor error; solved self-consistently when omitted")
    plan.add_argument("--delta1", type=_finite_float, default=0.0)
    plan.add_argument("--delta2", type=_finite_float, default=0.0)
    plan.add_argument("--eps1", type=_finite_float, default=0.0)
    plan.add_argument("--eps2", type=_finite_float, default=0.0)
    plan.add_argument("--delta-prime", type=_finite_float, default=None)
    plan.add_argument("--outer-m", type=int, default=None)
    plan.add_argument("--outer-eps", type=_finite_float, default=None)
    plan.add_argument("--out", default=None, help="write the report here instead of stdout")

    ext = sub.add_parser("extract", help="run an extractor over raw-bit files")
    ext.add_argument("in1")
    ext.add_argument("in2")
    ext.add_argument("out")
    ext.add_argument("--descriptor", default=None, help="descriptor JSON file (overrides flags)")
    ext.add_argument("--family", default="deor", choices=[
        "deor", "inner-product", "parity", "trevisan", "composed"])
    ext.add_argument("--n1", type=int, default=None)
    ext.add_argument("--n2", type=int, default=None)
    ext.add_argument("--m", type=int, default=None)
    ext.add_argument("--eps", type=_finite_float, default=None)

    ver = sub.add_parser("verify", help="run a seeded verification suite")
    ver.add_argument("--suite", required=True, choices=list(VERIFY_SUITES))
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--budget", type=int, default=20, help="number of instances")
    ver.add_argument("--out", default=None, help="write the report here instead of stdout")

    rep = sub.add_parser("report", help="re-render a report")
    rep.add_argument("path")
    rep.add_argument("--format", required=True, choices=["json", "csv"])

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.cmd](args)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceBudgetError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except (MarkovExtError, json.JSONDecodeError) as e:  # any other malformed request
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
