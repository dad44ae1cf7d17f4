"""Command-line front end.

Subcommands: ``plan`` (security-parameter calculus), ``extract`` (run an
extractor over raw-bit files), ``verify`` (seeded numeric verification
suites), ``report`` (re-render a report as json or csv). ``main`` builds the
parser once per process and runs each request through the ``cmd_<subcommand>``
function that the module holds at call time, so a wrapper installed later runs.

Exit codes: 0 success, 2 usage (also a file that cannot be read or written),
3 domain (also a report or descriptor file holding NaN or Infinity, or not
UTF-8), 4 resource budget, 5 verification failure. All output is
deterministic given flags and seed and is strict JSON; reports carry an
explicit schema version and a null timing field.

Raw-bit files are packed little-endian: bit i of the string is bit (i % 8)
of byte (i // 8). CSV reports have two columns, ``key`` (dotted path, list
indices numeric) and ``value`` (JSON-encoded leaf), which makes the
json -> csv -> json round trip lossless.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
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

_FAMILIES = {"deor": "DEOR", "inner-product": "InnerProduct", "parity": "ParitySeeded",
             "trevisan": "TrevisanSeeded", "composed": "Composed"}  # ExtractorFamily values


def build_descriptor(family: str, n1: int, n2: Optional[int], m: int,
                     eps: Optional[float] = None):
    """The descriptor of a CLI family, built by `from_dict` as a descriptor file is. An n2 of
    None takes the family's own n2 (n1, or the seed length of trevisan and composed)."""
    if family == "composed":
        d = {"params": {"outer": {"family": "ParitySeeded", "n1": n1, "n2": m},
                        "inner": {"family": "DEOR", "n1": n1, "m": m}}}
    else:
        d = {"n1": n1, "m": m, "params": {}}
    if family == "parity" and n2 is None:
        n2 = n1
    if n2 is not None:
        d["n2"] = n2
    if eps is not None:
        d["params"]["eps"] = eps
    return extractors.ExtractorDescriptor.from_dict({"family": _FAMILIES.get(family, family), **d})


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
    k1, k2, m, l, model = args.k1, args.k2, args.m, args.l, args.model
    if not (0 <= k1 <= args.n1 and 0 <= k2 <= args.n2):
        raise DomainError(f"need 0 <= k1 <= n1 and 0 <= k2 <= n2, got k1={k1}, k2={k2}")
    if args.family in ("raz", "trevisan-composition") and (model != "quantum-markov" or l != 2):
        raise DomainError(f"{args.family} is stated for the quantum-markov model with two "
                          f"sources; got --model {model}, --l {l}")
    quantum = paramcalc.SecurityModel.QUANTUM_MARKOV.value
    if args.family == "raz":
        if args.delta_prime is None:
            raise DomainError("raz planning requires --delta-prime")
        rep = paramcalc.raz_quantum_feasible(args.n1, args.n2, k1, k2, m, args.delta_prime)
        return {**dataclasses.asdict(rep), "model": quantum, "family": "raz",
                "required_k": [k1, k2], "m": m}
    if args.family == "trevisan-composition":
        if args.eps is None or args.outer_m is None or args.outer_eps is None:
            raise DomainError(
                "trevisan-composition planning requires --eps, --outer-m, --outer-eps"
            )
        plan = paramcalc.trevisan_composition_plan(
            args.n1, k1, k2, args.eps, args.outer_m, args.outer_eps
        )
        return {**dataclasses.asdict(plan), "model": quantum, "family": "trevisan-composition"}

    law = build_descriptor(args.family, args.n1, args.n2, m).error_law
    ks = [k1, k2] + [k1] * (l - 2)
    if model == "plain":  # direct laws: no self-consistent solve
        error = law(k1, k2)
    elif model == "subnormalized":
        error = paramcalc.subnormalized_transfer(law(k1 + 1, k2 + 1))
    else:
        if args.eps is not None:
            # user-supplied base error: asserted entropies are the base thresholds
            eps, base_k = args.eps, ks
        elif l != 2:
            raise DomainError(f"the self-consistent solve is for l = 2; pass --eps for l={l}")
        else:
            eps = paramcalc.solve_self_consistent_error(law, k1, k2)
            base_k = [k1 + math.log2(eps), k2 + math.log2(eps)]
        if eps < 1.0:
            transfer = (paramcalc.classical_markov_transfer if model == "classical-markov"
                        else paramcalc.quantum_markov_transfer)
            a = transfer(base_k, eps, l, m, {1, 2})
            if model == "smooth-markov":
                smooth = paramcalc.SmoothParams(args.delta1, args.delta2, args.eps1, args.eps2)
                a = paramcalc.smooth_transfer(a, smooth)
            return a.to_dict()
        error = 1.0
    return paramcalc.SecurityAssessment(
        _MODELS[model], l, tuple(ks), error, m, frozenset({1, 2})).to_dict()


def cmd_plan(args) -> int:
    request = {k: v for k, v in vars(args).items() if k not in ("cmd", "out")}
    report = {
        "version": REPORT_VERSION,
        "request": {**request, "command": "plan"},
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
        ext = build_descriptor(args.family, args.n1, args.n2, args.m, args.eps)
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


def _suite_classical(seeds):
    ext = extractors.deor_descriptor(6, 2)
    for s in seeds:
        table = sources.build_markov_table(6, 6, 2, 5.0, 5.0, s)
        k1p = sources.hmin_conditional(table, 1)
        k2p = sources.hmin_conditional(table, 2)
        eps = paramcalc.solve_self_consistent_error(ext.error_law, k1p, k2p)
        dist = sources.statistical_distance_from_uniform(ext, table, conditioned_on=("Z",))
        yield s, dist, min(1.0, 3.0 * eps)


def _suite_quantum(seeds):
    ext = extractors.deor_descriptor(3, 2)
    for s in seeds:
        rng = np.random.default_rng(s)
        state = qsim.random_ccq_markov_state(3, 3, int(rng.integers(1, 4)), 2, rng)
        chk = qsim.verify_quantum_bound(state, ext, *state.certified_k)
        yield s, chk.distance, chk.bound


def _suite_distinguishing(seeds):
    ext = extractors.deor_descriptor(3, 2)
    for s in seeds:
        joint = sources.random_joint(3, 3, np.random.default_rng(s))
        stat = sources.distinguishing_event_statistic(ext, joint)
        yield s, stat, sources.conditional_distance_given_guess(ext, joint)


def _suite_monotonicity(seeds):
    ext = extractors.deor_descriptor(2, 1)
    for s in seeds:
        rng = np.random.default_rng(s)
        state = qsim.random_ccq_markov_state(2, 2, int(rng.integers(1, 3)), 2, rng)
        kraus = qsim.random_channel(state.c_dim, int(rng.integers(1, 4)), rng)
        chk = qsim.channel_monotonicity_check(state, ext, kraus)
        yield s, chk.after, chk.before


def _suite_composition(seeds):
    ext = build_descriptor("composed", 8, 8, 3)
    bound = ext.error_law(7.0, 7.0)
    for s in seeds:
        rng = np.random.default_rng(s)
        s1 = sources.random_flat_source(8, 7, rng)
        s2 = sources.random_flat_source(8, 7, rng)
        table = sources.MarkovSourceTable.from_flat_pair(s1, s2)
        yield s, sources.statistical_distance_from_uniform(ext, table, conditioned_on=()), bound


def cmd_verify(args) -> int:
    """Run the suite ``_suite_<name>``, a generator of (seed, distance, bound) per instance."""
    if args.budget < 1 or args.budget > MAX_VERIFY_BUDGET:
        raise ResourceBudgetError(
            f"budget must lie in [1, {MAX_VERIFY_BUDGET}], got {args.budget}"
        )
    suite = globals()["_suite_" + args.suite]
    records = [_record(*r) for r in suite(range(args.seed, args.seed + args.budget))]
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
    ext.add_argument("--m", type=int, default=1)
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
    except (MarkovExtError, json.JSONDecodeError, UnicodeDecodeError) as e:
        # any other malformed request, a file that is not UTF-8 included
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
