"""Command-line front end.

Subcommands: ``plan`` (security-parameter calculus), ``extract`` (run an
extractor over raw-bit files), ``verify`` (seeded numeric verification
suites), ``report`` (re-render a report as json or csv). It holds no security
rule: a plan's guarantee is one ``paramcalc.assessment`` call, and a verify
record's verdict the ``holds`` of the ``qsim.BoundCheck`` its suite yields.
``main`` builds the parser once per process, parses a request with the parser
of the subcommand it names, and runs it through the ``cmd_<subcommand>``
function that the module holds at call time, so a wrapper installed later runs.

Exit codes: 0 success, 2 usage (also a file that cannot be read or written),
3 domain (also a report or descriptor file holding NaN or Infinity, or not
UTF-8), 4 resource budget, 5 verification failure. All output is
deterministic given flags and seed and is strict JSON; reports carry an
explicit schema version and a null timing field.

Raw-bit files are packed little-endian: bit i of the string is bit (i % 8)
of byte (i // 8). CSV reports have two columns, ``key`` (dotted path, list
indices numeric) and ``value`` (JSON-encoded leaf; an empty object or list is
a leaf). The CSV form takes a report that is a JSON object in which no key is
empty or holds ``.`` or a carriage return, no non-empty object has only digit
keys, and no key or value text is longer than ``csv.field_size_limit()``; any
other report exits 3. The writer owns these rules: the reader takes a CSV text
only if the writer gives back the keys it read, each as often. So json -> csv
-> json gives the report back, and csv -> json -> csv the rows, up to their
order and the spelling of each JSON value.
"""
from __future__ import annotations

import argparse
import collections
import csv
import dataclasses
import functools
import io
import json
import math
import sys
from typing import Optional

from . import __version__
from .errors import DomainError, MarkovExtError, ResourceBudgetError
from .bitfield import BitString
from . import extractors, paramcalc

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_RESOURCE = 4
EXIT_VERIFY = 5

REPORT_VERSION = "1"
MAX_VERIFY_BUDGET = 5000
MAX_PLAN_SOURCES = 5000  # --l ceiling: a plan holds one threshold per source

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

    ext = build_descriptor(args.family, args.n1, args.n2, m)
    if l < 2:
        raise DomainError(f"--l (the number of sources) must be at least 2, got {l}")
    if l > MAX_PLAN_SOURCES:
        raise ResourceBudgetError(f"--l must be at most {MAX_PLAN_SOURCES}, got {l}")
    smoothing = (args.delta1, args.delta2, args.eps1, args.eps2)
    smooth = (paramcalc.SmoothParams(*smoothing) if model == "smooth-markov" or any(smoothing)
              else None)
    ks = [k1, k2] + [k1] * (l - 2)
    return paramcalc.assessment(_MODELS[model], ext, ks, args.eps, smooth).to_dict()


def cmd_plan(args) -> int:
    request = {k: v for k, v in vars(args).items() if k not in ("cmd", "out")}
    _emit(_report({**request, "command": "plan"}, _plan_assessment(args), []), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------

def _read_bits(path: str, length: int) -> BitString:
    with open(path, "rb") as fh:
        data = fh.read((length + 7) // 8)
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

def cmd_verify(args) -> int:
    """Run the suite ``suites.<name>``, a generator of (seed, qsim.BoundCheck) per instance,
    and write each check's distance, bound and verdict. The suites need numpy, so they load
    here and not with the CLI."""
    if args.budget < 1 or args.budget > MAX_VERIFY_BUDGET:
        raise ResourceBudgetError(
            f"budget must lie in [1, {MAX_VERIFY_BUDGET}], got {args.budget}"
        )
    from . import suites

    suite = getattr(suites, args.suite)
    records = [{"seed": seed, "distance": float(check.distance), "bound": float(check.bound),
                "holds": bool(check.holds)}
               for seed, check in suite(range(args.seed, args.seed + args.budget))]
    request = {"command": "verify", "suite": args.suite, "seed": args.seed, "budget": args.budget}
    _emit(_report(request, None, records), args.out)
    return EXIT_OK if all(r["holds"] for r in records) else EXIT_VERIFY


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def _flatten(node, prefix=""):
    """(dotted key, JSON text) rows of a report object; an empty dict or list is a leaf.
    Raises DomainError for what `csv_to_report` would not read back as written."""
    if isinstance(node, list) and prefix:
        items = [(str(i), v) for i, v in enumerate(node)]
    elif not isinstance(node, dict):
        raise DomainError("a csv report must be a JSON object")
    elif node and all(k.isdigit() for k in node):  # csv_to_report would read a list
        raise DomainError(f"csv report object {prefix!r} has only digit keys")
    else:
        items = sorted(node.items())
    limit = csv.field_size_limit()
    for k, v in items:
        if not k or "." in k or "\r" in k:
            raise DomainError(f"csv report key {prefix + k!r} is empty or holds '.' or '\\r'")
        if isinstance(v, (dict, list)) and v:
            yield from _flatten(v, f"{prefix}{k}.")
        else:
            key, text = prefix + k, _dumps(v)
            if max(len(key), len(text)) > limit:
                raise DomainError(f"csv report field of {key!r} is beyond csv.field_size_limit()")
            yield key, text


def report_to_csv(report: dict) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["key", "value"])
    w.writerows(_flatten(report))
    return buf.getvalue()


def _densify(node):
    """`node` with every object whose keys are exactly 0..n-1 (n >= 1) read as a list."""
    if not isinstance(node, dict):
        return node
    if node and node.keys() == {str(i) for i in range(len(node))}:
        return [_densify(node[str(i)]) for i in range(len(node))]
    return {k: _densify(v) for k, v in node.items()}


def csv_to_report(text: str) -> dict:
    """The report a CSV text holds. The rows are read into a tree, and the text is taken
    only when `_flatten` writes that tree back with the keys read, each as often."""
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as e:  # a field beyond csv.field_size_limit()
        raise DomainError(f"csv report: {e}") from None
    if not rows or rows[0] != ["key", "value"]:
        raise DomainError("csv report must start with a 'key,value' header")
    root = {}
    for row in rows[1:]:
        if len(row) != 2:
            raise DomainError(f"csv report row must hold a key and a value, got {row!r}")
        key, raw = row
        *path, last = key.split(".")
        node = root
        for part in path:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise DomainError(f"csv report key {key!r} extends a leaf")
        node[last] = _loads(raw)
    report = _densify(root)
    read = collections.Counter(key for key, _ in rows[1:])
    written = collections.Counter(key for key, _ in _flatten(report))
    if read != written:
        raise DomainError(f"csv report keys {sorted((read - written) + (written - read))} "
                          "are given twice, extended or not written as read")
    return report


def _report(request: dict, assessment: Optional[dict], records: list) -> dict:
    """The report object that plan and verify write, at schema REPORT_VERSION; timing is null."""
    return {"version": REPORT_VERSION, "request": request, "assessment": assessment,
            "records": records, "timing": None}


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


def _seed(text: str) -> int:
    """argparse type for --seed: a non-negative integer, as numpy's seeding takes."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="xtract",
        description="Plan, run and verify multi-source randomness extractors.",
    )
    p.add_argument("--version", action="version", version=f"xtract {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True)
    p.commands = sub.choices  # name -> subcommand parser, read by main

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
    ver.add_argument("--seed", type=_seed, default=0)
    ver.add_argument("--budget", type=int, default=20, help="number of instances")
    ver.add_argument("--out", default=None, help="write the report here instead of stdout")

    rep = sub.add_parser("report", help="re-render a report")
    rep.add_argument("path")
    rep.add_argument("--format", required=True, choices=["json", "csv"])

    return p


def main(argv=None) -> int:
    """A request whose first word names a subcommand is parsed by that subcommand's parser
    alone, the parser the full one would hand the rest to; any other argv (``--version``,
    ``-h``, none, an unknown command) goes to the full parser."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args = command.parse_args(argv[1:], argparse.Namespace(cmd=argv[0]))
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
