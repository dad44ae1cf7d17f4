"""Per-layer tracing from outside the program.

`install()` replaces public entry points of `markovext` (and
`numpy.linalg.eigvalsh`) by timing wrappers, at every module attribute that
holds them, so names other modules imported are traced too. Each wrapped call
inside an op opens a span with its name, start, end, parent and op id. Spans
of the hot leaves (GF multiplication, `extract`, eigensolves, density checks)
are too many to keep one by one: they are folded into their parent span as a
call count and a time. Spans stay in memory and are written out at exit.

A layer's self time is its span's duration minus the time of its child spans.
Every metric is per op except ratios and `sources.enumeration_bits_max`.
"""
from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

from markovext import bitfield, cli, extractors, paramcalc, qsim, sources

# (owner, attribute, metric family); the span name is "<family>:<attribute>".
TRACED = [
    (bitfield, "gf_mul", "bitfield.gf_mul"),
    (extractors.ExtractorDescriptor, "extract", "extractors.extract"),
    *[(extractors, name, "extractors.descriptor_build") for name in (
        "deor_descriptor", "inner_product_descriptor", "parity_seeded_descriptor",
        "trevisan_descriptor", "compose", "weak_design_build")],
    (sources, "extractor_output_table", "sources.output_table"),
    *[(sources, name, "sources.distance") for name in (
        "statistical_distance_from_uniform", "distinguishing_event_statistic",
        "conditional_distance_given_guess")],
    *[(sources, name, "sources.source_build") for name in (
        "build_markov_table", "random_flat_source", "random_joint", "hmin_conditional")],
    (sources.MarkovSourceTable, "from_flat_pair", "sources.source_build"),
    (paramcalc, "solve_self_consistent_error", "paramcalc.solve"),
    *[(paramcalc, name, "paramcalc.transfer") for name in (
        "classical_markov_transfer", "quantum_markov_transfer", "smooth_transfer",
        "subnormalized_transfer", "deor_quantum_corollary", "raz_quantum_feasible",
        "trevisan_composition_plan")],
    (qsim, "verify_quantum_bound", "qsim.verify"),
    (qsim, "channel_monotonicity_check", "qsim.monotonicity"),
    (qsim, "markov_cmi", "qsim.cmi"),
    *[(qsim, name, "qsim.dense") for name in (
        "assemble", "apply_extractor_channel", "trace_distance",
        "conditional_mutual_information", "partial_trace", "tensor", "von_neumann_entropy")],
    (qsim.DensityOperator, "__post_init__", "qsim.density_check"),
    *[(qsim, name, "qsim.state_build") for name in (
        "random_ccq_markov_state", "random_channel", "random_density", "from_markov_table")],
    (np.linalg, "eigvalsh", "qsim.eigvalsh"),
    (cli, "main", "cli.parse"),
    *[(cli, name, "cli.command") for name in (
        "cmd_plan", "cmd_extract", "cmd_verify", "cmd_report",
        "build_descriptor", "descriptor_from_file")],
    *[(cli, name, "cli.emit") for name in ("report_to_json", "report_to_csv")],
]

# Only counted, never timed: the error law, evaluated ~200 times per solve.
COUNTED = [(extractors, "deor_error", "extractors.law_eval")]

HOT = {"bitfield.gf_mul", "extractors.extract", "qsim.eigvalsh", "qsim.density_check"}


def _enumeration_bits(family: str, args) -> float | None:
    """Support size in bits that an exact oracle enumerates, from its arguments."""
    if family == "sources.output_table":
        return args[1] + args[2]
    if family == "sources.distance":
        if len(args) > 1 and isinstance(args[1], sources.MarkovSourceTable):
            table = args[1]
            return table.n1 + table.n2 + math.log2(table.z_card)
        return 2 * (args[0].n1 + args[0].n2)
    return None


class Tracer:
    def __init__(self):
        self.op_id = None
        self.stack = []  # open frames: [family, start, child_s, span_index, extract_calls, law_evals]
        self.spans = []  # [name, start, end, parent_index, op_id, folded {name: [calls, s]}]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.op_s = 0.0
        self.ops = 0
        self.covered_s = 0.0
        self.table_hits = 0
        self.solve_law_evals = 0
        self.enum_bits_max = 0.0
        self.eig_flops = 0
        self._patched = []

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "markovext" or name.startswith("markovext.")]
        for owner, attr, family in TRACED + COUNTED:
            raw = owner.__dict__[attr]
            is_cm = isinstance(raw, classmethod)
            fn = raw.__func__ if is_cm else raw
            if (owner, attr, family) in COUNTED:
                wrapper = self._counter(fn, family)
            else:
                wrapper = self._timer(fn, family, f"{family}:{attr}")
            self._patch(owner, attr, raw, classmethod(wrapper) if is_cm else wrapper)
            if isinstance(owner, type) or owner is np.linalg:
                continue
            for mod in modules:  # names bound by `from ... import`
                if mod is not owner and mod.__dict__.get(attr) is fn:
                    self._patch(mod, attr, fn, wrapper)

    def uninstall(self):
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def _patch(self, owner, attr, raw, wrapper):
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, wrapper)

    def _counter(self, fn, family):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[family] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timer(self, fn, family, name):
        tracer = self
        hot = family in HOT
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            stack = tracer.stack
            if hot:
                index = -1
            else:
                index = len(tracer.spans)
                parent = tracer._recorded_parent()
                tracer.spans.append([name, 0.0, 0.0, parent, tracer.op_id, None])
            frame = [family, 0.0, 0.0, index,
                     tracer.calls["extractors.extract"], tracer.calls["extractors.law_eval"]]
            stack.append(frame)
            frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._close(frame, end, name, args)

        return wrapper

    # -- span bookkeeping ---------------------------------------------------

    def _recorded_parent(self):
        for frame in reversed(self.stack):
            if frame[3] >= 0:
                return frame[3]
        return None

    def _close(self, frame, end, name, args):
        family, start, child_s, index = frame[0], frame[1], frame[2], frame[3]
        dur = end - start
        self.calls[family] += 1
        self.self_s[family] += dur - child_s
        if self.stack:
            self.stack[-1][2] += dur
        else:
            self.covered_s += dur
        if index >= 0:
            self.spans[index][1:3] = [start, end]
        else:
            parent = self._recorded_parent()
            if parent is not None:
                folded = self.spans[parent][5]
                if folded is None:
                    folded = self.spans[parent][5] = {}
                entry = folded.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += dur
        if family == "sources.output_table":
            self.table_hits += self.calls["extractors.extract"] == frame[4]
        elif family == "paramcalc.solve":
            self.solve_law_evals += self.calls["extractors.law_eval"] - frame[5]
        elif family == "qsim.eigvalsh":
            d = np.shape(args[0])[-1]
            self.eig_flops += int(np.prod(np.shape(args[0])[:-2], dtype=np.int64)) * d ** 3
        bits = _enumeration_bits(family, args)
        if bits is not None:
            self.enum_bits_max = max(self.enum_bits_max, bits)

    def run_op(self, op_id, fn):
        """Run one op with tracing on; returns what fn returns."""
        self.op_id = op_id
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self.op_s += time.perf_counter() - start
            self.ops += 1
            self.op_id = None
            self.stack.clear()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics, {name: (value, unit)}; `trace.overhead_ratio` is added by the launcher."""
        ops = max(self.ops, 1)
        per_op = lambda family: self.calls[family] / ops
        ms = lambda *families: 1e3 * sum(self.self_s[f] for f in families) / ops
        ratio = lambda num, den: num / den if den else 0.0
        return {
            "bitfield.gf_mul_calls": (per_op("bitfield.gf_mul"), "call/op"),
            "bitfield.gf_mul_ms": (ms("bitfield.gf_mul"), "ms/op"),
            "extractors.extract_calls": (per_op("extractors.extract"), "call/op"),
            "extractors.extract_ms": (ms("extractors.extract"), "ms/op"),
            "extractors.descriptor_build_ms": (ms("extractors.descriptor_build"), "ms/op"),
            "sources.output_table_calls": (per_op("sources.output_table"), "call/op"),
            "sources.output_table_hit_ratio": (
                ratio(self.table_hits, self.calls["sources.output_table"]), "ratio"),
            "sources.output_table_ms": (ms("sources.output_table"), "ms/op"),
            "sources.distance_ms": (ms("sources.distance"), "ms/op"),
            "sources.source_build_ms": (ms("sources.source_build"), "ms/op"),
            "sources.enumeration_bits_max": (self.enum_bits_max, "bit"),
            "paramcalc.solve_calls": (per_op("paramcalc.solve"), "call/op"),
            "paramcalc.solve_ms": (ms("paramcalc.solve"), "ms/op"),
            "paramcalc.law_evals_per_solve": (
                ratio(self.solve_law_evals, self.calls["paramcalc.solve"]), "eval/solve"),
            "paramcalc.transfer_ms": (ms("paramcalc.transfer"), "ms/op"),
            "qsim.verify_ms": (ms("qsim.verify"), "ms/op"),
            "qsim.monotonicity_ms": (ms("qsim.monotonicity"), "ms/op"),
            "qsim.cmi_ms": (ms("qsim.cmi"), "ms/op"),
            "qsim.eigvalsh_calls": (per_op("qsim.eigvalsh"), "call/op"),
            "qsim.eigvalsh_ms": (ms("qsim.eigvalsh"), "ms/op"),
            "qsim.eigvalsh_flops": (self.eig_flops / ops, "flop-computed/op"),
            "qsim.density_checks": (per_op("qsim.density_check"), "call/op"),
            "qsim.density_check_ms": (ms("qsim.density_check"), "ms/op"),
            "qsim.dense_ms": (ms("qsim.dense"), "ms/op"),
            "qsim.state_build_ms": (ms("qsim.state_build"), "ms/op"),
            "cli.parse_ms": (ms("cli.parse"), "ms/op"),
            "cli.command_ms": (ms("cli.command"), "ms/op"),
            "cli.emit_ms": (ms("cli.emit"), "ms/op"),
            "trace.coverage_ratio": (ratio(self.covered_s, self.op_s), "ratio"),
        }

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            for name, start, end, parent, op_id, folded in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id, "folded": folded}) + "\n")
