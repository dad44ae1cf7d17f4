import argparse
import collections
import contextlib
import csv
import functools
import importlib.util
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovext import cli
from markovext.bitfield import BitString
from markovext.cli import VERIFY_SUITES, csv_to_report, main, report_to_csv, report_to_json
from markovext.errors import DomainError, MarkovExtError
from markovext.extractors import (
    ExtractorDescriptor,
    compose,
    deor_descriptor,
    inner_product_descriptor,
    parity_seeded_descriptor,
    trevisan_descriptor,
)
from markovext.paramcalc import deor_quantum_corollary
from markovext.sources import extractor_output_table

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

def test_plan_plain_echoes_base_law(capsys):
    rc, out = _run(capsys, [
        "plan", "--model", "plain", "--family", "deor",
        "--n1", "8", "--n2", "8", "--m", "2", "--k1", "6", "--k2", "6"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["version"] == "1"
    assert rep["assessment"]["error"] == pytest.approx(2 ** -1.5, rel=1e-12)
    assert rep["assessment"]["required_k"] == [6.0, 6.0]


def test_plan_quantum_matches_corollary(capsys):
    rc, out = _run(capsys, [
        "plan", "--model", "quantum-markov", "--family", "deor",
        "--n1", "64", "--n2", "64", "--m", "4", "--k1", "60", "--k2", "60"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["assessment"]["error"] == pytest.approx(
        deor_quantum_corollary(64, 60, 60, 4), rel=1e-9
    )
    assert rep["assessment"]["required_k"] == pytest.approx([60.0, 60.0])


def test_plan_raz_out_of_domain_is_exit_3(capsys):
    rc = main([
        "plan", "--model", "quantum-markov", "--family", "raz",
        "--n1", "65536", "--n2", "65536", "--m", "10",
        "--k1", "50000", "--k2", "512", "--delta-prime", "0.7"])
    assert rc == 3


def test_plan_smooth_model(capsys):
    rc, out = _run(capsys, [
        "plan", "--model", "smooth-markov", "--family", "deor",
        "--n1", "64", "--n2", "64", "--m", "2", "--k1", "60", "--k2", "60",
        "--delta1", "0.001", "--delta2", "0.001", "--eps1", "0.002", "--eps2", "0.002"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["assessment"]["model"] == "SmoothMarkov"
    assert 0 < rep["assessment"]["error"] <= 1


@pytest.mark.parametrize("model,value", [
    ("plain", "Plain"), ("classical-markov", "ClassicalMarkov"),
    ("quantum-markov", "QuantumMarkov"), ("smooth-markov", "SmoothMarkov"),
    ("subnormalized", "Subnormalized")])
def test_plan_at_error_1_reports_the_model_value(capsys, model, value):
    rc, out = _run(capsys, [
        "plan", "--model", model, "--family", "deor",
        "--n1", "4", "--n2", "4", "--m", "1", "--k1", "1", "--k2", "1"])
    assert rc == 0
    assert json.loads(out)["assessment"] == {
        "model": value, "l": 2, "required_k": [1.0, 1.0], "error": 1.0, "m": 1,
        "strong_in": [1, 2]}


def test_plan_at_error_1_carries_one_threshold_per_source(capsys):
    rc, out = _run(capsys, [
        "plan", "--model", "classical-markov", "--family", "deor", "--n1", "8", "--n2", "8",
        "--m", "2", "--k1", "6", "--k2", "5", "--l", "3", "--eps", "2.0"])
    assert rc == 0
    assessment = json.loads(out)["assessment"]
    assert assessment["l"] == 3 and assessment["error"] == 1.0
    assert assessment["required_k"] == [6.0, 5.0, 6.0]


@pytest.mark.parametrize("k", ["1", "60"])
def test_plan_checks_the_smoothing_flags_at_every_error(k):
    # at k = 1 the solved error is 1, at k = 60 it is below 1: both refuse --delta1 5
    rc, err = _refused(["plan", "--model", "smooth-markov", "--family", "deor", "--n1", "64",
                        "--n2", "64", "--m", "4", "--k1", k, "--k2", k, "--delta1", "5"])
    assert rc == 3 and "smoothing" in err


@pytest.mark.parametrize("model", ["classical-markov", "quantum-markov", "smooth-markov"])
def test_plan_reports_the_asserted_entropies_as_thresholds(capsys, model):
    rc, out = _run(capsys, ["plan", "--model", model, "--family", "deor", "--n1", "64",
                            "--n2", "64", "--m", "4", "--k1", "57.77", "--k2", "57.77"])
    assert rc == 0
    assert json.loads(out)["assessment"]["required_k"] == [57.77, 57.77]


def test_plan_error_falls_as_the_entropy_rises_past_the_law_underflow(capsys):
    # at n = 4096 the inner-product law underflows to 0 near k = 3200: an error below every eps
    errors = []
    for k in ("3000", "3200"):
        rc, out = _run(capsys, ["plan", "--model", "quantum-markov", "--family", "inner-product",
                                "--n1", "4096", "--n2", "4096", "--m", "1", "--k1", k, "--k2", k])
        assert rc == 0
        errors.append(json.loads(out)["assessment"]["error"])
    assert errors[0] == pytest.approx(2.77e-72, rel=1e-2)
    assert errors[1] == pytest.approx(math.sqrt(3 * 2.0 ** -576 / 2), rel=1e-12)  # eps = 2^-576


def _plan_error(capsys, model, family, n, k):
    rc, out = _run(capsys, ["plan", "--model", model, "--family", family, "--n1", str(n),
                            "--n2", str(n), "--m", "1", "--k1", str(k), "--k2", str(k)])
    assert rc == 0
    return json.loads(out)["assessment"]["error"]


def test_no_plan_reports_an_error_of_0(capsys):
    # the inner-product law underflows to 0 from n = 4096 on; DEOR (64, 1) is the control
    errors = [_plan_error(capsys, model, family, n, r * n)
              for family, ns in (("deor", (64,)), ("inner-product", (64, 4096, 8192, 16384)))
              for n in ns for model in cli._MODELS
              for r in (0.5, 0.7, 0.85, 0.9, 0.95, 0.99, 1)]
    assert len(errors) == 175 and all(0 < e <= 1 for e in errors)


_ULP0 = math.ulp(0.0)  # 2^-1074, the smallest positive float
_QUANTUM_AT_ULP0 = math.sqrt(1.5) * 2.0 ** -537  # sqrt(3 ulp(0) 2^(m-2)) at m = 1


@pytest.mark.parametrize("model,n,k,error", [
    ("plain", 4096, 3200, _ULP0), ("subnormalized", 4096, 3200, _ULP0),
    ("quantum-markov", 8192, 7000, _QUANTUM_AT_ULP0),
    ("classical-markov", 16384, 16384, 3 * _ULP0),
    ("quantum-markov", 16384, 16384, _QUANTUM_AT_ULP0),
    ("smooth-markov", 16384, 16384, 2 * _QUANTUM_AT_ULP0)])
def test_plan_reports_the_floor_where_the_error_underflows(capsys, model, n, k, error):
    # a law value that underflows to 0 is at most 2^-1075, so plain and subnormalized
    # report ulp(0); a solved eps of 0 is read as ulp(0), and the Markov law runs there
    assert _plan_error(capsys, model, "inner-product", n, k) == pytest.approx(error, rel=1e-12,
                                                                              abs=0.0)


def test_plan_matches_the_golden_assessments(capsys):
    # each model with no flag, --eps 1e-6, --eps 2.0 and --l 3 on deor (64, 4) and inner
    # product 2048 at five entropy pairs; an exit code other than 0 stores no assessment
    with open(os.path.join(DATA_DIR, "plan_golden.json")) as fh:
        golden = json.load(fh)
    assert len(golden) == 160
    for entry in golden:
        rc, out = _run(capsys, entry["argv"])
        assert (rc, json.loads(out)["assessment"] if rc == 0 else None) == (
            entry["exit"], entry["assessment"]), entry["argv"]


@pytest.mark.parametrize("model,flag", [
    ("plain", ["--eps", "1e-6"]), ("subnormalized", ["--eps", "2.0"]),
    ("plain", ["--delta2", "0.1"]), ("subnormalized", ["--eps1", "0.5"]),
    ("classical-markov", ["--eps2", "0.1"]), ("quantum-markov", ["--delta1", "0.5"]),
    ("quantum-markov", ["--delta1", "5"])],
    ids=["plain_eps", "subnormalized_eps_2", "plain_delta2", "subnormalized_eps1",
         "classical_eps2", "quantum_delta1", "quantum_delta1_5"])
def test_plan_refuses_a_flag_its_model_does_not_read(model, flag):
    rc, err = _refused(["plan", "--model", model, "--family", "deor", "--n1", "64", "--n2", "64",
                        "--m", "4", "--k1", "60", "--k2", "60", *flag])
    assert rc == 3 and err.startswith("error: ")


def test_plan_request_records_the_outer_flags(capsys):
    argv = ["plan", "--model", "quantum-markov", "--family", "trevisan-composition",
            "--n1", "65536", "--n2", "65536", "--m", "4", "--k1", "62000", "--k2", "59000",
            "--eps", "1e-6", "--outer-eps", "1e-3"]
    reports = []
    for outer_m in ("16", "32"):
        rc, out = _run(capsys, [*argv, "--outer-m", outer_m])
        assert rc == 0
        reports.append(json.loads(out))
    assert reports[0]["assessment"]["m_total"] != reports[1]["assessment"]["m_total"]
    assert reports[0]["request"] != reports[1]["request"]
    assert [r["request"]["outer_m"] for r in reports] == [16, 32]
    assert reports[0]["request"]["outer_eps"] == 1e-3


def test_plan_request_records_every_flag_but_out(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["plan", "--model", "plain", "--family", "deor", "--n1", "8", "--n2", "8",
                 "--m", "2", "--k1", "6", "--k2", "6", "--out", str(out)]) == 0
    request = json.loads(out.read_text())["request"]
    assert request == {
        "command": "plan", "model": "plain", "family": "deor", "n1": 8, "n2": 8, "m": 2,
        "k1": 6.0, "k2": 6.0, "l": 2, "eps": None, "delta1": 0.0, "delta2": 0.0, "eps1": 0.0,
        "eps2": 0.0, "delta_prime": None, "outer_m": None, "outer_eps": None}


def test_plan_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["plan", "--model", "no-such-model", "--family", "deor",
              "--n1", "8", "--n2", "8", "--m", "2", "--k1", "6", "--k2", "6"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------

def test_extract_matches_library(tmp_path):
    in1, in2, out = tmp_path / "a", tmp_path / "b", tmp_path / "y"
    in1.write_bytes(bytes([0x2A]))
    in2.write_bytes(bytes([0x0F]))
    rc = main(["extract", str(in1), str(in2), str(out),
               "--family", "deor", "--n1", "8", "--m", "4"])
    assert rc == 0
    expected = deor_descriptor(8, 4).extract(BitString(0x2A, 8), BitString(0x0F, 8))
    assert out.read_bytes() == expected.to_bytes()


def test_extract_zero_factor_and_determinism(tmp_path):
    in1, in2, out1, out2 = (tmp_path / n for n in ("a", "b", "y1", "y2"))
    in1.write_bytes(bytes([0xC7]))
    in2.write_bytes(bytes([0x00]))
    for out in (out1, out2):
        rc = main(["extract", str(in1), str(in2), str(out),
                   "--family", "deor", "--n1", "8", "--m", "8"])
        assert rc == 0
    assert out1.read_bytes() == bytes([0x00])
    assert out1.read_bytes() == out2.read_bytes()


def test_extract_short_input_is_exit_3(tmp_path):
    in1, in2, out = tmp_path / "a", tmp_path / "b", tmp_path / "y"
    in1.write_bytes(b"")
    in2.write_bytes(bytes([1]))
    rc = main(["extract", str(in1), str(in2), str(out),
               "--family", "deor", "--n1", "8", "--m", "2"])
    assert rc == 3


class _EndlessInput(io.BytesIO):
    """An input of 0xA5 bytes without end: read() fails unless it is given a size."""

    def __init__(self, limit):
        super().__init__()
        self.limit = limit

    def read(self, size=-1):
        assert size is not None and 0 <= size <= self.limit, f"read({size})"
        return b"\xa5" * size


@pytest.mark.parametrize("family,n1,m", [("composed", 8, 3), ("deor", 3, 2), ("deor", 16, 4)])
def test_extract_reads_only_the_bytes_it_needs(tmp_path, monkeypatch, family, n1, m):
    out = tmp_path / "y"
    ext = cli.build_descriptor(family, n1, None, m)
    limit = -(-max(ext.n1, ext.n2) // 8)
    monkeypatch.setattr(cli, "open", lambda path, mode="r": (
        _EndlessInput(limit) if path in ("x1", "x2") else open(path, mode)), raising=False)
    rc = main(["extract", "x1", "x2", str(out), "--family", family, "--n1", str(n1),
               "--m", str(m)])
    assert rc == 0
    x1, x2 = (BitString.from_bytes(b"\xa5" * limit, n) for n in (ext.n1, ext.n2))
    assert out.read_bytes() == ext.extract(x1, x2).to_bytes()


def test_extract_descriptor_file(tmp_path):
    in1, in2, out = tmp_path / "a", tmp_path / "b", tmp_path / "y"
    in1.write_bytes(bytes([0x2A]))
    in2.write_bytes(bytes([0x0F]))
    desc = tmp_path / "d.json"
    desc.write_text(json.dumps({"family": "DEOR", "n1": 8, "n2": 8, "m": 4, "params": {}}))
    rc = main(["extract", str(in1), str(in2), str(out), "--descriptor", str(desc)])
    assert rc == 0
    expected = deor_descriptor(8, 4).extract(BitString(0x2A, 8), BitString(0x0F, 8))
    assert out.read_bytes() == expected.to_bytes()


@pytest.mark.parametrize("fields", [
    {"family": "DEOR", "n1": 8, "n2": 16, "m": 4, "params": {}},
    {"family": "ParitySeeded", "n1": 8, "n2": 3, "m": 3, "params": {}},
    {"family": "InnerProduct", "n1": 8, "n2": 8, "m": 1, "params": {"n": 16}},
])
def test_extract_descriptor_file_disagreeing_with_its_family_is_exit_3(tmp_path, fields):
    in1, in2, out = tmp_path / "a", tmp_path / "b", tmp_path / "y"
    in1.write_bytes(bytes([0x2A]))
    in2.write_bytes(bytes([0x0F, 0x00]))
    desc = tmp_path / "d.json"
    desc.write_text(json.dumps(fields))
    assert main(["extract", str(in1), str(in2), str(out), "--descriptor", str(desc)]) == 3
    assert not out.exists()


def test_extract_composed_descriptor_file_roundtrip(tmp_path):
    ext = compose(parity_seeded_descriptor(8, 2), deor_descriptor(8, 2))
    desc = tmp_path / "d.json"
    desc.write_text(json.dumps(ext.to_dict()))
    for v1, v2 in [(0x2A, 0x0F), (0xC7, 0x81), (0x01, 0xFF)]:
        in1, in2, out = tmp_path / "a", tmp_path / "b", tmp_path / "y"
        in1.write_bytes(bytes([v1]))
        in2.write_bytes(bytes([v2]))
        assert main(["extract", str(in1), str(in2), str(out), "--descriptor", str(desc)]) == 0
        assert out.read_bytes() == ext.extract(BitString(v1, 8), BitString(v2, 8)).to_bytes()


# ---------------------------------------------------------------------------
# malformed requests: each exits with its documented code, never a traceback
# ---------------------------------------------------------------------------

_PLAN = ["plan", "--model", "quantum-markov", "--family", "deor"]


@pytest.mark.parametrize("argv,code", [
    ([*_PLAN, "--n1", "64", "--n2", "64", "--m", "4", "--k1", "nan", "--k2", "50"], 2),
    ([*_PLAN, "--n1", "64", "--n2", "64", "--m", "4", "--k1", "50", "--k2", "inf"], 2),
    ([*_PLAN, "--n1", "64", "--n2", "64", "--m", "4", "--k1", "50", "--k2", "50",
      "--eps", "nan"], 2),
    ([*_PLAN, "--n1", "7", "--n2", "64", "--m", "4", "--k1", "60", "--k2", "50"], 3),
    ([*_PLAN, "--n1", "64", "--n2", "64", "--m", "4", "--k1", "-1", "--k2", "50"], 3),
    ([*_PLAN, "--n1", "16", "--n2", "64", "--m", "4", "--k1", "10", "--k2", "50"], 3),
    ([*_PLAN, "--n1", "7", "--n2", "7", "--m", "4", "--k1", "6", "--k2", "6"], 3),
    ([*_PLAN, "--n1", "64", "--n2", "64", "--m", "100", "--k1", "50", "--k2", "50"], 3),
    (["extract", "{tmp}/absent", "{tmp}/absent", "{tmp}/y", "--n1", "8", "--m", "4"], 2),
    (["extract", "{tmp}/a", "{tmp}/a", "{tmp}/y", "--descriptor", "{tmp}/absent.json"], 2),
    (["extract", "{tmp}/a", "{tmp}/a", "{tmp}/no/y", "--n1", "8", "--m", "4"], 2),
    (["extract", "{tmp}/a", "{tmp}/a", "{tmp}/y", "--descriptor", "{tmp}/a"], 3),
    (["report", "{tmp}/absent.json", "--format", "csv"], 2),
    (["verify", "--suite", "distinguishing", "--budget", "1", "--out", "{tmp}/no/r.json"], 2),
    (["extract", "{tmp}/a", "{tmp}/a", "{tmp}/y", "--family", "trevisan", "--n1", "32",
      "--m", "8", "--eps", "1e-3"], 3),
    (["report", "{tmp}/nan.json", "--format", "json"], 3),
    (["report", "{tmp}/nan.json", "--format", "csv"], 3),
    (["report", "{tmp}/inf.csv", "--format", "json"], 3),
    ([*_PLAN, "--n1", "64", "--n2", "64", "--m", "4", "--k1", "60", "--k2", "60", "--l", "3"], 3),
    (["plan", "--model", "classical-markov", "--family", "deor", "--n1", "64", "--n2", "64",
      "--m", "4", "--k1", "60", "--k2", "60", "--l", "1"], 3),
    (["plan", "--model", "quantum-markov", "--family", "inner-product", "--n1", "64",
      "--n2", "64", "--m", "40", "--k1", "60", "--k2", "60"], 3),
    (["extract", "{tmp}/a", "{tmp}/a", "{tmp}/y", "--family", "inner-product", "--n1", "8",
      "--m", "2"], 3),
    (["extract", "{tmp}/a", "{tmp}/a", "{tmp}/y", "--family", "parity", "--n1", "8",
      "--n2", "4", "--m", "2"], 3),
    *[(["plan", "--model", model, "--family", "deor", "--n1", "64", "--n2", "64", "--m", "4",
        "--k1", "60", "--k2", "60", "--l", "3", "--eps", "1e-6"], 3)
      for model in ("plain", "subnormalized", "smooth-markov")],
    (["extract", "{tmp}/a", "{tmp}/a", "{tmp}/y", "--family", "inner-product", "--n1", "-1"], 3),
    (["extract", "{tmp}/a", "{tmp}/a", "{tmp}/y", "--family", "composed", "--n1", "8",
      "--n2", "3", "--m", "2"], 3),
    (["extract", "{tmp}/a", "{tmp}/a", "{tmp}/y", "--family", "trevisan", "--n1", "8",
      "--n2", "8", "--m", "3", "--eps", "0.75"], 3),
    (["extract", "{tmp}/a", "{tmp}/a", "{tmp}/y", "--descriptor", "{tmp}/bytes"], 3),
    (["report", "{tmp}/bytes", "--format", "json"], 3),
    *[(["plan", "--model", model, "--family", family, "--n1", "4096", "--n2", "4096", "--m", "4",
        "--k1", "4000", "--k2", "3900", "--delta-prime", "0.2", "--eps", "1e-6",
        "--outer-m", "16", "--outer-eps", "1e-3", "--l", l], 3)
      for family in ("raz", "trevisan-composition")
      for model, l in (("plain", "2"), ("quantum-markov", "5"))],
    ([*_PLAN, "--n1", "64", "--n2", "64", "--m", "4", "--k1", "abc", "--k2", "50"], 2),
    (["plan", "--model", "quantum-markov", "--family", "raz", "--n1", "4096", "--n2", "4096",
      "--m", "4", "--k1", "4000", "--k2", "3900"], 3),
    (["extract", "{tmp}/a", "{tmp}/a", "{tmp}/y", "--family", "deor"], 3),
    *[(["plan", "--model", "classical-markov", "--family", "deor", "--n1", "8", "--n2", "8",
        "--m", "2", "--k1", "6", "--k2", "6", "--l", l, "--eps", eps], 3)
      for l, eps in (("1", "2.0"), ("-3", "1.5"))],
    (["extract", "{tmp}/a", "{tmp}/a", "{tmp}/y", "--family", "deor", "--n1", "8", "--m", "4",
      "--eps", "0.9"], 3),
    *[(["plan", "--model", "quantum-markov", "--family", "raz", "--n1", "4096", "--n2", "4096",
        "--k1", "4000", "--k2", "4000", "--delta-prime", "0.1", "--m", m], 3) for m in ("0", "-5")],
    (["extract", "{tmp}/a", "{tmp}/a", "{tmp}/y", "--descriptor", "{tmp}/n_2.json"], 3),
    *[(["plan", "--model", "quantum-markov", "--family", "trevisan-composition", "--n1", "65536",
        "--n2", "65536", "--m", "4", "--k1", "62000", "--k2", "59000", *flags], 3)
      for flags in ([], ["--outer-m", "16", "--outer-eps", "1e-3"],
                    ["--eps", "1e-6", "--outer-eps", "1e-3"], ["--eps", "1e-6", "--outer-m", "16"])],
], ids=["k1_nan", "k2_inf", "eps_nan", "k1_gt_n1", "k1_negative", "deor_n1_ne_n2",
        "deor_no_modulus", "m_gt_n", "missing_input", "missing_descriptor", "unwritable_output",
        "descriptor_not_json", "missing_report", "unwritable_report", "trevisan_no_modulus",
        "report_nan_to_json", "report_nan_to_csv", "report_csv_infinity", "l3_without_eps",
        "l1_without_eps", "inner_product_m_ne_1", "extract_inner_product_m_ne_1",
        "extract_parity_m_ne_1", "plain_l3", "subnormalized_l3", "smooth_markov_l3",
        "extract_inner_product_n1_negative", "extract_composed_n2_ne_seed",
        "extract_trevisan_n2_ne_seed", "extract_descriptor_not_utf8", "report_not_utf8",
        "raz_plain", "raz_l5", "trevisan_composition_plain", "trevisan_composition_l5",
        "k1_not_a_number", "raz_no_delta_prime", "extract_no_n1", "error_1_l1",
        "error_1_l_negative", "extract_deor_eps", "raz_m_0", "raz_m_negative",
        "extract_descriptor_unwritten_field", "composition_no_flags", "composition_no_eps",
        "composition_no_outer_m", "composition_no_outer_eps"])
def test_malformed_request_exit_code(tmp_path, capsys, argv, code):
    (tmp_path / "a").write_bytes(bytes(64))
    (tmp_path / "bytes").write_bytes(bytes(range(256)))
    (tmp_path / "nan.json").write_text('{"version": "1", "records": [{"distance": NaN}]}')
    (tmp_path / "inf.csv").write_text("key,value\nrecords.0.distance,-Infinity\n")
    (tmp_path / "n_2.json").write_text('{"family": "DEOR", "n1": 8, "m": 4, "n_2": 16}')
    argv = [a.format(tmp=tmp_path) for a in argv]
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err and "error" in captured.err


_BAD_REAL = st.sampled_from(["nan", "inf", "-inf", "-1", "-1e-9", "1e9"])
_BAD_INT = st.sampled_from(["-1", "0", "5", "7", "100", "65536"])


def _maybe_bad(draw, good, bad):
    """Mostly a value inside the flag's domain, one time in six one outside it."""
    return draw(bad) if draw(st.integers(0, 5)) == 3 else draw(good)


def _real(lo, hi):
    return st.floats(lo, hi).map(repr)


@st.composite
def _plan_argv(draw):
    n = draw(st.sampled_from([2, 3, 4, 8, 16, 64]))
    flags = {
        "--model": draw(st.sampled_from(["plain", "classical-markov", "quantum-markov",
                                         "smooth-markov", "subnormalized"])),
        "--family": draw(st.sampled_from(["deor", "inner-product", "raz",
                                          "trevisan-composition"])),
        "--n1": _maybe_bad(draw, st.just(str(n)), _BAD_INT),
        "--n2": _maybe_bad(draw, st.just(str(n)), _BAD_INT),
        "--m": _maybe_bad(draw, st.integers(1, 4).map(str), _BAD_INT),  # m > n when n is 2 or 3
        "--k1": _maybe_bad(draw, _real(0, n), _BAD_REAL | st.just(str(n + 1))),
        "--k2": _maybe_bad(draw, _real(0, n), _BAD_REAL | st.just(str(n + 1))),
        "--l": _maybe_bad(draw, st.just("2"), st.integers(0, 5).map(str)),
    }
    optional = {
        "--eps": _real(1e-12, 0.5), "--delta1": _real(0, 0.01), "--delta2": _real(0, 0.01),
        "--eps1": _real(0, 0.01), "--eps2": _real(0, 0.01), "--delta-prime": _real(0, 0.6),
        "--outer-m": st.integers(1, 64).map(str), "--outer-eps": _real(1e-12, 0.5),
    }
    for flag, good in optional.items():
        if draw(st.booleans()):
            flags[flag] = _maybe_bad(draw, good, _BAD_INT if flag == "--outer-m" else _BAD_REAL)
    return ["plan"] + [part for flag, value in flags.items() for part in (flag, value)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_plan_argv())
def test_plan_fuzz_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 2, 3, 4, 5)
    assert "Traceback" not in err.getvalue()
    if rc == 0:
        json.loads(out.getvalue(), parse_constant=lambda name: pytest.fail(f"{name} in output"))
    else:
        assert out.getvalue() == ""


@st.composite
def _extract_flags(draw):
    n1 = draw(st.sampled_from(["1", "2", "3", "4", "6", "8", "16", "64", "-1", "0", "5"]))
    flags = {
        "--family": draw(st.sampled_from(["deor", "inner-product", "parity", "trevisan",
                                          "composed"])),
        "--n1": n1,
    }
    optional = {
        "--n2": st.sampled_from([n1, "1", "2", "3", "4", "8", "256", "-1", "0"]),
        "--m": st.sampled_from(["1", "2", "3", "4", "8", "-1", "0", "100"]),
        "--eps": _real(0.5, 0.99) | _BAD_REAL,
    }
    for flag, value in optional.items():
        if draw(st.booleans()):
            flags[flag] = draw(value)
    return [part for flag, value in flags.items() for part in (flag, value)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_extract_flags())
def test_extract_fuzz_exits_with_a_documented_code(flags):
    with tempfile.TemporaryDirectory() as tmp:
        x, y = os.path.join(tmp, "x"), os.path.join(tmp, "y")
        with open(x, "wb") as fh:
            fh.write(bytes(range(256)) * 4)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(["extract", x, x, y, *flags])
            except SystemExit as exc:
                rc = exc.code
        assert rc in (0, 2, 3, 4, 5)
        assert "Traceback" not in err.getvalue() and out.getvalue() == ""
        assert os.path.exists(y) == (rc == 0)


_DESCRIPTORS = [deor_descriptor(8, 2), deor_descriptor(4, 4), inner_product_descriptor(4),
                parity_seeded_descriptor(8, 3), trevisan_descriptor(8, 3, 0.9),
                compose(parity_seeded_descriptor(8, 2), deor_descriptor(8, 2))]


def _numeric_paths(d, prefix=()):
    for k, v in d.items():
        if isinstance(v, dict):
            yield from _numeric_paths(v, prefix + (k,))
        elif isinstance(v, (int, float)) and not isinstance(v, bool):
            yield prefix + (k,)


@st.composite
def _descriptor_dict(draw):
    """A valid descriptor dict in which up to two numeric fields, nested ones too, become
    a JSON scalar of another kind or value, and which may lack the fields from_dict can
    do without."""
    d = draw(st.sampled_from(_DESCRIPTORS)).to_dict()
    paths = list(_numeric_paths(d))
    for path in draw(st.lists(st.sampled_from(paths), max_size=2, unique=True)):
        *outer, key = path
        owner = functools.reduce(dict.__getitem__, outer, d)
        value = owner[key]
        owner[key] = draw(st.sampled_from([float(value), value + 0.5, value - 1, True, False,
                                           str(value), None, 1e300, -0.0]))
    drop = draw(st.sets(st.sampled_from(["n2", "m", "strong_in"])))
    return {k: v for k, v in d.items() if k not in drop}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_descriptor_dict())
def test_descriptor_dict_that_builds_also_extracts(d):
    """Integer fields given as floats, bools, strings or null are refused when built, so
    every descriptor dict that builds extracts; `extract --descriptor` exits 0 on exactly
    those dicts and 3 on the rest."""
    try:
        ext = ExtractorDescriptor.from_dict(d)
    except MarkovExtError:
        ext = None
    if ext is not None:
        assert all(type(v) is int for v in (ext.n1, ext.n2, ext.m))
        x1, x2 = BitString((1 << ext.n1) - 1, ext.n1), BitString(5 % (1 << ext.n2), ext.n2)
        y = ext.extract(x1, x2)
        assert y.length == ext.m
        if ext.n1 + ext.n2 <= 16:  # a table that fits the budget, kept small in memory
            table = extractor_output_table(ext, ext.n1, ext.n2)
            assert int(table[x1.value, x2.value]) == y.value
    with tempfile.TemporaryDirectory() as tmp:
        x, desc, y_path = (os.path.join(tmp, name) for name in ("x", "d.json", "y"))
        with open(x, "wb") as fh:
            fh.write(bytes(range(256)) * 64)
        with open(desc, "w") as fh:
            json.dump(d, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["extract", x, x, y_path, "--descriptor", desc])
        assert rc == (0 if ext is not None else 3)
        assert "Traceback" not in err.getvalue()
        if rc == 0:
            with open(x, "rb") as fh:
                data = fh.read()
            expect = ext.extract(BitString.from_bytes(data, ext.n1),
                                 BitString.from_bytes(data, ext.n2))
            with open(y_path, "rb") as fh:
                assert fh.read() == expect.to_bytes()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("suite", ["classical", "distinguishing", "monotonicity"])
def test_verify_suites_pass_and_are_deterministic(capsys, suite):
    rc1, out1 = _run(capsys, ["verify", "--suite", suite, "--seed", "7", "--budget", "4"])
    rc2, out2 = _run(capsys, ["verify", "--suite", suite, "--seed", "7", "--budget", "4"])
    assert rc1 == rc2 == 0
    assert out1 == out2
    rep = json.loads(out1)
    assert all(r["holds"] for r in rep["records"])
    assert rep["timing"] is None


def test_verify_quantum_and_composition(capsys):
    for suite in ("quantum", "composition"):
        rc, out = _run(capsys, ["verify", "--suite", suite, "--seed", "1", "--budget", "3"])
        assert rc == 0
        rep = json.loads(out)
        for r in rep["records"]:
            assert r["holds"] and r["distance"] <= r["bound"] + 1e-9


@pytest.mark.parametrize("over,rc", [(2e-9, 5), (0.5e-9, 0)], ids=["fails", "within_slack"])
def test_verify_verdict_is_the_checks_holds(monkeypatch, capsys, over, rc):
    from markovext import qsim, suites

    bound = 0.25
    monkeypatch.setattr(suites, "classical",
                        lambda seeds: ((s, qsim.BoundCheck(bound + over, bound)) for s in seeds))
    code, out = _run(capsys, ["verify", "--suite", "classical", "--seed", "3", "--budget", "2"])
    assert code == rc
    assert json.loads(out)["records"] == [
        {"seed": s, "distance": bound + over, "bound": bound, "holds": rc == 0} for s in (3, 4)]


def test_composition_suite_runs_the_cli_composed_descriptor(monkeypatch):
    from markovext import sources, suites

    seen = []
    monkeypatch.setattr(sources, "statistical_distance_from_uniform",
                        lambda ext, *args, **kwargs: seen.append(ext) or 0.0)
    list(suites.composition(range(2)))
    assert seen == [cli.build_descriptor("composed", 8, 8, 3)] * 2


def test_verify_bad_budget_is_exit_4(capsys):
    assert main(["verify", "--suite", "classical", "--budget", "0"]) == 4
    assert main(["verify", "--suite", "classical", "--budget", "100000"]) == 4


def test_verify_unknown_suite_is_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "no-such-suite"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_roundtrip_json_csv_json(capsys, tmp_path):
    rc, out = _run(capsys, ["verify", "--suite", "distinguishing", "--seed", "3", "--budget", "3"])
    assert rc == 0
    path = tmp_path / "r.json"
    path.write_text(out)
    rc, csv_text = _run(capsys, ["report", str(path), "--format", "csv"])
    assert rc == 0
    csv_path = tmp_path / "r.csv"
    csv_path.write_text(csv_text)
    rc, json_text = _run(capsys, ["report", str(csv_path), "--format", "json"])
    assert rc == 0
    assert json.loads(json_text) == json.loads(out)


def test_report_empty_records_csv(tmp_path, capsys):
    report = {"version": "1", "request": {}, "assessment": None, "records": [], "timing": None}
    path = tmp_path / "r.json"
    path.write_text(json.dumps(report))
    rc, out = _run(capsys, ["report", str(path), "--format", "csv"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert not any(line.startswith("records.") for line in lines)
    assert csv_to_report(out) == report


def test_report_matches_golden_file(capsys):
    golden_json = os.path.join(DATA_DIR, "golden_report.json")
    golden_csv = os.path.join(DATA_DIR, "golden_report.csv")
    rc, out = _run(capsys, ["report", golden_json, "--format", "csv"])
    assert rc == 0
    with open(golden_csv) as fh:
        assert out == fh.read()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_report_writers_refuse_non_finite(value):
    from markovext.errors import DomainError

    report = {"version": "1", "records": [{"distance": value}]}
    with pytest.raises(DomainError):
        report_to_json(report)
    with pytest.raises(DomainError):
        report_to_csv(report)


@pytest.mark.parametrize("report", [
    [1, 2], "report", None, 3,
    {"a": {"0": 1}}, {"0": 1, "1": 2},
    {"a.b": 1}, {"a": [{"b.c": 1}]},
    {"": 1}, {"a": {"": 1}},
    {"a\rb": 1},
    {"a": "x" * 200_000},
], ids=["list", "string", "null", "number", "digit_keys", "digit_keys_at_top", "dotted_key",
        "dotted_key_in_list", "empty_key", "empty_key_below", "carriage_return_key",
        "field_beyond_limit"])
def test_report_to_csv_refuses_what_it_cannot_read_back(tmp_path, report):
    with pytest.raises(DomainError):
        report_to_csv(report)
    path = tmp_path / "r.json"
    path.write_text(json.dumps(report))
    rc, err = _refused(["report", str(path), "--format", "csv"])
    assert rc == 3 and err.startswith("error: ")


_JSON_KEYS = st.text(alphabet='ab01.,"\n ', min_size=1, max_size=3) | st.text(max_size=3)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(_JSON_KEYS, kids, max_size=3),
    max_leaves=10)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(_JSON_KEYS, _JSON, max_size=4))
def test_every_report_the_csv_form_accepts_reads_back_unchanged(report):
    try:
        text = report_to_csv(report)
    except DomainError:
        return
    assert csv_to_report(text) == report


# keys of one to three parts, some empty; values that are leaves, bar the last three
_CSV_KEYS = st.lists(st.sampled_from(["a", "b", "c", "0", "1", "a", "b", "0", "", "01"]),
                     min_size=1, max_size=3).map(".".join)
_CSV_VALUES = st.sampled_from([1, 2.5, "x", None, True, {}, [], 1, "y", {"b": 1}, [0], {"0": 1}]
                              ).map(json.dumps)
_CSV_PART = st.sampled_from(["a", "b", "c", "0"])
_CSV_TREES = st.recursive(
    st.sampled_from([1, "x", None, {}, []]),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(_CSV_PART, kids, max_size=3),
    max_leaves=6)


def _written_rows(tree):
    try:
        return list(cli._flatten(tree))
    except DomainError:
        return []


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(_CSV_KEYS, _CSV_VALUES), max_size=5)
       | st.dictionaries(_CSV_PART, _CSV_TREES, min_size=1, max_size=3).map(_written_rows).flatmap(
           st.permutations))
def test_every_csv_the_reader_accepts_renders_back_to_its_rows(rows):
    """Random rows, or a written report's rows in any order."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([("key", "value"), *rows])
    try:
        report = csv_to_report(buf.getvalue())
    except DomainError:
        return
    again = list(csv.reader(io.StringIO(report_to_csv(report))))
    assert again[0] == ["key", "value"]
    assert collections.Counter(map(tuple, again[1:])) == collections.Counter(rows)


def test_csv_report_requires_header():
    from markovext.errors import DomainError

    with pytest.raises(DomainError):
        csv_to_report("nope\n")


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

def _outcome(capsys, argv, out_path):
    """Exit code, stdout, stderr and output-file bytes of one main call."""
    if out_path.exists():
        out_path.unlink()
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err, out_path.read_bytes() if out_path.exists() else None


def test_main_builds_the_parser_once(tmp_path, capsys):
    (tmp_path / "a").write_bytes(bytes(range(8)))
    report = tmp_path / "r.json"
    requests = [
        ["plan", "--model", "plain", "--family", "deor", "--n1", "8", "--n2", "8",
         "--m", "2", "--k1", "6", "--k2", "6", "--out", str(report)],
        ["extract", *[str(tmp_path / n) for n in ("a", "a", "y")], "--n1", "8", "--m", "4"],
        ["verify", "--suite", "distinguishing", "--budget", "1"],
        ["report", str(report), "--format", "csv"],
    ]
    cli.build_parser.cache_clear()
    for i in range(20):
        assert main(requests[i % 4]) == 0
    capsys.readouterr()
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 19)


def test_requests_in_one_process_match_each_request_alone(tmp_path, capsys):
    (tmp_path / "a").write_bytes(bytes([0xFF]))
    (tmp_path / "b").write_bytes(bytes([0x0F]))  # parity 1 over 3 bits, 0 over 4
    out = tmp_path / "y"
    plan = ["plan", "--model", "quantum-markov", "--family", "deor", "--n1", "64", "--n2", "64",
            "--m", "4", "--k1", "60", "--k2", "60"]
    extract = ["extract", str(tmp_path / "a"), str(tmp_path / "b"), str(out),
               "--family", "parity", "--n1", "4"]
    sequence = [
        [*plan, "--eps", "1e-6"],
        plan,
        ["plan", "--model", "no-such-model"],
        [*extract, "--n2", "3"],
        extract,
    ]
    together = [_outcome(capsys, argv, out) for argv in sequence]
    alone = []
    for argv in sequence:
        cli.build_parser.cache_clear()
        alone.append(_outcome(capsys, argv, out))
    assert together == alone
    assert [rc for rc, *_ in together] == [0, 0, 2, 0, 0]
    assert together[0] != together[1] and together[3][3] != together[4][3]


def test_main_resolves_the_command_at_call_time(capsys, monkeypatch):
    path = os.path.join(DATA_DIR, "golden_report.json")
    assert main(["report", path, "--format", "json"]) == 0
    capsys.readouterr()
    seen = []
    monkeypatch.setattr(cli, "cmd_report", lambda args: seen.append(args.format) or 5)
    assert main(["report", path, "--format", "csv"]) == 5
    assert seen == ["csv"]


def test_every_name_the_benchmark_traces_exists():
    """bench/tracing.py wraps each (owner, attr) through owner.__dict__[attr]."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _ in tracing.TRACED + tracing.COUNTED
               if attr not in owner.__dict__]
    assert missing == []


# ---------------------------------------------------------------------------
# a request is parsed once, by the parser of the subcommand it names
# ---------------------------------------------------------------------------

_K = ["--k1", "55.5", "--k2", "60.25"]
_DEOR64 = ["--family", "deor", "--n1", "64", "--n2", "64", "--m", "3", *_K]
_EXTRACT = ["extract", "x1", "x2", "y"]

# The request shapes of the benchmark's `requests` workload, malformed ones included, then
# the argv that only the full parser reads and the ones that test argparse's edges.
_PARSE_GRID = [
    ["plan", "--model", "quantum-markov", *_DEOR64],
    ["plan", "--model", "smooth-markov", *_DEOR64, "--delta1", "1e-5", "--delta2", "2e-6",
     "--eps1", "3e-7", "--eps2", "4e-8"],
    ["plan", "--model", "subnormalized", *_DEOR64],
    ["plan", "--model", "classical-markov", *_DEOR64, "--eps", "1e-9", "--l", "3"],
    ["plan", "--model", "plain", *_DEOR64],
    ["plan", "--model", "quantum-markov", "--family", "raz", "--n1", "2048", "--n2", "2048",
     "--m", "2", "--k1", "1900.5", "--k2", "1800.25", "--delta-prime", "0.3"],
    ["plan", "--model", "quantum-markov", "--family", "trevisan-composition", "--n1", "4096",
     "--n2", "4096", "--m", "2", "--k1", "4000", "--k2", "3900", "--eps", "1e-6",
     "--outer-m", "16", "--outer-eps", "1e-3", "--out", "r.json"],
    [*_EXTRACT, "--family", "deor", "--n1", "64", "--m", "5"],
    [*_EXTRACT, "--family", "deor", "--n1", "16", "--m", "16"],
    [*_EXTRACT, "--family", "inner-product", "--n1", "64"],
    [*_EXTRACT, "--family", "composed", "--n1", "8", "--m", "2"],
    [*_EXTRACT, "--family", "trevisan", "--n1", "8", "--n2", "256", "--m", "3", "--eps", "0.9"],
    [*_EXTRACT, "--descriptor", "d.json"],
    ["report", "r.json", "--format", "csv"],
    ["verify", "--suite", "distinguishing", "--seed", "12345", "--budget", "3"],
    [*_EXTRACT, "--family", "deor", "--n1", "8", "--n2", "16"],
    [*_EXTRACT, "--family", "trevisan", "--n1", "8", "--m", "3"],
    ["verify", "--suite", "distinguishing", "--budget", "0"],
    ["plan", "--model", "quantum-markov", "--family", "deor", "--n1", "64", "--n2", "64",
     "--m", "4", "--k1", "50"],
    ["plan", "--model", "quantum-markov", "--family", "deor", "--n1", "64", "--n2", "64",
     "--m", "4", "--k1", "nan", "--k2", "50"],
    ["plan", "--model", "quantum-markov", "--family", "deor", "--n1", "7", "--n2", "64",
     "--m", "4", "--k1", "60", "--k2", "50"],
    ["plan", "--model", "quantum-markov", "--family", "deor", "--n1", "64", "--n2", "64",
     "--m", "100", "--k1", "50", "--k2", "50"],
    ["plan", "--model", "no-such-model", *_DEOR64],
    ["verify", "--suite", "no-such-suite"],
    ["verify", "--suite", "classical", "--seed", "-1"],
    ["verify", "--suite", "classical", "--seed", "abc"],
    ["plan"], ["extract"], ["extract", "x1"], ["verify"], ["report"],
    *[[command, "-h"] for command in ("plan", "extract", "verify", "report")],
    [*_EXTRACT, "--help", "--n1", "8"],
    ["--version"], ["-h"], ["--help"], [], ["no-such-command"], ["--vers"], ["-x"],
    ["--version", "plan"], ["-h", "extract"],
    [*_EXTRACT, "--desc", "d.json"],
    [*_EXTRACT, "--fam", "parity", "--n1", "4"],
    ["plan", "--mod", "plain", *_DEOR64],
    ["extract", "--", "x1", "x2", "y"],
    ["extract", "x1", "x2", "--", "y", "--n1", "8"],
    ["report", "--format", "csv", "--", "r.json"],
    ["extract", "x1", "x2", "y", "--"],
    [*_EXTRACT, "--n1", "8", "extra"],
    [*_EXTRACT, "--n1", "8", "--bogus", "1"],
    ["verify", "--suite", "classical", "--version"],
    ["report", "r.json", "--format", "csv", "r2.json"],
    ["plan", "--model", "plain", *_DEOR64, "--eps"],
    [*_EXTRACT, "--m", "2", "--m", "3"],
    ["plan", "--model=plain", "--family=deor", "--n1=64", "--n2=64", "--m=3", *_K],
]


def _outcome_of(call):
    """('returned', value, stdout, stderr), or ('exit', code, stdout, stderr) on SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return "returned", call(), out.getvalue(), err.getvalue()
        except SystemExit as exc:
            return "exit", exc.code, out.getvalue(), err.getvalue()


def _stub_commands(monkeypatch):
    """Replace every cmd_<x> by a stub that records (x, vars(args)) and returns 0."""
    reached = []
    for name in ("plan", "extract", "verify", "report"):
        monkeypatch.setattr(cli, "cmd_" + name,
                            lambda args, name=name: reached.append((name, vars(args))) or 0)
    return reached


@pytest.mark.parametrize("argv", _PARSE_GRID, ids=lambda argv: " ".join(argv) or "(empty)")
def test_main_parses_as_the_full_parser_does(monkeypatch, argv):
    """`main` reaches cmd_<x> with the namespace the full parser builds, or exits with its
    code, stdout and stderr; leftover arguments alone are reported with the usage line of
    the subcommand."""
    reached = _stub_commands(monkeypatch)
    expected = _outcome_of(lambda: vars(cli.build_parser().parse_args(argv)))
    got = _outcome_of(lambda: main(argv))
    if expected[0] == "returned":
        assert got == ("returned", 0, "", "")
        assert reached == [(expected[1]["cmd"], expected[1])]
        return
    assert reached == [] and got[:3] == expected[:3]
    kind, code, out, err = got
    if "error: unrecognized arguments:" not in expected[3]:
        assert err == expected[3]
    else:
        command = cli.build_parser().commands[argv[0]]
        message = expected[3].split(": error: ", 1)[1]
        assert err == f"{command.format_usage()}{command.prog}: error: {message}"


@pytest.mark.parametrize("argv", [
    ["plan", "--model", "quantum-markov", *_DEOR64],
    [*_EXTRACT, "--family", "deor", "--n1", "64", "--m", "5"],
    ["verify", "--suite", "distinguishing", "--seed", "12345", "--budget", "3"],
    ["report", "r.json", "--format", "csv"],
], ids=["plan", "extract", "verify", "report"])
def test_a_request_is_parsed_in_one_pass(monkeypatch, argv):
    reached = _stub_commands(monkeypatch)
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    cli.build_parser()  # built before counting: building parses nothing
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    assert main(argv) == 0
    assert calls == [f"xtract {argv[0]}"] and reached[0][0] == argv[0]


# ---------------------------------------------------------------------------
# refusals: a negative --seed, a malformed CSV report, an --l above the ceiling, a non-real eps
# ---------------------------------------------------------------------------

def _refused(argv):
    """Exit code and stderr of a request that must write nothing to stdout."""
    _, rc, out, err = _outcome_of(lambda: main(argv))
    assert out == "" and "Traceback" not in err
    return rc, err


@pytest.mark.parametrize("suite", VERIFY_SUITES)
def test_verify_refuses_a_negative_seed(suite):
    rc, err = _refused(["verify", "--suite", suite, "--seed", "-1", "--budget", "1"])
    assert rc == 2 and "argument --seed" in err


@pytest.mark.parametrize("text", [
    "key,value\nversion\n",
    'key,value\nversion,"1",extra\n',
    'key,value\nversion,"""1"""\nversion.x,2\n',
    'key,value\nversion.x,2\nversion,"""1"""\n',
    'key,value\nversion,"""1"""\nversion,"""2"""\n',
    'key,value\nrequest,{}\nrequest.x,2\n',
    "key,value\nrecords.0,1\nrecords.2,3\n",
    "key,value\nversion,\"" + "x" * 200_000 + "\"\n",
    "key,value\na..b,1\n",
    "key,value\n0,1\n",
    'key,value\na,"{""b"": 1}"\n',
], ids=["one_field", "three_fields", "leaf_then_branch", "branch_then_leaf", "key_twice",
        "dict_leaf_then_branch", "list_gap", "field_beyond_limit", "empty_part", "top_level_list",
        "object_leaf"])
def test_report_refuses_a_malformed_csv(tmp_path, text):
    path = tmp_path / "r.csv"
    path.write_text(text)
    with pytest.raises(DomainError):
        csv_to_report(text)
    rc, err = _refused(["report", str(path), "--format", "json"])
    assert rc == 3 and err.startswith("error: ")


def test_plan_refuses_an_l_above_the_ceiling():
    argv = ["plan", "--model", "quantum-markov", *_DEOR64, "--eps", "1e-6", "--l"]
    rc, err = _refused([*argv, "1000000000000"])
    assert rc == 4 and str(cli.MAX_PLAN_SOURCES) in err


@pytest.mark.parametrize("eps", [[], ["--eps", "1e-6"], ["--eps", "2.0"]],
                         ids=["solved", "eps", "eps_2.0"])
@pytest.mark.parametrize("l", ["1", "0"])
def test_plan_refuses_an_l_below_2_itself(l, eps):
    # [k1, k2] + [k1] * (l - 2) would hand two thresholds to an l below 2
    rc, err = _refused(["plan", "--model", "classical-markov", *_DEOR64, *eps, "--l", l])
    assert rc == 3 and f"--l (the number of sources) must be at least 2, got {l}" in err


def test_descriptor_file_with_a_string_eps_is_exit_3(tmp_path):
    d = trevisan_descriptor(8, 3, 0.9).to_dict()
    d["params"]["eps"] = "0.5"
    (tmp_path / "d.json").write_text(json.dumps(d))
    (tmp_path / "x").write_bytes(bytes(64))
    x, desc = str(tmp_path / "x"), str(tmp_path / "d.json")
    rc, err = _refused(["extract", x, x, str(tmp_path / "y"), "--descriptor", desc])
    assert rc == 3 and "real number" in err
    assert not (tmp_path / "y").exists()


def test_composed_descriptor_file_with_a_two_source_outer_is_exit_3(tmp_path):
    # its lengths chain, but a two-source outer has no seeded error law
    deor = deor_descriptor(3, 3).to_dict()
    d = {"family": "Composed", "params": {"outer": deor, "inner": deor}}
    (tmp_path / "d.json").write_text(json.dumps(d))
    (tmp_path / "x").write_bytes(bytes(1))
    x, desc = str(tmp_path / "x"), str(tmp_path / "d.json")
    rc, err = _refused(["extract", x, x, str(tmp_path / "y"), "--descriptor", desc])
    assert rc == 3 and "seeded" in err
    assert not (tmp_path / "y").exists()
