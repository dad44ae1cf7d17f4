import contextlib
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
from markovext.cli import csv_to_report, main, report_to_csv, report_to_json
from markovext.extractors import compose, deor_descriptor, deor_extract, parity_seeded_descriptor
from markovext.paramcalc import deor_quantum_corollary

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
    expected = deor_extract(BitString(0x2A, 8), BitString(0x0F, 8), 4)
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


def test_extract_descriptor_file(tmp_path):
    in1, in2, out = tmp_path / "a", tmp_path / "b", tmp_path / "y"
    in1.write_bytes(bytes([0x2A]))
    in2.write_bytes(bytes([0x0F]))
    desc = tmp_path / "d.json"
    desc.write_text(json.dumps({"family": "DEOR", "n1": 8, "n2": 8, "m": 4, "params": {}}))
    rc = main(["extract", str(in1), str(in2), str(out), "--descriptor", str(desc)])
    assert rc == 0
    assert out.read_bytes() == deor_extract(BitString(0x2A, 8), BitString(0x0F, 8), 4).to_bytes()


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
        "error_1_l_negative", "extract_deor_eps"])
def test_malformed_request_exit_code(tmp_path, capsys, argv, code):
    (tmp_path / "a").write_bytes(bytes(64))
    (tmp_path / "bytes").write_bytes(bytes(range(256)))
    (tmp_path / "nan.json").write_text('{"version": "1", "records": [{"distance": NaN}]}')
    (tmp_path / "inf.csv").write_text("key,value\nrecords.0.distance,-Infinity\n")
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
