import copy
import importlib.util
import io
import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crlie import (
    InputError, catalog, dump_document, parse_document,
    parse_text, run_checks,
)
from crlie.cli import main

from oracles import parse_over_fractions


def so3_doc():
    return catalog.get("so3_cr").document


# -- parser diagnostics ------------------------------------------------------

def test_malformed_rational_reported_with_location():
    doc = {"algebra": {"dim": 2, "brackets": [
        {"x": 1, "y": 2, "result": ["1/0", "0"]}]}}
    with pytest.raises(InputError) as exc:
        parse_document(doc)
    assert any("algebra.brackets[0]" in d for d in exc.value.diagnostics)


def test_explicit_antisymmetry_conflict_names_indices():
    doc = {"algebra": {"dim": 3, "brackets": [
        {"x": 1, "y": 2, "result": ["0", "0", "1"]},
        {"x": 2, "y": 1, "result": ["0", "0", "1"]}]}}
    with pytest.raises(InputError) as exc:
        parse_document(doc)
    assert any("antisymmetry violated at (1,2,3)" in d
               for d in exc.value.diagnostics)


def test_index_out_of_range():
    doc = {"algebra": {"dim": 2, "brackets": [
        {"x": 1, "y": 3, "result": ["0", "0"]}]}}
    with pytest.raises(InputError) as exc:
        parse_document(doc)
    assert any("out of range" in d for d in exc.value.diagnostics)


def test_jacobi_violation_rejected():
    # [e1,e2]=e3, [e1,e3]=e1, [e2,e3]=0: the cyclic sum over (1,2,3) is e3
    doc = {"algebra": {"dim": 3, "brackets": [
        {"x": 1, "y": 2, "result": ["0", "0", "1"]},
        {"x": 1, "y": 3, "result": ["1", "0", "0"]}]}}
    with pytest.raises(InputError) as exc:
        parse_document(doc)
    assert any("jacobi" in d.lower() for d in exc.value.diagnostics)


def test_not_json():
    with pytest.raises(InputError) as exc:
        parse_text("{not json")
    assert any("not valid JSON" in d for d in exc.value.diagnostics)


def test_metric_without_cr_block():
    doc = {"algebra": {"dim": 2, "brackets": []}, "metric": [["1", "0"], ["0", "1"]]}
    with pytest.raises(InputError) as exc:
        parse_document(doc)
    assert any(d.startswith("metric: requires") for d in exc.value.diagnostics)


def test_multiple_diagnostics_collected():
    doc = {"algebra": {"dim": 2, "brackets": [
        {"x": 1, "y": 3, "result": ["0", "0"]},
        {"x": 2, "y": 2, "result": ["0", "0"]}]}}
    with pytest.raises(InputError) as exc:
        parse_document(doc)
    assert len(exc.value.diagnostics) == 2


def _with_block(entry_id, key, **fields):
    doc = copy.deepcopy(catalog.get(entry_id).document)
    doc[key].update(fields)
    return doc


@pytest.mark.parametrize("doc, message", [
    ({"algebra": {"dim": 2}, "cr": []}, "cr: must be an object"),
    ({"algebra": {"dim": 2}, "poisson": "U"}, "poisson: must be an object"),
    ({"algebra": {"dim": 2}, "extension": []}, "extension: must be an object"),
    ({"algebra": {"dim": True}}, "algebra.dim: missing or not an integer"),
    ({"algebra": {"dim": 2, "names": "ab"}}, "algebra.names: must be a list of strings"),
    ({"algebra": {"dim": 2, "brackets": 5}}, "algebra.brackets: must be a list"),
    ({"algebra": {"dim": 2, "brackets": [{"x": True, "y": 2, "result": ["0", "1"]}]}},
     "algebra.brackets[0]: not an integer"),
    (_with_block("sl2", "poisson", **{"lambda": 5}), "poisson.lambda: must be a list"),
    (_with_block("heisenberg", "extension", alpha=5), "extension.alpha: must be a list"),
    (_with_block("heisenberg", "extension", V_dim=True),
     "extension.V_dim: missing or not an integer"),
    ({"algebra": {"dim": 2.9}}, "algebra.dim: missing or not an integer"),
    ({"algebra": {"dim": 2, "brackets": [{"x": 1.5, "y": 2, "result": ["0", "1"]}]}},
     "algebra.brackets[0]: not an integer"),
    # a string where a list of rationals belongs is refused, not read digit by digit
    ({"algebra": {"dim": 3, "brackets": [{"x": 1, "y": 2, "result": "001"}]}},
     "algebra.brackets[0]: expected a list of rationals, not the string '001'"),
    (_with_block("so3_cr", "cr", H=["100", "010"]),
     "cr.H: expected a list of rationals, not the string '100'"),
    (_with_block("so3_cr", "cr", j=[["0", "-1", "0"], "100", ["0", "0", "0"]]),
     "cr.j: expected a list of rationals, not the string '100'"),
    ({**catalog.get("so3_cr").document, "metric": ["100", "010", "001"]},
     "metric: expected a list of rationals, not the string '100'"),
    (_with_block("heisenberg", "extension", V_dim=2, alpha=[{"x": 1, "y": 2, "result": "10"}]),
     "extension.alpha[0]: expected a list of rationals, not the string '10'"),
    # nor is an object, which would otherwise be read as the list of its keys
    ({"algebra": {"dim": 3, "brackets": [{"x": 1, "y": 2, "result": {"0": "a", "1": "b", "2": "c"}}]}},
     "algebra.brackets[0]: expected a list of rationals, not the object {'0': 'a', '1': 'b', '2': 'c'}"),
    (_with_block("so3_cr", "cr", H=[{"1": 0, "0": 0, "0/2": 0}, ["0", "1", "0"]]),
     "cr.H: expected a list of rationals, not the object {'1': 0, '0': 0, '0/2': 0}"),
    (_with_block("so3_cr", "cr", j=[{"0": 1, "-1": 1, "0/1": 1}, ["1", "0", "0"], ["0", "0", "0"]]),
     "cr.j: expected a list of rationals, not the object {'0': 1, '-1': 1, '0/1': 1}"),
    ({**catalog.get("so3_cr").document,
      "metric": [{"1": 0, "0": 0, "-0": 0}, ["0", "1", "0"], ["0", "0", "1"]]},
     "metric: expected a list of rationals, not the object {'1': 0, '0': 0, '-0': 0}"),
    (_with_block("sl2", "poisson", U=[{"0": 1, "-0": 1, "1": 1}]),
     "poisson.U: expected a list of rationals, not the object {'0': 1, '-0': 1, '1': 1}"),
    ({**catalog.get("rn_flat").document, "ideal": [{"0": 0, "-0": 0, "1": 0, "0/1": 0},
                                                   ["0", "0", "0", "1"]]},
     "ideal: expected a list of rationals, not the object {'0': 0, '-0': 0, '1': 0, '0/1': 0}"),
    (_with_block("heisenberg", "extension", alpha=[{"x": 1, "y": 2, "result": {"1": "v"}}]),
     "extension.alpha[0]: expected a list of rationals, not the object {'1': 'v'}"),
    # a pair of alpha given both ways must be antisymmetric, as for brackets
    (_with_block("heisenberg", "extension", alpha=[{"x": 1, "y": 2, "result": ["1"]},
                                                   {"x": 2, "y": 1, "result": ["1"]}]),
     "extension.alpha: antisymmetry violated at (1,2,1): c=1 vs c=1"),
    # a block of rows that is not a list is refused, not read as no rows
    *((_with_block("so3_cr", "cr", **{key: value}), f"cr.{key}: must be a list")
      for key in ("H", "j") for value in ({}, "")),
    *(({**catalog.get("so3_cr").document, "metric": value}, "metric: must be a list")
      for value in ({}, "")),
    *((_with_block("sl2", "poisson", U=value), "poisson.U: must be a list") for value in ({}, "")),
    *(({**catalog.get("sl2").document, "ideal": value}, "ideal: must be a list")
      for value in ({}, "")),
])
def test_malformed_field_types_exit_two(tmp_path, capsys, doc, message):
    assert main(["check", write(tmp_path, doc)]) == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [[1, 2, "1"], "abc", None], ids=["list", "string", "null"])
@pytest.mark.parametrize("block", ["algebra.brackets", "extension.alpha",
                                   "poisson.lambda", "poisson.r"])
def test_list_entry_that_is_not_an_object_exits_two(tmp_path, capsys, block, entry):
    doc = {"algebra.brackets": {"algebra": {"dim": 2, "brackets": [entry]}},
           "extension.alpha": _with_block("heisenberg", "extension", alpha=[entry]),
           "poisson.lambda": _with_block("sl2", "poisson", **{"lambda": [entry]}),
           "poisson.r": _with_block("sl2", "poisson", r=[entry])}[block]
    message = (f"{block}[0]: must be an object" if block.endswith(("brackets", "alpha"))
               else f"{block}: bad entry {entry!r}: must be an object")
    assert main(["check", write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}\n" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("data, message", [
    (b"\xff\xfe{}", "is not UTF-8 text"),
    (b"[" * 100000 + b"]" * 100000, "not valid JSON"),
    pytest.param(b'{"algebra": {"dim": ' + b"1" * 5000 + b"}}", "not valid JSON",
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="no limit on integer digits")),
], ids=["non_utf8", "deep_nesting", "too_many_digits"])
def test_unreadable_bytes_exit_two(tmp_path, capsys, data, message):
    path = tmp_path / "in.json"
    path.write_bytes(data)
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


ZERO_J4 = [["0"] * 4] * 4


@pytest.mark.parametrize("doc, message", [
    (_with_block("heisenberg", "extension", alpha=[
        {"x": 1, "y": 2, "result": ["1"]}, {"x": 1, "y": 2, "result": ["2"]}]),
     "extension.alpha[1]: duplicate alpha for (1,2)"),
    (_with_block("rn_flat", "cr", H=[], j=ZERO_J4), "metric: H must be nonzero"),
    (_with_block("heisenberg", "extension", V_dim=0, alpha=[]),
     "extension.V_dim: must be >= 1"),
    (_with_block("heisenberg", "extension", V_dim=-2, alpha=[]),
     "extension.V_dim: must be >= 1"),
    (_with_block("so3_bad_metric", "algebra", names=["x", "x", "x"]),
     "algebra.names: duplicate name 'x'"),
    (_with_block("sl2", "poisson", **{"lambda": [{"i": 1, "j": 2, "coeff": "1"},
                                                 {"i": 1, "j": 2, "coeff": "-1"}]}),
     "poisson.lambda: duplicate entry for (1,2)"),
    (_with_block("sl2", "poisson", r=[{"i": 2, "j": 3, "coeff": "1"},
                                      {"i": 2, "j": 3, "coeff": "1/2"}]),
     "poisson.r: duplicate entry for (2,3)"),
    (_with_block("sl2", "poisson", **{"lambda": [{"i": 2, "j": 1, "coeff": "1"}]}),
     "poisson.lambda: indices (2,1) must satisfy 1 <= i < j <= 3"),
    (_with_block("sl2", "poisson", r=[{"i": 1, "j": 4, "coeff": "1"}]),
     "poisson.r: indices (1,4) must satisfy 1 <= i < j <= 3"),
    (_with_block("sl2", "poisson", **{"lambda": [{"i": 1, "j": 2, "coeff": "1/0"}]}),
     "poisson.lambda: bad entry {'i': 1, 'j': 2, 'coeff': '1/0'}: malformed rational"),
], ids=["duplicate_alpha", "metric_on_zero_H", "zero_V_dim", "negative_V_dim",
        "duplicate_names", "duplicate_lambda", "duplicate_r", "lambda_index_order",
        "r_index_range", "lambda_zero_denominator"])
def test_invalid_blocks_exit_two(tmp_path, capsys, doc, message):
    assert main(["check", write(tmp_path, doc)]) == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("doc, err", [
    (_with_block("so3_cr", "cr", H=[["1", "0"], ["0", "1", "0"]]),
     "error: cr.H: row of wrong dimension (ambient is 3)\n"
     "error: metric: requires a valid cr block\n"),
    (_with_block("so3_cr", "cr", H=[["1", "0", "0", "0"], ["0", "1", "0"]]),
     "error: cr.H: row of wrong dimension (ambient is 3)\n"
     "error: metric: requires a valid cr block\n"),
    (_with_block("sl2", "poisson", U=[["0", "1"]]),
     "error: poisson.U: row of wrong dimension (ambient is 3)\n"),
    ({**catalog.get("rn_flat").document, "ideal": [["0", "0", "1"]]},
     "error: ideal: row of wrong dimension (ambient is 4)\n"),
], ids=["short_H_row", "long_H_row", "short_U_row", "short_ideal_row"])
def test_subspace_row_of_wrong_dimension_exits_two(tmp_path, capsys, doc, err):
    assert main(["check", write(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == err


def test_indefinite_metric_exits_two_with_its_leading_minor(tmp_path, capsys):
    doc = {**catalog.get("so3_cr").document,
           "metric": [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1"]]}
    assert main(["check", write(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == (
        "error: metric: metric is not positive definite (leading minor 2 = -1)\n")


def test_a_leading_minor_past_the_digit_limit_is_spelled_in_the_diagnostic(tmp_path, capsys):
    # minor 2 of [[1, 10^2200], [10^2200, 1]] is 1 - 10^4400, 4,400 nines: more
    # digits than str() prints from an int
    doc = copy.deepcopy(catalog.get("so3_cr").document)
    doc["metric"][0][1] = doc["metric"][1][0] = "1" + "0" * 2200
    assert main(["check", write(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == (
        "error: metric: metric is not positive definite (leading minor 2 = -"
        + "9" * 4400 + ")\n")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter reads integers of any length")
@pytest.mark.parametrize("spelling", ["exponent", "digits", "shifted exponent"])
def test_a_lambda_coefficient_past_the_digit_limit_exits_two_however_spelled(
        tmp_path, capsys, spelling):
    # 10^limit has one digit more than int() reads from a string
    limit = sys.get_int_max_str_digits()
    doc = copy.deepcopy(catalog.get("sl2").document)
    doc["poisson"]["lambda"][0]["coeff"] = {
        "exponent": f"1e{limit}", "digits": "1" + "0" * limit,
        "shifted exponent": f"10e{limit - 1}"}[spelling]
    assert main(["check", write(tmp_path, doc)]) == 2
    assert "error: poisson.lambda" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["check"], ["check", "--format", "structured"],
                                     ["schouten"]])
def test_a_schouten_coefficient_past_the_digit_limit_is_printed(tmp_path, capsys, command):
    # 10^3000 is read, and [Lambda, Lambda] = 2 10^6000 e1^e2^e3 has more
    # digits than str() prints from an int
    doc = copy.deepcopy(catalog.get("sl2").document)
    doc["poisson"]["lambda"][0]["coeff"] = "1e3000"
    assert main([*command, write(tmp_path, doc)]) in (0, 1)
    assert "2" + "0" * 6000 in capsys.readouterr().out


def test_lambda_coefficients_over_different_denominators():
    # 1/2 e1^e2 - 2/3 e2^e3 = (3 e1^e2 - 4 e2^e3) / 6
    doc = _with_block("sl2", "poisson", **{"lambda": [{"i": 1, "j": 2, "coeff": "1/2"},
                                                      {"i": 2, "j": 3, "coeff": "-2/3"}]})
    lam = parse_document(doc).poisson.Lambda
    assert (lam.scale, lam.ints) == (6, {(0, 1): 3, (1, 2): -4})


def test_alpha_is_not_measured_against_an_invalid_V_dim():
    doc = _with_block("heisenberg", "extension", V_dim=-2,
                      alpha=[{"x": 1, "y": 2, "result": ["1"]}])
    with pytest.raises(InputError) as exc:
        parse_document(doc)
    assert exc.value.diagnostics == ["extension.V_dim: must be >= 1"]


def test_bare_dimension_builds_nothing_of_size_dim_squared():
    # the algebra is stored as its nonzero brackets, of which there are none;
    # the dense tensor of dim 200 alone would hold 8 million entries
    tracemalloc.start()
    try:
        rep = run_checks(parse_text('{"algebra": {"dim": 200}}'))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.passed and not rep.results
    assert peak < 2 ** 20


def test_cr_only_document_with_zero_H_passes(tmp_path, capsys):
    doc = {"algebra": catalog.get("rn_flat").document["algebra"],
           "cr": {"H": [], "j": ZERO_J4}}
    assert main(["check", write(tmp_path, doc)]) == 0
    out = capsys.readouterr().out
    assert "[PASS] cr.condition2" in out and "[PASS] cr.condition3" in out


# -- CLI ---------------------------------------------------------------------

def write(tmp_path, doc, name="in.json"):
    p = tmp_path / name
    p.write_text(dump_document(doc))
    return str(p)


def test_check_pass_exit_zero(tmp_path, capsys):
    assert main(["check", write(tmp_path, so3_doc())]) == 0
    out = capsys.readouterr().out
    assert "[PASS] cr.condition2" in out
    assert "FAIL" not in out
    assert out.strip().endswith("overall: pass")


def test_check_failure_exit_one_with_witness(tmp_path, capsys):
    path = write(tmp_path, catalog.get("so3_bad_metric").document)
    assert main(["check", path, "--format", "structured"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "fail"
    failed = [r for r in payload["checks"] if r["status"] == "fail"]
    assert failed and failed[0]["check_id"] == "kahler.omega_antisymmetric"
    assert failed[0]["witnesses"][0]["x"] == "e1"


def test_check_input_error_exit_two(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["check", missing]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_stdin(tmp_path, capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(dump_document(so3_doc())))
    assert main(["check", "-"]) == 0


def test_structured_reports_byte_identical(tmp_path, capsys):
    path = write(tmp_path, catalog.get("sl2").document)
    main(["check", path, "--format", "structured"])
    first = capsys.readouterr().out
    main(["check", path, "--format", "structured"])
    assert capsys.readouterr().out == first


def test_exit_code_matrix_over_catalog(tmp_path, capsys):
    for entry_id in catalog.ids():
        entry = catalog.get(entry_id)
        expected = 0 if all(v == "pass" for v in entry.expected.values()) else 1
        assert main(["check", write(tmp_path, entry.document)]) == expected
        capsys.readouterr()


def test_construct_left_symmetric(tmp_path, capsys):
    path = write(tmp_path, catalog.get("aff_aff").document)
    assert main(["construct", "left-symmetric", path]) == 0
    out = capsys.readouterr().out
    assert "left-symmetric product on H:" in out
    assert "induced bracket" in out


def test_construct_requires_metric(tmp_path, capsys):
    doc = {"algebra": {"dim": 2, "brackets": []}}
    assert main(["construct", "left-symmetric", write(tmp_path, doc)]) == 2


def test_schouten_command(tmp_path, capsys):
    path = write(tmp_path, catalog.get("sl2").document)
    assert main(["schouten", path]) == 0
    out = capsys.readouterr().out
    assert "[Lambda, Lambda]" in out and "pass" in out


def test_schouten_failure_exit_one(tmp_path, capsys):
    path = write(tmp_path, catalog.get("so3_r_mixed").document)
    assert main(["schouten", path]) == 1


def test_unexpected_exception_exits_three_without_traceback(tmp_path, capsys, monkeypatch):
    def fail(payloads):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr("crlie.cli.run_checks", fail)
    assert main(["check", write(tmp_path, so3_doc())]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: boom second line\n"
    assert "Traceback" not in err


class ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError.
    Its descriptor is a scratch file's, so that pointing it elsewhere is safe."""

    def __init__(self, path):
        self.file = open(path, "w")

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.file.fileno()


@pytest.fixture
def closed_stdout(tmp_path, monkeypatch):
    pipe = ClosedPipe(tmp_path / "stdout")
    monkeypatch.setattr("sys.stdout", pipe)
    yield
    pipe.file.close()


@pytest.mark.parametrize("command, entry, status", [
    (["check"], "so3_cr", 0), (["check", "--format", "structured"], "so3_bad_metric", 1),
    (["schouten"], "sl2", 0), (["schouten"], "so3_r_mixed", 1),
    (["construct", "left-symmetric"], "aff_aff", 0)])
def test_a_closed_pipe_keeps_the_exit_code_and_stderr_quiet(
        tmp_path, capsys, closed_stdout, command, entry, status):
    assert main([*command, write(tmp_path, catalog.get(entry).document)]) == status
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [["catalog", "list"], ["catalog", "dump", "so3_cr"]])
def test_a_closed_pipe_after_a_catalog_command_exits_zero(capsys, closed_stdout, argv):
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_a_reader_closed_before_any_output_leaves_the_verdict(tmp_path):
    # the reading end is closed before the child starts, so its first write
    # to stdout fails, however short the report
    path = write(tmp_path, catalog.get("so3_bad_metric").document)
    src = str(Path(importlib.util.find_spec("crlie").origin).parent.parent)
    read, written = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "crlie.cli", "check", path],
                              stdout=written, stderr=subprocess.PIPE, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
    finally:
        os.close(written)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_catalog_list_and_dump(capsys):
    assert main(["catalog", "list"]) == 0
    listed = capsys.readouterr().out
    for entry_id in catalog.ids():
        assert entry_id in listed
    assert main(["catalog", "dump", "so3_cr"]) == 0
    dumped = capsys.readouterr().out
    assert parse_text(dumped).document == so3_doc()


def test_catalog_unknown_id_exit_two(capsys):
    assert main(["catalog", "dump", "missing"]) == 2
    assert "unknown catalog entry" in capsys.readouterr().err


def test_dump_then_check_pipeline(tmp_path, capsys):
    main(["catalog", "dump", "heisenberg"])
    text = capsys.readouterr().out
    p = tmp_path / "h.json"
    p.write_text(text)
    assert main(["check", str(p)]) == 0


# -- the reader against the former `Fraction` conversion -----------------------

def bench_families():
    """The module `bench/families.py`, which generates the benchmark documents."""
    path = Path(__file__).parent.parent / "bench" / "families.py"
    spec = importlib.util.spec_from_file_location("families", path)
    families = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("families", families)
    spec.loader.exec_module(families)
    return families


def workload_documents(seed):
    """{name: document} for the ladders of the three benchmark workloads."""
    families = bench_families()
    return {f"{w}:{c.name}": c.document
            for w in ("kahler_solvable", "semisimple_poisson", "reject_dense")
            for c in families.workload_cases(w, seed)}


DOCUMENTS = {**{e: catalog.get(e).document for e in catalog.ids()}, **workload_documents(1)}


@pytest.mark.parametrize("name", [name for name, doc in DOCUMENTS.items() if "poisson" in doc])
def test_schouten_command_agrees_with_the_membership_check(tmp_path, capsys, name):
    # `crlie schouten` prints the [Lambda, Lambda] and the verdict that
    # `check` reports
    result = run_checks(parse_document(DOCUMENTS[name])).result("poisson.schouten_membership")
    status = main(["schouten", write(tmp_path, DOCUMENTS[name])])
    printed = capsys.readouterr().out.splitlines()[0]
    assert status == (0 if result.passed else 1)
    assert printed.removeprefix("[Lambda, Lambda] = ") == result.detail.removeprefix("[L,L] = ")


def payload_parts(p):
    """The parts of a parse that hold rationals, in the form of
    `parse_over_fractions`."""
    out = {"table": (p.algebra.table.scale, p.algebra.table.rows)}
    if p.cr is not None:
        out["H"], out["j"] = p.cr.H, p.cr.j
    if p.kahler is not None:
        out["metric"] = p.kahler.metric
    if p.poisson is not None:
        out["U"], out["lambda"] = p.poisson.U, p.poisson.Lambda
    if p.poisson_r is not None:
        out["r"] = p.poisson_r
    if p.ideal is not None:
        out["ideal"] = p.ideal
    if p.extension is not None:
        out["alpha"] = (p.extension.scale, p.extension.rows)
    return out


def respell(s: str, mode: int) -> str:
    """The rational s as "+p" (mode 0, when s >= 0), as an exact decimal
    (mode 1, when the denominator divides a power of ten) or padded with
    spaces: spellings `Fraction` reads and the canonical form excludes."""
    q = Fraction(s)
    if mode == 0 and q >= 0:
        return "+" + s
    k = next((k for k in range(1, 12) if 10 ** k % q.denominator == 0), None)
    if mode == 1 and k is not None:
        digits = str(abs(q.numerator) * 10 ** k // q.denominator).rjust(k + 1, "0")
        return f"{'-' if q < 0 else ''}{digits[:len(digits) - k]}.{digits[len(digits) - k:]}"
    return f" {s} "


def respelled(doc):
    """A copy of doc with its rationals respelled in turn by `respell`."""
    doc, modes = copy.deepcopy(doc), itertools.cycle(range(3))

    def row(values):
        return [respell(v, next(modes)) for v in values]

    for e in doc["algebra"].get("brackets", []):
        e["result"] = row(e["result"])
    for block, key in [(doc.get("cr"), "H"), (doc.get("cr"), "j"), (doc.get("poisson"), "U")]:
        if block is not None:
            block[key] = [row(r) for r in block[key]]
    for key in ("metric", "ideal"):
        if key in doc:
            doc[key] = [row(r) for r in doc[key]]
    for e in doc.get("poisson", {}).get("lambda", []) + doc.get("poisson", {}).get("r", []):
        e["coeff"] = respell(e["coeff"], next(modes))
    for e in doc.get("extension", {}).get("alpha", []):
        e["result"] = row(e["result"])
    return doc


def report_text(doc) -> str:
    return json.dumps(run_checks(parse_document(doc)).to_dict(), indent=2)


def test_respell_covers_every_spelling():
    assert [respell(s, m) for s, m in [("3", 0), ("-3", 0), ("-1/4", 1), ("7", 1),
                                       ("1/3", 1), ("1/2", 2)]] == \
        ["+3", " -3 ", "-0.25", "7.0", " 1/3 ", " 1/2 "]


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_parse_matches_fraction_conversion(name):
    """The table, H, j, the metric, U, the ideal, Lambda, r and alpha hold
    the same scales and rows as the former `Fraction` conversion gives,
    for the document and for a respelled copy, whose report is also
    byte-identical."""
    doc = DOCUMENTS[name]
    want = parse_over_fractions(doc)
    assert payload_parts(parse_document(doc)) == want
    again = respelled(doc)
    assert again != doc
    assert payload_parts(parse_document(again)) == want
    assert report_text(again) == report_text(doc)


# -- the CLI contract on mutated documents -------------------------------------

MUTANTS = (None, True, False, 0.5, -1e308, "1/0", [], {})


def paths(node, prefix=()):
    """The path of every value inside a document, as key and index tuples."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


def catalog_document(draw):
    return copy.deepcopy(catalog.get(draw(st.sampled_from(catalog.ids()))).document)


def draw_place(draw, doc):
    """(container, key) of a value drawn from inside doc."""
    *parent, key = draw(st.sampled_from(list(paths(doc))))
    for step in parent:
        doc = doc[step]
    return doc, key


@st.composite
def mutated_documents(draw):
    """A catalog document with 1-3 values swapped for a null, a bool, a float,
    "1/0", an empty list or object, or deleted.  No mutant is an integer, so
    every dim stays that of the catalog entry (at most 1000)."""
    doc = catalog_document(draw)
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw_place(draw, doc)
        if draw(st.booleans()):
            del container[key]
        else:
            container[key] = copy.deepcopy(draw(st.sampled_from(MUTANTS)))
        if not doc:
            break
    return doc


def run_cli(argv, text):
    """(exit status, stderr) of `main(argv)` reading text from stdin."""
    streams = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    try:
        return main(argv), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = streams


def assert_cli_contract(doc):
    """check, schouten and construct exit 0, 1 or 2 on doc, with no internal error."""
    text = json.dumps(doc)
    for argv in (["check", "-"], ["schouten", "-"], ["construct", "left-symmetric", "-"]):
        status, err = run_cli(argv, text)
        assert status in (0, 1, 2), (argv, doc)
        assert "internal error" not in err, (argv, doc, err)


@settings(max_examples=150, deadline=None)
@given(mutated_documents())
def keep_the_cli_contract(doc):
    assert_cli_contract(doc)


def test_mutated_catalog_documents_keep_the_cli_contract():
    # exit 0, 1 or 2 and no internal error for check, schouten and construct
    start = time.perf_counter()
    keep_the_cli_contract()
    assert time.perf_counter() - start < 5


# -- the CLI contract on random JSON trees -------------------------------------

VOCABULARY = ("algebra", "dim", "brackets", "x", "y", "result", "cr", "H", "j", "metric",
              "poisson", "U", "lambda", "r", "i", "coeff", "ideal", "extension", "V_dim",
              "alpha", "names")

# integers stay in 0..40, so that no tree asks for a large algebra; 1..3 is
# drawn on its own as well, so that indices often fall inside a small dim
leaves = st.one_of(st.none(), st.booleans(), st.integers(1, 3), st.integers(0, 40),
                   st.sampled_from(["0", "1", "-1", "1/2", "-2/3", "e1", ""]))
trees = st.recursive(leaves, lambda children: st.one_of(
    st.lists(children, max_size=4), st.dictionaries(st.sampled_from(VOCABULARY), children,
                                                    max_size=4)), max_leaves=12)
blocks = st.dictionaries(st.sampled_from(VOCABULARY), trees, max_size=5)


@st.composite
def grafted_documents(draw):
    """A catalog document with one value replaced by a random tree."""
    doc = catalog_document(draw)
    container, key = draw_place(draw, doc)
    container[key] = draw(st.one_of(leaves, trees))
    return doc


@settings(max_examples=150, deadline=None)
@given(st.one_of(trees, grafted_documents(), st.builds(
    lambda a, n, doc: {**doc, "algebra": {**a, "dim": n}}, blocks, st.integers(1, 40), blocks)))
def keep_the_cli_contract_on_trees(doc):
    assert_cli_contract(doc)


def test_random_json_trees_keep_the_cli_contract():
    # trees built from the format's keys, alone, grafted into a catalog
    # document, or as the blocks of a document whose algebra has a dim
    start = time.perf_counter()
    keep_the_cli_contract_on_trees()
    assert time.perf_counter() - start < 5
