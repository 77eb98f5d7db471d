import copy
import json
import sys

import pytest

from crlie import (
    InputError, algebra_document, catalog, dump_document, parse_document,
    parse_text,
)
from crlie.cli import main


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
])
def test_malformed_field_types_exit_two(tmp_path, capsys, doc, message):
    assert main(["check", write(tmp_path, doc)]) == 2
    assert f"error: {message}" in capsys.readouterr().err


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
], ids=["duplicate_alpha", "metric_on_zero_H"])
def test_invalid_blocks_exit_two(tmp_path, capsys, doc, message):
    assert main(["check", write(tmp_path, doc)]) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_cr_only_document_with_zero_H_passes(tmp_path, capsys):
    doc = {"algebra": catalog.get("rn_flat").document["algebra"],
           "cr": {"H": [], "j": ZERO_J4}}
    assert main(["check", write(tmp_path, doc)]) == 0
    out = capsys.readouterr().out
    assert "[PASS] cr.condition2" in out and "[PASS] cr.condition3" in out


def test_algebra_document_builder_round_trip():
    from crlie import so3
    doc = {"algebra": algebra_document(so3())}
    assert parse_document(doc).algebra == so3()
    assert parse_text(dump_document(doc)).document == doc


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
