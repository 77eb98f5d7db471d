"""Byte-for-byte CLI output frozen in tests/golden/.

Each golden file holds `exit <code>` on its first line and the command's
stdout after it: `crlie check` in both formats on every catalog entry, on
three documents that reach the `ideal` and `extension` branches, on one
whose Schouten residuals are reduced against a nonzero U and on one that
fails closedness, plus `construct left-symmetric` (also on H != G in a dense
basis) and `schouten`.  After a deliberate change to the
reports, regenerate the files with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import copy
import io
from pathlib import Path

import pytest

from crlie import catalog, dump_document
from crlie.cli import main

GOLDEN = Path(__file__).with_name("golden")


def _with(entry_id, **blocks):
    doc = copy.deepcopy(catalog.get(entry_id).document)
    doc.update(blocks)
    return doc


# aff(R)^2 + R with H the aff(R)^2 block, rotation j and metric I, rewritten
# in a det-1 integer basis: the RREF basis of H has pivots 1, 2, 3, 5 and
# nonzero entries in column 4, and the left-symmetric product is nonzero
AFF_AFF_R_DENSE = {
    "algebra": {"dim": 5, "names": ["e1", "e2", "e3", "e4", "e5"], "brackets": [
        {"x": 1, "y": 2, "result": ["-1", "1", "0", "0", "1"]},
        {"x": 1, "y": 3, "result": ["-1", "1", "0", "0", "1"]},
        {"x": 2, "y": 3, "result": ["-2", "1", "0", "-1", "1"]},
        {"x": 2, "y": 4, "result": ["-2", "1", "0", "-1", "1"]},
        {"x": 3, "y": 4, "result": ["-1", "1", "0", "0", "1"]},
        {"x": 3, "y": 5, "result": ["-1", "0", "0", "-1", "0"]},
        {"x": 4, "y": 5, "result": ["-1", "0", "0", "-1", "0"]}]},
    "cr": {"H": [["2", "-2", "1", "-1", "-2"], ["-1", "1", "0", "0", "1"],
                 ["0", "0", "0", "0", "1"], ["1", "0", "0", "1", "0"]],
           "j": [["-3", "-6", "-2", "3", "1"], ["3", "5", "2", "-3", "0"],
                 ["-1", "-2", "-1", "1", "0"], ["1", "1", "1", "-1", "1"],
                 ["3", "5", "1", "-4", "0"]]},
    "metric": [["3", "4", "0", "-3", "0"], ["4", "7", "1", "-4", "-1"],
               ["0", "1", "3", "1", "0"], ["-3", "-4", "1", "4", "0"],
               ["0", "-1", "0", "0", "1"]]}


def _cases() -> dict:
    docs = {entry_id: catalog.get(entry_id).document for entry_id in catalog.ids()}
    # every ideal.* check passes
    docs["rn_flat_ideal"] = _with(
        "rn_flat", ideal=[["0", "0", "1", "0"], ["0", "0", "0", "1"]])
    # ideal.valid_input fails: span{e3} is not an ideal of so(3)
    docs["so3_cr_not_ideal"] = _with("so3_cr", ideal=[["0", "0", "1"]])
    # extension.valid_input fails: H is not the whole algebra
    docs["so3_cr_extension"] = _with(
        "so3_cr", extension={"V_dim": 1,
                             "alpha": [{"x": 1, "y": 2, "result": ["1"]}]})
    # U tilted off the coordinate axes: the residuals of both Schouten checks
    # are reduced against a nonzero U
    docs["so3_x_r2_tilted_U"] = _with(
        "so3_x_r2", poisson={
            **catalog.get("so3_x_r2").document["poisson"],
            "U": [["0", "0", "1", "1", "0"]],
            "r": [{"i": 1, "j": 2, "coeff": "1"}, {"i": 1, "j": 4, "coeff": "1"}]})
    # aff(R)^2 with the metric I + 1/2 (coupling of the two blocks): omega stays
    # antisymmetric and nondegenerate, closedness fails with witnesses
    docs["aff_aff_coupled"] = _with("aff_aff", metric=[
        ["1", "0", "1/2", "0"], ["0", "1", "0", "1/2"],
        ["1/2", "0", "1", "0"], ["0", "1/2", "0", "1"]])
    cases = {}
    for name, doc in docs.items():
        for fmt in ("structured", "text"):
            cases[f"check-{name}-{fmt}"] = (["check", "--format", fmt], doc)
    cases["construct-aff_aff"] = (["construct", "left-symmetric"], docs["aff_aff"])
    cases["construct-aff_aff_r_dense"] = (["construct", "left-symmetric"], AFF_AFF_R_DENSE)
    cases["schouten-sl2"] = (["schouten"], docs["sl2"])
    cases["schouten-so3_r_mixed"] = (["schouten"], docs["so3_r_mixed"])
    cases["schouten-so3_x_r2_tilted_U"] = (["schouten"], docs["so3_x_r2_tilted_U"])
    return cases


CASES = _cases()


def render(argv, doc, tmp_dir) -> bytes:
    path = Path(tmp_dir) / "doc.json"
    path.write_text(dump_document(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + [str(path)])
    return f"exit {code}\n{out.getvalue()}".encode()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case, tmp_path):
    argv, doc = CASES[case]
    assert render(argv, doc, tmp_path) == (GOLDEN / f"{case}.txt").read_bytes()


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case, (argv, doc) in CASES.items():
            (GOLDEN / f"{case}.txt").write_bytes(render(argv, doc, tmp))
