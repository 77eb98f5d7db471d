"""Byte-for-byte CLI output frozen in tests/golden/.

Each golden file holds `exit <code>` on its first line and the command's
stdout after it: `crlie check` in both formats on every catalog entry, on
documents that reach the `ideal` and `extension` branches (passing and
failing), on one whose Schouten residuals are reduced against a nonzero U,
on one that fails closedness, on one that fails CR condition (2), on one
whose ideal is G and whose H is {0} and on one whose center meets H
properly, plus
`construct left-symmetric` (also on H != G in a dense basis) and
`schouten`.  The `demo-*` files hold the stdout of the scripts in `demos/`,
which print from the library's integer tables, as `crlie construct` does.
After a deliberate change to the reports, regenerate the files with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import copy
import io
import runpy
from pathlib import Path

import pytest

from crlie import catalog, dump_document
from crlie.cli import main

GOLDEN = Path(__file__).with_name("golden")
DEMOS = Path(__file__).parent.parent / "demos"


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
    # so(3) + so(3) with j crossing the factors (e1 -> e4, e2 -> e5):
    # [e1, e2] - [j e1, j e2] = e3 - e6 leaves H, so CR condition (2) fails
    docs["so3_so3_crossing"] = {
        "algebra": {"dim": 6, "names": ["e1", "e2", "e3", "e4", "e5", "e6"], "brackets": [
            {"x": 1, "y": 2, "result": ["0", "0", "1", "0", "0", "0"]},
            {"x": 1, "y": 3, "result": ["0", "-1", "0", "0", "0", "0"]},
            {"x": 2, "y": 3, "result": ["1", "0", "0", "0", "0", "0"]},
            {"x": 4, "y": 5, "result": ["0", "0", "0", "0", "0", "1"]},
            {"x": 4, "y": 6, "result": ["0", "0", "0", "0", "-1", "0"]},
            {"x": 5, "y": 6, "result": ["0", "0", "0", "1", "0", "0"]}]},
        "cr": {"H": [["1", "0", "0", "0", "0", "0"], ["0", "1", "0", "0", "0", "0"],
                     ["0", "0", "0", "1", "0", "0"], ["0", "0", "0", "0", "1", "0"]],
               "j": [["0", "0", "0", "-1", "0", "0"], ["0", "0", "0", "0", "-1", "0"],
                     ["0", "0", "0", "0", "0", "0"], ["1", "0", "0", "0", "0", "0"],
                     ["0", "1", "0", "0", "0", "0"], ["0", "0", "0", "0", "0", "0"]]}}
    # aff(R)^2 + R with the crossing j (e1 -> e3, e2 -> e4) and the central
    # ideal span{e5}: j is not complex-bilinear for the projected bracket
    docs["aff_aff_r_crossing_ideal"] = {
        "algebra": {"dim": 5, "names": ["e1", "e2", "e3", "e4", "e5"], "brackets": [
            {"x": 1, "y": 2, "result": ["0", "1", "0", "0", "0"]},
            {"x": 3, "y": 4, "result": ["0", "0", "0", "1", "0"]}]},
        "cr": {"H": [["1", "0", "0", "0", "0"], ["0", "1", "0", "0", "0"],
                     ["0", "0", "1", "0", "0"], ["0", "0", "0", "1", "0"]],
               "j": [["0", "0", "-1", "0", "0"], ["0", "0", "0", "-1", "0"],
                     ["1", "0", "0", "0", "0"], ["0", "1", "0", "0", "0"],
                     ["0", "0", "0", "0", "0"]]},
        "ideal": [["0", "0", "0", "0", "1"]]}
    # extension.jacobi fails: alpha(e2, e3) = v1 on aff(R)^2 makes the
    # Jacobiator of (e1, e2, e3) equal to -v1
    docs["aff_aff_alpha_jacobi"] = _with(
        "aff_aff", extension={"V_dim": 1,
                              "alpha": [{"x": 2, "y": 3, "result": ["1"]}]})
    # heisenberg(3), [e1, e2] = e3, with H = span{e1, e3}, j e1 = e3 and the
    # metric I: every check passes.  The center span{e3} meets H properly, so
    # center_U reaches the general branch of `Subspace.intersect`, and the
    # radical span{e2} is nonzero and orthogonal to H
    docs["heisenberg3_center_in_H"] = {
        "algebra": {"dim": 3, "names": ["e1", "e2", "e3"], "brackets": [
            {"x": 1, "y": 2, "result": ["0", "0", "1"]}]},
        "cr": {"H": [["1", "0", "0"], ["0", "0", "1"]],
               "j": [["0", "0", "-1"], ["0", "0", "0"], ["1", "0", "0"]]},
        "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
    # H = {0} with the ideal G, which is supplementary to {0}: the tables on
    # H are empty and every check passes
    docs["abelian2_zero_H_ideal"] = {
        "algebra": {"dim": 2},
        "cr": {"H": [], "j": [["0", "0"], ["0", "0"]]},
        "ideal": [["1", "0"], ["0", "1"]]}
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


def render_demo(stem) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / f"{stem}.py"), run_name="__main__")
    return out.getvalue().encode()


DEMO_STEMS = sorted(p.stem for p in DEMOS.glob("demo_*.py"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case, tmp_path):
    argv, doc = CASES[case]
    assert render(argv, doc, tmp_path) == (GOLDEN / f"{case}.txt").read_bytes()


@pytest.mark.parametrize("stem", DEMO_STEMS)
def test_demo_output_matches_golden(stem):
    assert render_demo(stem) == (GOLDEN / f"demo-{stem}.txt").read_bytes()


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(
        [*CASES, *(f"demo-{stem}" for stem in DEMO_STEMS)])


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case, (argv, doc) in CASES.items():
            (GOLDEN / f"{case}.txt").write_bytes(render(argv, doc, tmp))
    for stem in DEMO_STEMS:
        (GOLDEN / f"demo-{stem}.txt").write_bytes(render_demo(stem))
