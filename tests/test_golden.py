"""Byte-for-byte CLI output frozen in tests/golden/.

Each golden file holds `exit <code>` on its first line and the command's
stdout after it: `crlie check` in both formats on every catalog entry and on
three documents that reach the `ideal` and `extension` branches, plus
`construct left-symmetric` and `schouten`.  After a deliberate change to the
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
    cases = {}
    for name, doc in docs.items():
        for fmt in ("structured", "text"):
            cases[f"check-{name}-{fmt}"] = (["check", "--format", fmt], doc)
    cases["construct-aff_aff"] = (["construct", "left-symmetric"], docs["aff_aff"])
    cases["schouten-sl2"] = (["schouten"], docs["sl2"])
    cases["schouten-so3_r_mixed"] = (["schouten"], docs["so3_r_mixed"])
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
