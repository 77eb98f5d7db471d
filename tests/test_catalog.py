import ast
import json
from pathlib import Path

import pytest

from crlie import (
    catalog, dump_document, left_symmetric_product, parse_document, parse_text, run_checks,
)

import oracles

SRC = Path(__file__).parent.parent / "src" / "crlie"
GOLDEN = Path(__file__).with_name("golden")

# The integer kernels of the library, which no definition-level oracle may use.
KERNELS = {"contraction", "remainder", "cyclic_defects", "evaluate", "rref", "push_ints",
           "derive_ints", "schouten_ints", "_wedge_front", "quotient_columns",
           "induced_bracket", "IntTable"}


@pytest.mark.parametrize("entry_id", catalog.ids())
def test_entry_matches_expected_verdicts(entry_id):
    entry = catalog.get(entry_id)
    rep = run_checks(parse_document(entry.document))
    actual = {r.check_id: "pass" if r.passed else "fail" for r in rep.results}
    assert actual == entry.expected


def test_parsed_payloads_are_read_only():
    p = parse_document(catalog.get("sl2").document)
    objects = [p.algebra, p.cr, p.kahler, p.poisson, p.cr.H, p.cr.j, p.poisson.Lambda,
               left_symmetric_product(p.kahler)]
    for obj in objects:
        with pytest.raises(AttributeError, match=f"^{type(obj).__name__} is immutable$"):
            obj.scale = 1


@pytest.mark.parametrize("entry_id", catalog.ids())
def test_dump_parse_round_trip(entry_id):
    entry = catalog.get(entry_id)
    text = dump_document(entry.document)
    reparsed = parse_text(text)
    assert reparsed.document == entry.document


def test_list_entries_cover_all_ids():
    listed = [entry_id for entry_id, _ in catalog.list_entries()]
    assert listed == catalog.ids()
    assert len(listed) == len(set(listed))


def test_unknown_entry_raises():
    with pytest.raises(catalog.UnknownEntryError):
        catalog.get("no_such_entry")


def test_negative_fixtures_present():
    failing = [e for e in catalog.ids()
               if "fail" in catalog.get(e).expected.values()]
    assert set(failing) == {"so3_bad_metric", "affxaff_bad_j",
                            "so3_r_mixed", "r4_ext_bad_alpha"}


def emitted_check_ids() -> set:
    """The first argument of every `rep.add("...")` in the package."""
    return {node.args[0].value for path in SRC.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add" and node.args and isinstance(node.args[0], ast.Constant)}


def test_every_check_id_has_one_definition_level_oracle():
    expected = {cid for e in catalog.ids() for cid in catalog.get(e).expected}
    golden = {check["check_id"] for path in GOLDEN.glob("check-*-structured.txt")
              for check in json.loads(path.read_text().split("\n", 1)[1])["checks"]}
    assert emitted_check_ids() == set(oracles.ORACLES)
    assert expected | golden <= set(oracles.ORACLES)
    # each oracle, and every helper of `oracles` it reaches, names no kernel
    functions = {node.name: node for node in ast.parse(Path(oracles.__file__).read_text(
        encoding="utf-8")).body if isinstance(node, ast.FunctionDef)}
    for oracle in set(oracles.ORACLES.values()):
        todo, seen = [oracle.__name__], set()
        while todo:
            name = todo.pop()
            if name in seen:
                continue
            seen.add(name)
            used = {node.id if isinstance(node, ast.Name) else node.attr
                    for node in ast.walk(functions[name])
                    if isinstance(node, (ast.Name, ast.Attribute))}
            assert used & KERNELS == set(), (oracle.__name__, name)
            todo += sorted(used & set(functions))
