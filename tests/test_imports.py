"""Import hygiene of the package, read from the source with `ast`.

crlie has no runtime dependencies, so every absolute import names a module
of the standard library; and every name a module imports is used in it, so
a deletion leaves no dead import behind.  The library reads the integer
forms of `Matrix`, `Subspace`, the tables and the multivectors, and hands
out no `Fraction` entry or vector; how rationals are scaled to integers and
back is decided in `linalg` alone: `lie`, `crkahler`, `multivector`,
`poisson` and the document reader `inputdoc` neither import `fractions`
nor call the `Fraction` readers and scaling helpers, nor import `lcm`.
`inputdoc` reads every rational with `read_row` and brings a bivector's
coefficients to one scale with `common_scale`; a multivector is built only
from integers.  No module
imports `dataclasses`, which pulls in `inspect`, `ast` and `dis` and costs
about 20 ms of each `crlie check` start; a subprocess confirms that
importing the command line loads neither `dataclasses` nor `inspect`.

`import crlie` loads no submodule: each public name is imported from its
home module on first access, so a program that reads only `crlie.catalog`
loads `crlie` and `crlie.catalog` alone, and the command line loads the
catalog only for `crlie catalog`.

Every public name is read by the package itself, a demo or the README's
library example, so `__all__` holds no name that only the tests reach; and
the python blocks of the README run.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import crlie

ROOT = Path(__file__).parent.parent
MODULES = sorted((ROOT / "src" / "crlie").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)


def imports(tree):
    """(absolute module names, {bound name: line}) of the module's imports."""
    modules, bound = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
            bound.update({(alias.asname or alias.name).split(".")[0]: node.lineno
                          for alias in node.names})
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                modules.append(node.module)
            if node.module != "__future__":
                bound.update({alias.asname or alias.name: node.lineno for alias in node.names})
    return modules, bound


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_and_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, bound = imports(tree)
    assert [m for m in modules if m.split(".")[0] not in sys.stdlib_module_names] == []
    assert "dataclasses" not in modules
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in bound.items() if name not in used} == {}


@pytest.mark.parametrize("name", ["lie.py", "crkahler.py", "multivector.py", "poisson.py",
                                  "inputdoc.py"])
def test_checks_leave_the_number_format_to_linalg(name):
    tree = ast.parse((MODULES[0].parent / name).read_text(encoding="utf-8"))
    modules, bound = imports(tree)
    assert "fractions" not in modules and "lcm" not in bound
    called = {node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert called & {"scaled", "scaled_sparse", "unscaled", "vector", "rat",
                     "from_brackets"} == set()


def loaded_by(statements):
    """The modules `statements` add to a bare interpreter, found in a
    subprocess since pytest itself loads `dataclasses` and every module."""
    program = f"import sys; bare = set(sys.modules); {statements}; print(*set(sys.modules) - bare)"
    src = str(MODULES[0].parent.parent)
    return set(subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONPATH": src}).stdout.split())


def test_cli_import_leaves_out_dataclasses_and_inspect():
    """Nor the catalog, which only `crlie catalog` loads."""
    out = loaded_by("import crlie.cli")
    assert {"crlie.cli", "crlie.checks"} <= out
    assert {"dataclasses", "inspect", "crlie.catalog"} & out == set()


def test_catalog_access_loads_the_catalog_alone():
    out = loaded_by("import crlie; crlie.catalog.get('so3_cr')")
    assert {m for m in out if m.split(".")[0] == "crlie"} == {"crlie", "crlie.catalog"}
    assert {"fractions", "json"} & out == set()


def test_public_names_are_their_home_modules_objects():
    assert len(crlie._HOME) == sum(map(len, crlie._EXPORTS.values()))
    assert sorted(crlie.__all__) == sorted([*crlie._HOME, "catalog"])
    for name, module in crlie._HOME.items():
        assert getattr(crlie, name) is getattr(importlib.import_module(f"crlie.{module}"), name)
    assert crlie.catalog is importlib.import_module("crlie.catalog")


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from crlie import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(crlie.__all__)
    assert len(set(crlie.__all__)) == len(crlie.__all__)


def test_submodules_import_from_the_package():
    out = loaded_by("from crlie import checks; import crlie.checks as c; assert checks is c")
    assert "crlie.checks" in out


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        crlie.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from crlie import no_such_name", {})


def test_dir_lists_every_public_name_without_loading_it():
    out = loaded_by("import crlie; assert set(crlie.__all__) <= set(dir(crlie))")
    assert {m for m in out if m.split(".")[0] == "crlie"} == {"crlie"}


def test_readme_python_blocks_run():
    assert README_BLOCKS
    for block in README_BLOCKS:
        exec(compile(block, "README.md", "exec"), {})


def test_every_public_name_is_read_outside_the_tests():
    sources = [path.read_text(encoding="utf-8") for path in MODULES
               if path.name != "__init__.py"]
    sources += [path.read_text(encoding="utf-8") for path in (ROOT / "demos").glob("*.py")]
    read = set()
    for tree in map(ast.parse, sources + README_BLOCKS):
        for node in ast.walk(tree):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    assert sorted(set(crlie.__all__) - read) == []
