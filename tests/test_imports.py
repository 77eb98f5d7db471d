"""Import hygiene of the package, read from the source with `ast`.

crlie has no runtime dependencies, so every absolute import names a module
of the standard library; and every name a module imports is used in it, so
a deletion leaves no dead import behind.  `__init__.py` imports names to
re-export them and is exempt from the second rule.  The checks read the
integer forms of `Matrix`, `Subspace` and the multivectors, and how
rationals are scaled to integers and back is decided in `linalg` alone:
`crkahler`, `multivector`, `poisson` and the document reader `inputdoc`
neither import `fractions` nor call the `Fraction` readers and scaling
helpers; `inputdoc` and the multivector constructors read every rational
with `read_row`.  No module imports `dataclasses`, which pulls in
`inspect`, `ast` and `dis` and costs about 20 ms of each `crlie check`
start; a subprocess confirms that importing the command line loads neither
`dataclasses` nor `inspect`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).parent.parent / "src" / "crlie").glob("*.py"))


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
    if path.name != "__init__.py":
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert {name: line for name, line in bound.items() if name not in used} == {}


@pytest.mark.parametrize("name", ["crkahler.py", "multivector.py", "poisson.py", "inputdoc.py"])
def test_checks_leave_the_number_format_to_linalg(name):
    tree = ast.parse((MODULES[0].parent / name).read_text(encoding="utf-8"))
    modules, _ = imports(tree)
    assert "fractions" not in modules
    called = {node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert called & {"scaled", "scaled_sparse", "unscaled", "vector", "rat",
                     "from_brackets"} == set()


def test_cli_import_leaves_out_dataclasses_and_inspect():
    """The modules `import crlie.cli` adds to a bare interpreter, found in a
    subprocess since pytest itself loads `dataclasses`."""
    program = ("import sys; bare = set(sys.modules); import crlie.cli; "
               "print(*sorted(set(sys.modules) - bare))")
    src = str(MODULES[0].parent.parent)
    out = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout.split()
    assert "crlie.cli" in out
    assert {"dataclasses", "inspect"} & set(out) == set()
