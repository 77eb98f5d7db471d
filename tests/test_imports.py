"""Import hygiene of the package, read from the source with `ast`.

crlie has no runtime dependencies, so every absolute import names a module
of the standard library; and every name a module imports is used in it, so
a deletion leaves no dead import behind.  `__init__.py` imports names to
re-export them and is exempt from the second rule.
"""

import ast
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
    if path.name != "__init__.py":
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert {name: line for name, line in bound.items() if name not in used} == {}
