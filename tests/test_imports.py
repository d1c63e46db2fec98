"""No module of the package imports a name it never uses.

Each `src/framedhiggs` module is parsed with `ast`: every name an import
binds must be read somewhere in the module, in code or in an annotation.
The package's `__init__` re-exports what it imports, and a `__future__`
import binds no name, so neither is counted.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "framedhiggs"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names the imports of `source` bind and nothing in it reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_the_modules_are_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_caught():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from math import comb, gcd as g\n"
              "from .exactlinalg import Vec, vec_add\n"
              "def f(v: Vec) -> int:\n"
              "    return g(os.sep, 2)\n")
    assert unused_imports(source) == ["comb", "vec_add"]
