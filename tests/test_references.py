"""Every function and method of the package is referenced by name.

Each `src/framedhiggs` module is parsed with `ast`.  A module-level
function or a method of a module-level class counts as referenced when its
name is read somewhere in `src/framedhiggs` or `demos/` (as a name, an
attribute or an imported name, so the package's `__init__` exports count),
or when `bench/tracer.py` pins it in its `SPANS` or `COUNTS` tables.
Dunder methods are called by the language and are exempt.  What is left
must be listed in `ALLOWED` with its reason, and an entry that is no longer
left must leave the list.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "framedhiggs"
TRACER = ROOT / "bench" / "tracer.py"

# qualified name -> why it stays although nothing above references it
ALLOWED = {
    "exactlinalg.mat_vec": "the tests and their oracles multiply Fraction matrices by "
                           "vectors with it, beside mat_mul and mat_comb",
}


def definitions(module: str, source: str) -> dict[str, str]:
    """{qualified name: name} of the module-level functions and of the
    methods of module-level classes, dunder methods left out."""
    out = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out[f"{module}.{node.name}"] = node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    out[f"{module}.{node.name}.{item.name}"] = item.name
    return out


def references(source: str) -> set[str]:
    """The names `source` reads: names, attributes and imported names."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def tracer_pins(source: str) -> set[str]:
    """The qualified names `module.path` of the (module, path) pairs in the
    `SPANS` and `COUNTS` tables of the tracer's source."""
    out = set()
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and any(isinstance(t, ast.Name) and t.id in ("SPANS", "COUNTS")
                        for t in node.targets)):
            for value in node.value.values:
                module, path = ast.literal_eval(value)
                out.add(f"{module}.{path}")
    return out


def unreferenced(modules: dict[str, str], others: list[str], pins: set[str]) -> list[str]:
    """The qualified names defined in `modules` ({module: source}) that no
    source of `modules` or `others` reads and no pin names."""
    defined, read = {}, set()
    for module, source in modules.items():
        defined.update(definitions(module, source))
        read |= references(source)
    for source in others:
        read |= references(source)
    return sorted(q for q, name in defined.items() if name not in read and q not in pins)


def scan() -> list[str]:
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    demos = [p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))]
    return unreferenced(modules, demos, tracer_pins(TRACER.read_text()))


def test_the_sources_are_found():
    assert len(list(SRC.glob("*.py"))) >= 10 and list((ROOT / "demos").glob("*.py"))
    assert "exactlinalg.Quotient.__init__" in tracer_pins(TRACER.read_text())


def test_every_function_is_referenced_or_allowed():
    assert sorted(set(scan()) - set(ALLOWED)) == []


def test_every_allowed_name_is_still_unreferenced():
    assert sorted(set(ALLOWED) - set(scan())) == []


def test_an_unreferenced_function_is_caught():
    source = ("class A:\n"
              "    def __repr__(self): return 'A'\n"
              "    def used(self): return helper()\n"
              "    def pinned(self): pass\n"
              "    def dead(self): pass\n"
              "def helper(): return 1\n"
              "def exported(): pass\n"
              "def orphan(): pass\n")
    others = ["from m import exported\nA().used()\n"]
    assert unreferenced({"m": source}, others, {"m.A.pinned"}) == ["m.A.dead", "m.orphan"]
