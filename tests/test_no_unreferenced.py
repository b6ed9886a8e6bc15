"""Every function, method and class defined in src/supersdet must be used by
the library or the benchmark: some Name, Attribute or string constant in
src/supersdet/*.py or benchmarks/*.py must name it.  Code that only the tests
call does not earn its lines.  Docstrings do not count as uses, and dunders
are exempt: the interpreter calls them."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "supersdet").glob("*.py"))
SOURCES = LIBRARY + sorted((ROOT / "benchmarks").glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _references():
    names = set()
    for path in SOURCES:
        tree = _parse(path)
        docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docstrings):
                names.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names


def test_every_definition_is_referenced():
    used = _references()
    unused = []
    for path in LIBRARY:
        for node in ast.walk(_parse(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name not in used:
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, "defined but never referenced: " + ", ".join(unused)
