"""Every function the benchmark's tracer wraps must still exist.

The tracer skips a name it cannot find, and that metric then reads 0, so a
refactor could drop a per-layer metric silently.  The SPANS and COUNTS
tables are read from benchmarks/tracer.py as text; the file is not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def _table(name):
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == name:
            return ast.literal_eval(node.value)
    raise LookupError(f"{TRACER} has no {name} table")


ROWS = _table("SPANS") + _table("COUNTS")


@pytest.mark.parametrize("module, attr, metric", ROWS, ids=[row[2] + ":" + row[1] for row in ROWS])
def test_traced_name_is_defined(module, attr, metric):
    owner = importlib.import_module(f"supersdet.{module}")
    *path, member = attr.split(".")
    for name in path:
        owner = vars(owner)[name]
    assert member in vars(owner), f"{metric}: {module}.{attr} is gone"
