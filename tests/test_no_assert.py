"""The library may not check anything with a bare ``assert``: ``python -O``
strips it, and the check would then pass by accident.  Nor may it raise
``AssertionError``: `verify` reports that as a false identity, so an internal
error would read as one."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "supersdet"
LIBRARY = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_library_has_no_assert_statement(path):
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statement at line(s) {lines}"


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_library_raises_no_assertion_error(path):
    raised = [node.exc.func if isinstance(node.exc, ast.Call) else node.exc
              for node in ast.walk(_tree(path)) if isinstance(node, ast.Raise) and node.exc]
    lines = [exc.lineno for exc in raised
             if isinstance(exc, ast.Name) and exc.id == "AssertionError"]
    assert not lines, f"{path.name}: raise AssertionError at line(s) {lines}"
