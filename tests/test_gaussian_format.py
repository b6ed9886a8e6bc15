"""Only gaussian.py touches the integer fields of a GaussianRational: every
other library module crosses into and out of Q(i) through gaussian's
`from_parts` and `parts`, so the representation lives in one file."""

import ast
from pathlib import Path

import pytest

from supersdet.gaussian import GaussianRational

SRC = Path(__file__).resolve().parent.parent / "src" / "supersdet"
FIELDS = frozenset(GaussianRational.__slots__)


def _touches(tree: ast.AST) -> list:
    """Lines that name a field (as an attribute, or as a string for getattr
    and setattr) or import a private name of gaussian."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in FIELDS:
            lines.append(node.lineno)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value in FIELDS:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("gaussian") \
                and any(alias.name.startswith("_") for alias in node.names):
            lines.append(node.lineno)
    return lines


def test_the_scan_sees_every_kind_of_access():
    probe = "\n".join(f"x = z.{f}\nz.{f} = 1\ngetattr(z, {f!r})" for f in sorted(FIELDS))
    assert len(_touches(ast.parse(probe))) == 3 * len(FIELDS) == 9
    assert _touches(ast.parse("from .gaussian import _canonical")) == [1]
    assert _touches(ast.parse("from .gaussian import from_parts, parts\nparts(z)[0]")) == []


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "gaussian.py"],
                         ids=lambda p: p.name)
def test_only_gaussian_reads_the_fields(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = _touches(tree)
    assert not lines, f"{path.name}: GaussianRational's fields touched at line(s) {lines}"
