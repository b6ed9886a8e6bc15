"""The first failing site of each failed `verify` check.

A site is a `check(...)` call in verify.py, keyed by the function that holds
the call and the call's ordinal, in source order, among the `check` calls of
that function: ("_check_bernoulli_zeta", 0) is that function's first `check`.
Keys by ordinal rather than line number, so that an edit elsewhere in the
file moves no key.

Run as a script, this runs every verify suite with `verify.check` wrapped and
prints, as one JSON object, each failed check's name and its first failing
site, or null when the check failed by a crash rather than by a `check`:

    PYTHONPATH=path/to/src python -O tests/verify_sites.py

The planted-fault catalogue (test_planted_faults.py) runs it on each mutant.
"""

import ast
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

from supersdet import verify

Site = Tuple[str, int]


def check_calls(source: str) -> Iterator[Tuple[Site, ast.Call]]:
    """Every `check(...)` call in verify's source, with its site."""
    calls = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "check"):
                calls.append((function, child))
            visit(child, function)

    visit(ast.parse(source), "<module>")
    calls.sort(key=lambda fc: (fc[0], fc[1].lineno, fc[1].col_offset))
    ordinal: Dict[str, int] = {}
    for function, call in calls:
        ordinal[function] = ordinal.get(function, -1) + 1
        yield (function, ordinal[function]), call


def first_failing_sites() -> Dict[str, Optional[Site]]:
    """Run every suite with `verify.check` wrapped; map each failed check to
    the site of its failing `check`, or None if it crashed."""
    site_at = {}
    for site, call in check_calls(Path(verify.__file__).read_text(encoding="utf-8")):
        for line in range(call.lineno, call.end_lineno + 1):
            site_at[site[0], line] = site
    check_of = {func.__code__: name for suite in verify.SUITES.values() for name, func in suite}
    plain = verify.check
    first = {}

    def recording_check(cond, *detail) -> None:
        if not cond:
            frame = sys._getframe(1)
            site = site_at[frame.f_code.co_name, frame.f_lineno]
            while frame.f_code not in check_of:
                frame = frame.f_back
            first.setdefault(check_of[frame.f_code], site)
        plain(cond, *detail)

    verify.check = recording_check
    try:
        return {result.name: first.get(result.name)
                for suite in verify.SUITES for result in verify.run_suite(suite)
                if not result.passed}
    finally:
        verify.check = plain


if __name__ == "__main__":
    json.dump(first_failing_sites(), sys.stdout, sort_keys=True)
