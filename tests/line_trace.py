"""The function-body statements of ``src/sumdist`` that the test suite never runs.

The suite runs in this process under a ``sys.settrace`` hook that traces
only frames whose code lives in ``src/sumdist``; every other frame runs
untraced.  Afterwards each statement inside a function body that no traced
frame reached is printed as ``path:line: source``, in file order, with a
count at the end.  Docstrings and ``global``/``nonlocal`` declarations run
no code and are left out.  Work done in a child interpreter (the tests
that start ``python -m sumdist.cli``) is not seen, so a statement only such
a child runs is listed.

coverage.py would do the same; this needs nothing beyond the standard
library and the test dependencies.  The hook roughly doubles the suite's
time.  pytest does not collect this file (its name does not start with
``test_``), and no CI step runs it.  Run it from the repository root, with
optional pytest arguments (default: ``-q -p no:cacheprovider tests``)::

    python tests/line_trace.py
    python tests/line_trace.py -q tests/test_specfun.py
"""

from __future__ import annotations

import ast
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "sumdist")


def _statements(path: str) -> dict[int, str]:
    """Line -> source of each statement in a function body of the module at ``path``."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    lines = source.splitlines()
    found = {}

    def visit(node):
        # a nested function's body is visited as a function of its own
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt) and not isinstance(child, (ast.Global, ast.Nonlocal)):
                found.setdefault(child.lineno, lines[child.lineno - 1].strip())
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
                visit(child)

    for node in ast.walk(ast.parse(source, path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
                body = body[1:]
            for stmt in body:
                found.setdefault(stmt.lineno, lines[stmt.lineno - 1].strip())
                if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(stmt)
    return found


def _never_run(ran: dict[str, set[int]]) -> list[tuple[str, int, str]]:
    missing = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            hit = ran.get(path, set())
            missing += [(path, line, text) for line, text in sorted(_statements(path).items()) if line not in hit]
    return missing


def main(argv: list[str]) -> int:
    ran: dict[str, set[int]] = {}
    prefix = PACKAGE + os.sep

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    os.chdir(ROOT)
    sys.settrace(global_trace)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
    missing = _never_run(ran)
    for path, line, text in missing:
        print(f"{os.path.relpath(path, ROOT)}:{line}: {text}")
    print(f"{len(missing)} function-body statements never ran (pytest exit status {int(status)})")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
