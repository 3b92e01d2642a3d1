"""Print the statements of src/ that no test runs.

Runs pytest in this process under a line tracer that sees only code under
src/, then prints one line per executable statement that never ran, with
its path relative to the checkout and its first line of source, and their
count last:

    src/elastomag/harness/cli.py:116: return EXIT_OK
    ...
    18 of 1203 statements not run

A statement counts as run when a line event fires on one of its own lines:
the whole span of a simple statement, the header of a compound one (if,
for, while, with, try). Docstrings, def, class, imports, global/nonlocal
and annotations without a value make no code of their own and are not
counted. The arguments are handed to pytest (default: tests/); the exit
code is pytest's. Only frames of src/ get line events, so the whole suite
runs about a fifth slower than untraced.

    python3 tools/line_trace.py [PYTEST_ARGS ...]
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_NO_CODE = (*_DEFS, ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)
_COMPOUND = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith, ast.Try)


def _docstrings(tree: ast.Module) -> set[ast.stmt]:
    """The first statement of the module and of each def and class, where it is a string."""
    owners = [tree, *(n for n in ast.walk(tree) if isinstance(n, _DEFS))]
    firsts = [o.body[0] for o in owners if o.body]
    return {s for s in firsts if isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant)
            and isinstance(s.value.value, str)}


def statements(path: Path) -> list[tuple[int, range]]:
    """(first line, the lines whose events count) of each executable statement."""
    tree = ast.parse(path.read_text(), str(path))
    skip = _docstrings(tree)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _NO_CODE) or node in skip:
            continue
        if isinstance(node, ast.AnnAssign) and node.value is None:
            continue
        last = node.body[0].lineno - 1 if isinstance(node, _COMPOUND) else node.end_lineno
        out.append((node.lineno, range(node.lineno, max(last, node.lineno) + 1)))
    return sorted(out)


def trace(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with the tracer on; returns its exit code and the lines run per file."""
    prefix = str(SRC) + os.sep
    seen: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            seen.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), seen


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    os.chdir(ROOT)
    code, seen = trace(args or ["-q", "tests"])
    missed, total = 0, 0
    for path in sorted(SRC.rglob("*.py")):
        ran = seen.get(str(path), set())
        lines = path.read_text().splitlines()
        for first, span in statements(path):
            total += 1
            if ran.isdisjoint(span):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"{missed} of {total} statements not run")
    return code


if __name__ == "__main__":
    sys.exit(main())
