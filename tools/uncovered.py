"""List the statements of src/modrotor that a pytest run never executes.

Usage, from the root of a checkout:

    python3 tools/uncovered.py [pytest args]

It runs pytest in this process, with the checkout's src first on the import
path, under a line tracer that follows only frames of src/modrotor's files.
After pytest's own report it prints ``path:line: source`` for each
statement that never ran, in file and line order, and exits with pytest's
exit code. Docstrings and ``def``/``class`` headers are not counted as
statements; a compound statement counts as run when its header line does.

Only this process's main thread is traced: a statement that runs only in a
subprocess, such as the CLI started by a test with ``subprocess``, or only
in another thread counts as not run.

It uses only the standard library and pytest, and writes no files: pytest's
cache and bytecode writing are turned off for the run.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "modrotor"


def statement_spans(source: str) -> list[tuple[int, int]]:
    """(first line, last line) of each statement of ``source`` that runs
    code: docstrings, ``def``/``class`` headers and ``global``/``nonlocal``
    are left out, and a compound statement's span is its header's lines."""
    spans = []
    for node in ast.walk(ast.parse(source)):
        for name in ("body", "orelse", "finalbody"):
            block = getattr(node, name, ())  # a lambda's body is an expression
            for k, child in enumerate(block if isinstance(block, list) else ()):
                docstring = (k == 0 and name == "body" and isinstance(child, ast.Expr)
                             and isinstance(child.value, ast.Constant)
                             and isinstance(child.value.value, str)
                             and isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                                   ast.AsyncFunctionDef)))
                if docstring or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                   ast.ClassDef, ast.Global, ast.Nonlocal)):
                    continue
                inner = [c.lineno for c in getattr(child, "body", ()) if isinstance(c, ast.stmt)]
                last = min(inner) - 1 if inner else child.end_lineno
                spans.append((child.lineno, max(last, child.lineno)))
    return sorted(spans)


def main(args: list[str]) -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    prefix = str(PACKAGE) + "/"
    # The lines that ran of each code object the tracer met: None for code
    # outside the package, which is not followed line by line.
    ran: dict[object, set[int] | None] = {}

    def on_line(frame, event, arg):
        ran[frame.f_code].add(frame.f_lineno)  # a line's, return's or exception's: all ran
        return on_line

    def on_call(frame, event, arg):
        code = frame.f_code
        if code not in ran:
            ran[code] = set() if code.co_filename.startswith(prefix) else None
        return None if ran[code] is None else on_line

    sys.settrace(on_call)
    try:
        exit_code = pytest.main(["-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        executed = set().union(*(lines for code, lines in ran.items()
                                 if lines is not None and code.co_filename == str(path)))
        for first, last in statement_spans("\n".join(lines)):
            if executed.isdisjoint(range(first, last + 1)):
                print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    return int(exit_code)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
