"""Fail if tier-1 leaves a statement of the package unexecuted.

    PYTHONPATH=src python tests/check_statement_coverage.py

Runs the tier-1 suite in this process under `sys.settrace` and
`threading.settrace`, recording each line executed in a frame whose code
lies in the package, and then lists every statement of the package's
AST that never ran.  Docstrings are not counted.  A statement ran when a
line from its first (decorators included) to its last ran: for a compound
statement (if, for, try, def ...), its header or a statement inside it.

Each statement that may stay unexecuted is in ALLOWED below, with its
reason.  The script exits 1 if tier-1 fails, if a statement outside
ALLOWED never ran, or if an ALLOWED statement ran (a stale entry).  Code
run in worker processes or subprocesses is not traced.  Tracing every line
makes the suite several times slower (about 2 minutes on 2 cores against
22 s untraced).
"""

from __future__ import annotations

import ast
import importlib.util
import pathlib
import sys
import threading

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
# Where the import system finds the package, so the paths match the traced
# frames' file names; finding it does not import it.
PACKAGE = pathlib.Path(importlib.util.find_spec("lucassquares").origin).parent

# (module, enclosing function or class, first line of the statement) ->
# why tier-1 does not run it.
ALLOWED = {
    ("cli.py", "", "sys.exit(main())"):
        "the body of the module's `__main__` guard: tests call cli.main, and "
        "`python -m lucassquares` runs __main__.py",
    ("cli.py", "_exact_int_text", "yield"):
        "Python 3.10 before 3.10.7 has no int-to-str cap; no CI interpreter "
        "runs that branch",
    ("cli.py", "_exact_int_text", "return"):
        "the same pre-3.10.7 branch",
}


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _statements(tree: ast.Module) -> list[tuple[ast.stmt, str]]:
    """Each statement but docstrings, with the name of its enclosing def or class."""
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, *_SCOPES)) and ast.get_docstring(node)}
    out = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt) and id(child) not in docstrings:
                out.append((child, scope))
            visit(child, child.name if isinstance(child, _SCOPES) else scope)

    visit(tree, "")
    return out


def unexecuted(path: pathlib.Path, executed: set[int]) -> list[tuple[int, str, str]]:
    """(line, scope, first line text) of each statement in `path` that never ran."""
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    out = []
    for stmt, scope in _statements(ast.parse(source, str(path))):
        first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
        if executed.isdisjoint(range(first, stmt.end_lineno + 1)):
            out.append((stmt.lineno, scope, text[stmt.lineno - 1].strip()))
    return out


def trace_tier1() -> tuple[int, dict[str, set[int]]]:
    """Run tier-1 traced; its exit code and the executed lines per package file."""
    prefix = str(PACKAGE) + "/"
    executed: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            executed.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            str(TESTS)])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), executed


def main() -> int:
    if any(name == "lucassquares" or name.startswith("lucassquares.") for name in sys.modules):
        raise SystemExit("lucassquares is imported before tracing starts")
    code, executed = trace_tier1()
    if code:
        print(f"tier-1 failed (pytest exit {code}); coverage not checked")
        return 1
    missing, allowed_seen = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for line, scope, text in unexecuted(path, executed.get(str(path), set())):
            key = (path.name, scope, text)
            if key in ALLOWED:
                allowed_seen.add(key)
            else:
                missing.append(f"{path.name}:{line} ({scope or 'module'}): {text}")
    stale = [f"{name} ({scope or 'module'}): {text}"
             for name, scope, text in ALLOWED if (name, scope, text) not in allowed_seen]
    for title, rows in (("statements tier-1 never runs", missing),
                        ("ALLOWED entries that ran", stale)):
        if rows:
            print(f"{len(rows)} {title}:")
            print("\n".join(f"  {row}" for row in rows))
    if missing or stale:
        return 1
    print(f"every statement of {PACKAGE} runs in tier-1 but the {len(ALLOWED)} allowed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
