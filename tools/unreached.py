"""Run the tests under a line tracer and print the statements of src/detline
that no test reached.

Usage, from anywhere inside the repository:

    python tools/unreached.py [PYTEST_ARGS...]

It uses only the standard library.  ``sys.settrace`` (and
``threading.settrace``) records the lines that run in ``src/detline`` while
``pytest.main`` runs the tests in this process, with ``-q -p
no:cacheprovider`` and any further arguments given (by default every test
under ``tests/``).  A statement is a statement node of a module's syntax
tree; its own lines are its lines outside the statements nested in it,
decorators included, that compile to bytecode, so docstrings count as none.
A statement is reached when one of its own lines ran.  Code that runs in a
child process, such as a CLI test's subprocess, is not traced.  Tracing
about doubles the run time, which is why this is a tool and not a test.

It prints one line per unreached statement, ``path:line: source``, then the
count of reached statements, and exits with pytest's exit status.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "detline"


def _code_lines(code) -> set[int]:
    """The lines of a code object and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= _code_lines(const)
    return lines


def _span(node: ast.stmt) -> set[int]:
    """The lines of a statement, its decorators included."""
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    return set(range(start, node.end_lineno + 1))


def statements(path: Path) -> list[tuple[int, set[int]]]:
    """(first line, own lines) of each statement of the module at path that
    has an own line compiling to bytecode, in source order."""
    source = path.read_text()
    code_lines = _code_lines(compile(source, str(path), "exec"))
    found = []
    for node in ast.walk(ast.parse(source, str(path))):
        if isinstance(node, ast.stmt):
            own = _span(node) & code_lines
            for inner in ast.walk(node):
                if inner is not node and isinstance(inner, ast.stmt):
                    own -= _span(inner)
            if own:
                found.append((node.lineno, own))
    return sorted(found, key=lambda s: s[0])


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    modules = sorted(PACKAGE.glob("*.py"))
    executed: dict[str, set[int]] = {str(path): set() for path in modules}
    by_filename: dict[str, set[int] | None] = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in by_filename:
            by_filename[filename] = executed.get(os.path.realpath(filename))
        lines = by_filename[filename]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    reached = total = 0
    for path in modules:
        source = path.read_text().splitlines()
        ran = executed[str(path)]
        for first, own in statements(path):
            total += 1
            if own & ran:
                reached += 1
            else:
                print(f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}")
    print(f"reached {reached} of {total} statements in {PACKAGE.relative_to(ROOT)}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
