"""Tooling check of the input guard: the rule "a bool is no number" is kept in
detline.errors, whose two guards every argument check goes through.  Another
library module tests for a bool only in the spots listed in EXEMPT, which
judge values the library computed or a user callable returned."""

import ast
import pathlib

import detline

PACKAGE = pathlib.Path(detline.__file__).parent
# (module, function) -> why it tests for a bool itself
EXEMPT = {
    ("report.py", "run_suite"): "an exact row's observed bool is judged as a verdict",
    ("specfun.py", "_numeric"): "a field sample is a value a user callable returned",
}


def bool_tests(path: pathlib.Path) -> list[tuple[str, str, int]]:
    """(module, enclosing function, line) of each isinstance(..., bool) in path,
    bool alone or in a tuple of types."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "isinstance"
                and len(child.args) == 2
            ):
                kinds = child.args[1]
                names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
                if any(isinstance(n, ast.Name) and n.id == "bool" for n in names):
                    found.append((path.name, function, child.lineno))
            visit(child, function)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_the_bool_rule_lives_in_errors():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "errors.py")
    assert len(modules) >= 9
    found = [hit for path in modules for hit in bool_tests(path)]
    stray = [
        f"{name}:{line} in {function}"
        for name, function, line in found
        if (name, function) not in EXEMPT
    ]
    assert stray == [], "isinstance(..., bool) outside detline.errors:\n" + "\n".join(stray)
    # an exemption whose test is gone goes too
    assert {(name, function) for name, function, _ in found} == set(EXEMPT)


def test_errors_holds_the_rule():
    assert [hit[1] for hit in bool_tests(PACKAGE / "errors.py")] == ["_number"]
