"""Tooling check of the tolerance policy: library modules write no tolerance,
threshold or step as a literal; they import it from detline.tolerances."""

import pathlib
import re
import tokenize

import detline

PACKAGE = pathlib.Path(detline.__file__).parent
# tolerances.py defines the policy; report.py keeps its suites' row tolerances
EXEMPT = {"tolerances.py", "report.py"}


def exponent_literals(path: pathlib.Path) -> list[str]:
    with path.open("rb") as handle:
        return [
            f"{path.name}:{tok.start[0]}: {tok.string}"
            for tok in tokenize.tokenize(handle.readline)
            if tok.type == tokenize.NUMBER
            and not tok.string.lower().startswith("0x")
            and re.search(r"[eE][+-]?\d", tok.string)
        ]


def test_library_modules_have_no_exponent_literals():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name not in EXEMPT)
    assert len(modules) >= 7
    found = [hit for path in modules for hit in exponent_literals(path)]
    assert found == [], "tolerance literals outside detline.tolerances:\n" + "\n".join(found)
