"""Tooling checks of the tolerance policy: library modules write no tolerance,
threshold or step as a literal; they import it from detline.tolerances, none
of them reads the process environment, and every stencil runs at one step."""

import pathlib
import re
import tokenize

import detline
from detline import grassmannian, interval_cp1, specfun, tolerances

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


# names through which a module reads the process environment
ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(path: pathlib.Path) -> list[str]:
    with path.open("rb") as handle:
        return [
            f"{path.name}:{tok.start[0]}: {tok.line.strip()}"
            for tok in tokenize.tokenize(handle.readline)
            if tok.type == tokenize.NAME and tok.string in ENVIRONMENT_READS
        ]


def test_library_modules_read_no_environment():
    # every step and tolerance is fixed in code, so no setting can change a
    # result without a change to the library
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    found = [hit for path in modules for hit in environment_reads(path)]
    assert found == [], "environment reads in detline:\n" + "\n".join(found)


def test_every_stencil_runs_at_the_one_step():
    # a second step (an inner stencil at 1e-5 once cost curvature_rkw up to
    # three digits) would show as a stencil or a *_STEP name of its own
    stencils = [
        (module.__name__, name, value)
        for module in (specfun, interval_cp1, grassmannian)
        for name, value in vars(module).items()
        if isinstance(value, specfun.FdStencil)
    ]
    assert {module for module, _, _ in stencils} == {"detline.interval_cp1", "detline.grassmannian"}
    assert [s for s in stencils if s[2].step != tolerances.DEFAULT_FD_STEP] == []
    steps = [name for name in vars(tolerances) if name.endswith("_STEP")]
    assert steps == ["DEFAULT_FD_STEP"]
