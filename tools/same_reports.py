"""Check that a revision and the worktree write the same verification reports
and the same chart values.

Usage, from anywhere inside the repository:

    python tools/same_reports.py REV

REV is any git revision (a commit, a tag, a branch).  The script exports REV
with ``git archive`` to a temporary directory and runs
``run_suite("all", seed)`` for each of the seeds 0, 7, 11 and 12345, each in
a fresh interpreter, once on REV's ``src`` and once on the worktree's
``src`` (uncommitted edits included).  A report is compared as its
``to_json()`` without the ``started_at`` and ``finished_at`` timestamps,
serialised by ``json.dumps``.  It then compares the three chart calls of
one ``grassmannian-window`` benchmark op (``curvature_rkw``, ``tr_p_dp_dp``
and ``perturbation_patching_check``, through
``perfbench.workloads.GrassmannianWindow.call``) on the input pools of the
seeds 2401, 301, 2101 and 5, every value to the last bit, the pools taken
from the worktree's ``perfbench`` on both sides and each side in one fresh
interpreter.  Every interpreter runs with BLAS on one thread, as the
benchmark's workers do.  Last it compares the outputs of ``detline
curvature-grid`` (``cli.main``), each grid written once as CSV and once as
JSON: the file, the standard output and the exit code, byte for byte.  The
grids are the ``curvature-grid`` benchmark rectangles of the seeds 2401, 301
and 5 (``perfbench.workloads.CurvatureGrid``, from the worktree's
``perfbench``) and a few edge grids: one whose rows are all skipped, one
whose rows beyond |z| = 10.2 are skipped by the stencil's unresolved guard
and not by the exclusion disk, and one of n = 2.  Then it compares the CLI's
value verbs, ``detline zeta-det`` at the chart points of ZETA_POINTS (the
zero mode -1,0 among them, which exits 1) and ``detline eta`` at the
offsets of ETA_OFFSETS (one outside (0, 1)): the exit code, the standard
output and the standard error, byte for byte.  It prints one line for the
reports, one for the calls, one for the grid outputs and one for the CLI
values, each "identical" or the first difference (seed, case, call, grid or
command, and both values or the first differing byte), and exits 0 when all
four are identical, else 1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (0, 7, 11, 12345)
TIMESTAMPS = ("started_at", "finished_at")
POOL_SEEDS = (2401, 301, 2101, 5)
GRID_POOL_SEEDS = (2401, 301, 5)
EDGE_GRIDS = (
    ("--re", "1e70:2e70", "--im", "0:1", "--n", "2"),  # every row skipped
    ("--re", "5:15", "--im", "-1:1", "--n", "6"),  # rows skipped by the unresolved guard
    ("--re", "-1.3:-0.7", "--im", "-0.3:0.3", "--n", "7"),  # rows skipped by the disk
    ("--re", "-0.5:0.5", "--im", "-0.5:0.5", "--n", "2"),
)
ZETA_POINTS = ("0,0", "1,0", "0.3,-0.7", "-0.999999,0.000001", "1e150,0", "-1,0")
ETA_OFFSETS = ("0.25", "0.5", "0.001", "0.937", "1.5")
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Run in the fresh interpreter: print the report of one seed as JSON.
REPORT = """
import json, sys
from detline.report import run_suite
print(json.dumps(run_suite("all", int(sys.argv[1])).to_json()))
"""

# Run in the fresh interpreter: print, for each pool seed, the values of the
# grassmannian-window calls on each pool input as (seed, input, call,
# float.hex of the real and imaginary parts).
CHART_CALLS = """
import json, sys, tempfile
from perfbench.workloads import GrassmannianWindow
names = ("curvature_rkw", "tr_p_dp_dp", "perturbation_patching_check lhs",
         "perturbation_patching_check rhs")
rows = []
for seed in map(int, sys.argv[1:]):
    workload = GrassmannianWindow(seed, False, tempfile.gettempdir())
    for i in range(len(workload.pool)):
        for name, value in zip(names, workload.call(i)):
            rows.append([seed, i, name, value.real.hex(), value.imag.hex()])
print(json.dumps(rows))
"""


# Run in the fresh interpreter: print, for the edge grids (the first
# argument, as JSON) and the CurvatureGrid pool of each further seed, each
# grid written as CSV and as JSON, [grid, exit code, stdout, file text].
GRID_OUTPUTS = """
import contextlib, io, json, os, sys, tempfile
from detline import cli
from perfbench.workloads import CurvatureGrid
outputs = []
with tempfile.TemporaryDirectory() as tmp:
    grids = json.loads(sys.argv[1])
    for seed in map(int, sys.argv[2:]):
        workload = CurvatureGrid(seed, False, tmp)
        for re_lo, re_hi, im_lo, im_hi in workload.pool:
            re, im = f"{re_lo!r}:{re_hi!r}", f"{im_lo!r}:{im_hi!r}"
            grids.append(["--re", re, "--im", im, "--n", str(workload.n)])
    for grid in grids:
        for fmt in ("csv", "json"):
            path = os.path.join(tmp, "grid." + fmt)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["curvature-grid", *grid, "--" + fmt, path])
            with open(path) as handle:
                outputs.append([" ".join([*grid, "--" + fmt]), code, out.getvalue(), handle.read()])
            os.unlink(path)
print(json.dumps(outputs))
"""


# Run in the fresh interpreter: print, for each command line given as an
# argument, [command line, exit code, stdout, stderr] of cli.main.
CLI_VALUES = """
import contextlib, io, json, sys
from detline import cli
outputs = []
for line in sys.argv[1:]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(line.split())
    outputs.append([line, code, out.getvalue(), err.getvalue()])
print(json.dumps(outputs))
"""


def fresh(src: Path, root: Path, script: str, *args: str) -> str:
    """The standard output of script run on the package under src, with the
    perfbench package of the worktree root, in a fresh interpreter that
    writes no bytecode."""
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": os.pathsep.join([str(src), str(root)])}
    done = subprocess.run(
        [sys.executable, "-B", "-c", script, *args],
        env=env,
        cwd=src,
        capture_output=True,
        text=True,
    )
    if done.returncode != 0:
        sys.exit(f"the run on {src} with arguments {args} failed:\n{done.stderr}")
    return done.stdout


def report(src: Path, root: Path, seed: int) -> dict:
    """The report of run_suite("all", seed) on the package under src, from a
    fresh interpreter, without its timestamps."""
    doc = json.loads(fresh(src, root, REPORT, str(seed)))
    for key in TIMESTAMPS:
        doc.pop(key)
    return doc


def chart_calls(src: Path, root: Path) -> list:
    """The grassmannian-window call values on the pools of POOL_SEEDS, on the
    package under src, from one fresh interpreter."""
    return json.loads(fresh(src, root, CHART_CALLS, *map(str, POOL_SEEDS)))


def grid_outputs(src: Path, root: Path) -> list:
    """The curvature-grid outputs of the edge grids and the pools of
    GRID_POOL_SEEDS, on the package under src, from one fresh interpreter."""
    edges = json.dumps([list(grid) for grid in EDGE_GRIDS])
    return json.loads(fresh(src, root, GRID_OUTPUTS, edges, *map(str, GRID_POOL_SEEDS)))


def cli_values(src: Path, root: Path) -> list:
    """The zeta-det outputs at ZETA_POINTS and the eta outputs at
    ETA_OFFSETS, on the package under src, from one fresh interpreter."""
    lines = [f"zeta-det --z {z}" for z in ZETA_POINTS] + [f"eta --a {a}" for a in ETA_OFFSETS]
    return json.loads(fresh(src, root, CLI_VALUES, *lines))


def first_output_difference(old: list, new: list, kind: str, texts: tuple) -> str | None:
    """The first output whose exit code or texts differ between two lists
    of [name, exit code, *texts] (grid_outputs: stdout and file;
    cli_values: stdout and stderr), with the first differing byte, as one
    line; None when every output is the same byte for byte."""
    for a, b in zip(old, new):
        if a[1] != b[1]:
            return f"{kind} {a[0]}: exit code {a[1]} vs {b[1]}"
        for what, x, y in zip(texts, a[2:], b[2:]):
            x, y = x.encode(), y.encode()
            if x != y:
                at = next((i for i, (c, d) in enumerate(zip(x, y)) if c != d), min(len(x), len(y)))
                return f"{kind} {a[0]}: {what} byte {at}: {x[at:at + 24]!r} vs {y[at:at + 24]!r}"
    if len(old) != len(new):
        return f"{len(old)} outputs vs {len(new)}"
    return None


def first_call_difference(old: list, new: list) -> str | None:
    """The first call whose value differs between two lists of chart_calls,
    as one line; None when every value is the same to the last bit."""
    for a, b in zip(old, new):
        if a != b:
            return f"seed {a[0]} input {a[1]} {a[2]}: {hex_value(a)} vs {hex_value(b)}"
    if len(old) != len(new):
        return f"{len(old)} values vs {len(new)}"
    return None


def hex_value(row: list) -> str:
    """A call value of chart_calls as a complex, written out to the last bit."""
    return f"{complex(float.fromhex(row[3]), float.fromhex(row[4]))!r} ({row[3]}, {row[4]})"


def first_difference(old: dict, new: dict) -> str | None:
    """The first case, or else the first top-level field, where two reports
    differ, as one line; None when their JSON is the same."""
    if json.dumps(old) == json.dumps(new):
        return None
    old_cases, new_cases = old.get("cases", []), new.get("cases", [])
    for i, (a, b) in enumerate(zip(old_cases, new_cases)):
        if json.dumps(a) != json.dumps(b):
            return f"case {i} {a.get('name')!r}: {json.dumps(a)} vs {json.dumps(b)}"
    if len(old_cases) != len(new_cases):
        return f"{len(old_cases)} cases vs {len(new_cases)}"
    for key in sorted(old.keys() | new.keys()):
        if json.dumps(old.get(key)) != json.dumps(new.get(key)):
            return f"field {key!r}: {json.dumps(old.get(key))} vs {json.dumps(new.get(key))}"
    return "the key order differs"


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    rev = argv[0]
    root = Path(
        subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    )
    with tempfile.TemporaryDirectory(prefix="same-reports-") as tmp:
        archive = Path(tmp) / "rev.tar"
        exported = subprocess.run(
            ["git", "archive", "--format=tar", "-o", str(archive), rev, "src"], cwd=root
        )
        if exported.returncode != 0:
            sys.exit(f"git archive of {rev!r} failed")
        subprocess.run(["tar", "-xf", str(archive), "-C", tmp], check=True)
        old_src, new_src = Path(tmp) / "src", root / "src"
        report_diff = None
        for seed in SEEDS:
            diff = first_difference(report(old_src, root, seed), report(new_src, root, seed))
            if diff is not None:
                report_diff = f"differs at seed {seed} ({rev} vs worktree): {diff}"
                break
        call_diff = first_call_difference(chart_calls(old_src, root), chart_calls(new_src, root))
        grid_diff = first_output_difference(
            grid_outputs(old_src, root), grid_outputs(new_src, root), "grid", ("stdout", "file")
        )
        cli_diff = first_output_difference(
            cli_values(old_src, root), cli_values(new_src, root), "command", ("stdout", "stderr")
        )
    print(f"reports: {report_diff or 'identical'}")
    if call_diff is not None:
        call_diff = f"differs ({rev} vs worktree) at {call_diff}"
    print(f"grassmannian-window calls: {call_diff or 'identical'}")
    if grid_diff is not None:
        grid_diff = f"differs ({rev} vs worktree) at {grid_diff}"
    print(f"curvature-grid outputs: {grid_diff or 'identical'}")
    if cli_diff is not None:
        cli_diff = f"differs ({rev} vs worktree) at {cli_diff}"
    print(f"cli values: {cli_diff or 'identical'}")
    diffs = (report_diff, call_diff, grid_diff, cli_diff)
    return 0 if all(diff is None for diff in diffs) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
