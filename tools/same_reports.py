"""Check that a revision and the worktree write the same verification reports.

Usage, from anywhere inside the repository:

    python tools/same_reports.py REV

REV is any git revision (a commit, a tag, a branch).  The script exports REV
with ``git archive`` to a temporary directory and runs
``run_suite("all", seed)`` for each of the seeds 0, 7, 11 and 12345, each in
a fresh interpreter, once on REV's ``src`` and once on the worktree's
``src`` (uncommitted edits included).  A report is compared as its
``to_json()`` without the ``started_at`` and ``finished_at`` timestamps,
serialised by ``json.dumps``.  It prints "identical" and exits 0, or prints
the first difference (seed, case and both values) and exits 1.
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

# Run in the fresh interpreter: print the report of one seed as JSON.
REPORT = """
import json, sys
from detline.report import run_suite
print(json.dumps(run_suite("all", int(sys.argv[1])).to_json()))
"""


def report(src: Path, seed: int) -> dict:
    """The report of run_suite("all", seed) on the package under src, from a
    fresh interpreter that writes no bytecode, without its timestamps."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-B", "-c", REPORT, str(seed)],
        env=env,
        cwd=src,
        capture_output=True,
        text=True,
    )
    if done.returncode != 0:
        sys.exit(f"run_suite failed on {src} at seed {seed}:\n{done.stderr}")
    doc = json.loads(done.stdout)
    for key in TIMESTAMPS:
        doc.pop(key)
    return doc


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
        for seed in SEEDS:
            diff = first_difference(report(Path(tmp) / "src", seed), report(root / "src", seed))
            if diff is not None:
                print(f"differs at seed {seed} ({rev} vs worktree): {diff}")
                return 1
    print("identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
