"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that
* every metric named in BENCHMARK.json is printed, with its unit, for every
  workload, in both the untraced (end-to-end) and the traced (per-layer) run;
* in traced ops, every span's self time is >= 0 and their sum is no more
  than the op's wall time;
* ``*.calls`` and ``margin_digits`` repeat exactly across two runs at one seed.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

SEED = 3


def run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_printed_metrics(spec: dict, problems: list) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            first, second = run(workload, trace), run(workload, trace)
            expected = {m["name"]: m["unit"] for m in spec[section]}
            printed = {name: m["unit"] for name, m in first["metrics"].items()}
            if printed != expected:
                problems.append(f"{workload} trace={trace}: printed {printed} != {expected}")
            if not first["correct"] or first["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: run not correct: {first}")
            repeat = [n for n in first["metrics"] if n.endswith(".calls") or n == "margin_digits"]
            for name in repeat:
                a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
                if a != b:
                    problems.append(f"{workload}: {name} differs across runs at one seed: {a} vs {b}")


def check_self_times(problems: list) -> None:
    import tempfile

    from tracing import Tracer
    from worker import run_loop
    from workloads import WORKLOADS

    tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
        for name, cls in WORKLOADS.items():
            result = run_loop(cls(SEED, True, workdir), 0.0, tracer)
            for op in (op for op in result["ops"] if op["traced"]):
                selfs = op["self_s"].values()
                if min(selfs) < 0.0 or sum(selfs) > op["op_s"]:
                    problems.append(f"{name}: self times {op['self_s']} vs op {op['op_s']}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    check_self_times(problems)
    check_printed_metrics(spec, problems)
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
