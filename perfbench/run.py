"""detline benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout (it needs ``src/detline``).  Without
``--workload`` it runs every workload in turn.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Pin BLAS/OpenMP to one thread before any process imports numpy: with two
# threads on two vCPUs, op time follows whatever else the host runs.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-all", "curvature-grid", "grassmannian-window")
SETUP_STARTS = 5  # fresh-interpreter starts whose median is setup_s
RUN_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ref.p50": "ref",
    "op_ref.tail": "ref",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "margin_digits": "digits",
}

TIMED_SPANS = (
    "specfun.hurwitz_zeta_ds0",
    "specfun.fd_apply",
    "interval_cp1.zeta_det_spectral",
    "interval_cp1.quillen_curvature_fd",
    "interval_cp1.alpha_of",
    "interval_cp1.kahler_form_2x2",
    "grassmannian.ModeOperator.is_projection",
    "grassmannian.ProjectionFamily.call",
    "grassmannian.connection_form",
    "grassmannian.tr_p_dp_dp",
    "grassmannian.curvature_rkw",
    "grassmannian.transition_det",
    "grassmannian.fredholm_det",
)
SELF_ONLY_SPANS = (
    "det_line.det_point",
    "det_line.ratio",
    "det_line.tensor_split",
    "det_line.range_map_index",
    "chern_series.todd_series",
    "chern_series.exp_series",
    "chern_series.grr_c1_coefficient",
    "chern_series.RationalSeries.mul",
    "report.run_suite",
    "report.curvature_grid",
    "cli.main",
)
PER_LAYER_UNITS = {
    **{f"{span}.{kind}": unit for span in TIMED_SPANS for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "grassmannian.ModeOperator.construct.calls": "count",
    "grassmannian.validations_per_family_call": "ratio",
    **{f"{span}.self_s": "s" for span in SELF_ONLY_SPANS},
    "report.bytes_written": "B",
    "report.grid_skip_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not an op failure)."""


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    return 0.5 * (ordered[(n - 1) // 2] + ordered[n // 2])


def tail(values) -> tuple[float, float]:
    """Value at the highest percentile with at least 10 samples beyond it.

    Returns (value, percentile).  Below 21 samples that percentile would lie
    under the median, so the median is returned, at percentile 50.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def git_sha() -> str:
    """HEAD of the checkout's own .git, read as files; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def loadavg() -> str | None:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return None


def _run_worker(workload: str, args, workdir: str, setup_only: bool, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", workdir, "--started", repr(time.monotonic()),
    ]
    cmd += ["--tiny"] * args.tiny + ["--setup-only"] * setup_only
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{workload} worker passed the {RUN_LIMIT_S:.0f} s run limit")
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(workload: str, args, deadline: float) -> dict:
    """Start the worker several times for set-up time; measure with the last."""
    workdir = tempfile.mkdtemp(dir=ROOT, prefix=".perfbench-")
    try:
        starts = 1 if args.trace else SETUP_STARTS
        setups = [
            _run_worker(workload, args, workdir, True, deadline)["setup_s"] for _ in range(starts - 1)
        ]
        raw = _run_worker(workload, args, workdir, False, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    raw["setup_s"] = setups + [raw["setup_s"]]
    return raw


def summarize(raw: dict, trace: bool) -> tuple[dict, dict]:
    """Metrics (name -> value) and context for one workload's raw measurements."""
    ops = raw["ops"]
    untraced = [op for op in ops if not op["traced"]]
    ratios = [op["op_s"] / op["ref_s"] for op in untraced]
    context = {
        "ops": len(ops),
        "op_s.p50": median([op["op_s"] for op in untraced]),
        "ref_s.p50": median(raw["ref_s"]),
        "ref_parts": raw["ref_parts"],
        "ref_parts_s.p50": median([op["ref_s"] for op in untraced]),
        "setup_runs_s": raw["setup_s"],
    }
    if not trace:
        tail_value, tail_pct = tail(ratios)
        margins = [op["margin"] for op in ops if op["margin"] is not None]
        context["op_ref.tail_percentile"] = tail_pct
        metrics = {
            "setup_s": median(raw["setup_s"]),
            "op_ref.p50": median(ratios),
            "op_ref.tail": tail_value,
            "peak_rss_mb": raw["peak_rss_mb"],
            "ok_frac": sum(op["ok"] for op in ops) / len(ops),
            "margin_digits": min(margins) if margins else 0.0,
        }
        return metrics, context

    traced = [op for op in ops if op["traced"] and "calls" in op]
    first_pass = list({op["input"]: op for op in reversed(traced)}.values())
    metrics = {}
    for name in PER_LAYER_UNITS:
        span, _, kind = name.rpartition(".")
        if kind == "calls":
            metrics[name] = median([op["calls"].get(span, 0) for op in first_pass])
        elif kind == "self_s":
            metrics[name] = median([op["self_s"].get(span, 0.0) for op in traced])
    family = sum(op["calls"].get("grassmannian.ProjectionFamily.call", 0) for op in traced)
    checks = sum(op["calls"].get("grassmannian.ModeOperator.is_projection", 0) for op in traced)
    rows = sum(op.get("grid_rows", 0) for op in first_pass)
    metrics["grassmannian.validations_per_family_call"] = checks / family if family else 0.0
    metrics["report.bytes_written"] = median([op.get("bytes_written", 0) for op in first_pass])
    metrics["report.grid_skip_frac"] = (
        sum(op.get("grid_skipped", 0) for op in first_pass) / rows if rows else 0.0
    )
    traced_ratio = median([op["op_s"] / op["ref_s"] for op in traced])
    metrics["trace.overhead_frac"] = traced_ratio / median(ratios) - 1.0
    context["traced_ops"] = len(traced)
    return metrics, context


def measure(workload: str, args, deadline: float) -> dict:
    load_start = loadavg()
    raw = run_workload(workload, args, deadline)
    metrics, context = summarize(raw, bool(args.trace))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    failed = sum(not op["ok"] for op in raw["ops"])
    errors = [op["error"] for op in raw["ops"] if "error" in op]
    provenance = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        **raw["provenance"],
        "loadavg_start": load_start,
        "loadavg_end": loadavg(),
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"context": context}))
    if errors:
        print(f"first op error ({len(errors)} in all):\n{errors[0]}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{workload:>20}  {name:<44} {value:.6g} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": len(raw["ops"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "detline" / "__init__.py").is_file():
        print(f"error: no detline sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        results = {}
        for workload in [args.workload] if args.workload else WORKLOADS:
            deadline = time.monotonic() + RUN_LIMIT_S
            results[workload] = measure(workload, args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
