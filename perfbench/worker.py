"""One benchmark process: set up a workload, then run its closed loop.

Started by ``run.py`` with the BLAS thread count already pinned in the
environment.  Prints one JSON line: ``setup_s``, the time from ``--started``
(the launcher's ``time.monotonic()`` just before it started this process;
the clock is shared by all processes) until the workload is built and one
untimed warm-up op has run, and unless ``--setup-only`` the raw measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from refkernel import time_reference  # noqa: E402  (imports numpy after the pin)
from workloads import WORKLOADS  # noqa: E402


def blas_provenance() -> dict:
    """numpy and BLAS versions, and the thread count the loaded OpenBLAS uses."""
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)  # already loaded by numpy: same handle
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_loop(workload, seconds: float, tracer=None) -> dict:
    """Closed loop: reference kernel, op, reference kernel, op, ..., kernel.

    Ops cycle through the workload's input pool; the loop makes at least one
    full pass even when that takes longer than ``seconds``, so the per-input
    results (errors, call counts) are complete.  With a tracer, each input
    runs untraced and then traced, so the two halves see the same inputs.
    """
    pool = len(workload.pool)
    per_input = 2 if tracer is not None else 1
    refs = [time_reference()]
    ops = []
    deadline = time.perf_counter() + seconds
    j = 0
    while j < pool * per_input or time.perf_counter() < deadline or j % per_input:
        i = (j // per_input) % pool
        traced = tracer is not None and j % 2 == 1
        record = {"input": i, "traced": traced, "ok": False, "margin": None}
        start = time.perf_counter()
        try:
            if traced:
                with tracer:
                    raw = workload.call(i)
                record["calls"], record["self_s"] = tracer.snapshot()
            else:
                raw = workload.call(i)
        except Exception:  # an op that raises is a failed op, not a failed run
            record["op_s"] = time.perf_counter() - start
            record["error"] = traceback.format_exc(limit=3)
        else:
            record["op_s"] = time.perf_counter() - start
            try:
                outcome = workload.check(i, raw)
            except Exception:  # an unreadable output fails the op
                record["error"] = traceback.format_exc(limit=3)
            else:
                record.update(vars(outcome))
        refs.append(time_reference())
        ops.append(record)
        j += 1
    parts = workload.ref_parts
    for k, record in enumerate(ops):
        record["ref_s"] = 0.5 * sum(refs[k][p] + refs[k + 1][p] for p in parts)
    return {"ops": ops, "ref_parts": parts, "ref_s": [sum(ref.values()) for ref in refs]}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--started", type=float, required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.tiny, args.workdir)
    workload.check(0, workload.call(0))  # warm-up op, part of set-up
    setup_s = time.monotonic() - args.started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    result = run_loop(workload, args.seconds, tracer)
    result["setup_s"] = setup_s
    result["provenance"] = blas_provenance()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
