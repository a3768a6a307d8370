"""Fixed reference kernel that timed ops are divided by.

The kernel never imports detline, so no change to the package can move it.
It has three parts, one for each kind of work the workloads spend their
time on (times on a 2-vCPU x86-64 host with one BLAS thread, fast and slow
host state):

* ``python``: a 12000-term scalar loop of ``math.log`` and float powers,
  like the Euler-Maclaurin sums of ``specfun`` (2.9-5.4 ms);
* ``small_numpy``: 60 singular-value decompositions of 13x13 complex
  matrices, like the per-call numpy overhead of small windows and 2x2
  charts (2.2-3.3 ms);
* ``dense``: one 201x201 complex matrix product and one 201x201 complex SVD,
  like the dense linear algebra of the n_max = 100 window (8.6-11.7 ms).

Each workload divides its ops by the summed time of the parts that do its
kind of work (``ref_parts`` in workloads.py).  When the host slows down,
the parts slow by different factors, and matching parts track the op best:
over seven 20 s runs per workload, the spread (IQR / median) of the median
ratio was 2.3% for curvature-grid / (python + small_numpy), 3.4% for
verify-all / small_numpy and 2.7% for grassmannian-window / dense, against
3.3%, 5.3% and 8.0% with one mixed kernel (the first two parts plus one
201x201 product).  Those runs used 6000 terms and 40 SVDs.  A longer
python part (20000 terms) then cut the spread of the curvature-grid tail
over five runs from 9.6% to 1.4%; 12000 terms keeps the kernel well under a
curvature-grid op.

With OpenBLAS 0.3.31 on that host a complex matrix product, even 13x13,
leaves the CPU in a state in which later scalar ``math`` calls run about 3x
slower, until the next numpy vector loop ends it (measured: a 6000-term
Python loop took 2.96 ms, 8.75 ms right after a 201x201 complex product,
2.92 ms when an ``np.add`` on 64 doubles came in between; on 8 doubles,
which skips the vector loop, it stayed slow).  Each part therefore starts
after such an ``np.add``, and the kernel ends with one, so its times do not
depend on the op before it and the op after it starts in the same state
every time.
"""

from __future__ import annotations

import math
import time

import numpy as np

_rng = np.random.default_rng(20070712)
_SMALL = [_rng.standard_normal((13, 13)) + 1j * _rng.standard_normal((13, 13)) for _ in range(60)]
_BIG = (_rng.standard_normal((201, 201)) + 1j * _rng.standard_normal((201, 201))) / 201.0
_CLEAR = np.zeros(64)  # long enough for numpy's vector loop


def _python() -> None:
    acc = 0.0
    for n in range(12000):
        x = n + 0.5
        acc += math.log(x) - 0.5 * x**-1.5


def _small_numpy() -> None:
    for m in _SMALL:
        np.linalg.svd(m, compute_uv=False)


def _dense() -> None:
    _BIG @ _BIG
    np.linalg.svd(_BIG, compute_uv=False)


PARTS = {"python": _python, "small_numpy": _small_numpy, "dense": _dense}


def time_reference() -> dict[str, float]:
    """Run the kernel once; wall time of each part, in seconds."""
    times = {}
    for name, part in PARTS.items():
        np.add(_CLEAR, _CLEAR)
        start = time.perf_counter()
        part()
        times[name] = time.perf_counter() - start
    np.add(_CLEAR, _CLEAR)
    return times
