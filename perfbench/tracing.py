"""Spans around detline's public functions, recorded from outside the package.

Each wrapped name is replaced where its caller looks it up: a module global
for functions called by bare name (``interval_cp1`` imports
``hurwitz_zeta_ds0`` and ``fd_apply`` by name, ``det_line`` imports
``fredholm_det`` by name), a class attribute for methods.  Every site of one
span name records into the same counter.

A span's self time is its wall time minus the wall time of the spans it
called.  Spans are aggregated per op in memory (calls and self seconds per
name), not stored one by one: a ``verify-all`` op opens about 50k spans.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from detline import chern_series, cli, det_line, grassmannian, interval_cp1, report, specfun

# span name -> the (owner, attribute) sites where callers look the function up
SPANS = {
    "specfun.hurwitz_zeta_ds0": [(specfun, "hurwitz_zeta_ds0"), (interval_cp1, "hurwitz_zeta_ds0")],
    "specfun.fd_apply": [(specfun, "fd_apply"), (interval_cp1, "fd_apply")],
    "interval_cp1.zeta_det_spectral": [(interval_cp1, "zeta_det_spectral")],
    "interval_cp1.quillen_curvature_fd": [(interval_cp1, "quillen_curvature_fd")],
    "interval_cp1.alpha_of": [(interval_cp1, "alpha_of")],
    "interval_cp1.kahler_form_2x2": [(interval_cp1, "kahler_form_2x2")],
    "grassmannian.ModeOperator.is_projection": [(grassmannian.ModeOperator, "is_projection")],
    "grassmannian.ProjectionFamily.call": [(grassmannian.ProjectionFamily, "__call__")],
    "grassmannian.connection_form": [(grassmannian, "connection_form")],
    "grassmannian.tr_p_dp_dp": [(grassmannian, "tr_p_dp_dp")],
    "grassmannian.curvature_rkw": [(grassmannian, "curvature_rkw")],
    "grassmannian.transition_det": [(grassmannian, "transition_det")],
    "grassmannian.fredholm_det": [(grassmannian, "fredholm_det"), (det_line, "fredholm_det")],
    "det_line.det_point": [(det_line, "det_point")],
    "det_line.ratio": [(det_line, "ratio")],
    "det_line.tensor_split": [(det_line, "tensor_split")],
    "det_line.range_map_index": [(det_line, "range_map_index")],
    "chern_series.todd_series": [(chern_series, "todd_series")],
    "chern_series.exp_series": [(chern_series, "exp_series")],
    "chern_series.grr_c1_coefficient": [(chern_series, "grr_c1_coefficient")],
    "chern_series.RationalSeries.mul": [(chern_series.RationalSeries, "__mul__")],
    "report.run_suite": [(report, "run_suite")],
    "report.curvature_grid": [(report, "curvature_grid")],
    "cli.main": [(cli, "main")],
}

# counted, not timed: every ModeOperator construction runs __post_init__
COUNTS = {
    "grassmannian.ModeOperator.construct": [(grassmannian.ModeOperator, "__post_init__")],
}


class Tracer:
    """Installs span wrappers on demand and aggregates them per op."""

    def __init__(self):
        self._children: list[float] = []  # child wall time of each open span
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self._originals = [
            (owner, attr, owner.__dict__[attr])
            for sites in (*SPANS.values(), *COUNTS.values())
            for owner, attr in sites
        ]
        self._wrapped = []
        for name, sites in SPANS.items():
            self._wrapped += [(owner, attr, self._span(name, owner.__dict__[attr])) for owner, attr in sites]
        for name, sites in COUNTS.items():
            self._wrapped += [(owner, attr, self._count(name, owner.__dict__[attr])) for owner, attr in sites]

    def _span(self, name, fn):
        children = self._children
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - start
                calls[name] += 1
                self_s[name] += wall - children.pop()
                if children:
                    children[-1] += wall

        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def __enter__(self):
        """Start a traced op: clear the counters and install every wrapper."""
        self.calls.clear()
        self.self_s.clear()
        for owner, attr, wrapper in self._wrapped:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in self._originals:
            setattr(owner, attr, original)
        return False

    def snapshot(self) -> tuple[dict[str, int], dict[str, float]]:
        return dict(self.calls), dict(self.self_s)
