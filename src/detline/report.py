"""Verification suites, machine-readable reports, and the curvature grid
emitter.

A suite is a generator of rows ``(name, paper_anchor, observed, expected,
tolerance)``, where ``paper_anchor`` names the identity ("plumbing" for
artifact-internal checks).  ``run_suite`` alone judges rows: one with a
tolerance passes when observed is finite and within it of expected; one with
tolerance None is exact and passes when observed equals expected (a bool is
reported as expected, or "violated").  Suites are deterministic in one
64-bit seed, so reruns are byte-identical apart from timestamps.

Each identity is measured by one public function (``zeta_det_error``,
``curvature_errors``, ...) on the caller's samples and held to one ``TOL_*``
constant of ``detline.tolerances``; the suites and the acceptance tests share them.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import numbers
import os
import tempfile
from collections.abc import Iterator
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import chern_series, det_line, grassmannian as gr, interval_cp1 as cp1
from .errors import DetlineError, DomainError
from .tolerances import (
    DEFAULT_FD_STEP,
    TOL_COCYCLE,
    TOL_CONNECTION_CURVATURE,
    TOL_CONNECTION_PATCHING,
    TOL_CURVATURE,
    TOL_DET_LINE,
    TOL_ETA,
    TOL_ZETA_DET,
)

__all__ = [
    "CaseResult",
    "ReportDocument",
    "GridSpec",
    "run_suite",
    "curvature_grid",
    "SUITE_NAMES",
    "SCHEMA",
    # shared measurements, used by the suites and the acceptance tests
    "chart_grid",
    "random_window_unitary",
    "random_det_class",
    "zeta_det_error",
    "model_identity_error",
    "metric_patching_error",
    "curvature_errors",
    "spectral_cut_errors",
    "eta_offset_error",
    "eta_flip_error",
    "family_patching_error",
    "chart_patching_error",
    "connection_curvature_error",
    "cocycle_error",
    "equivalence_error",
    "transitivity_error",
    "multiplicativity_error",
    "index_is_additive",
    "grr_coefficient_exact",
    "TOL_ZETA_DET",
    "TOL_CURVATURE",
    "TOL_ETA",
    "TOL_CONNECTION_PATCHING",
    "TOL_CONNECTION_CURVATURE",
    "TOL_COCYCLE",
    "TOL_DET_LINE",
]

SCHEMA = "detline-lab/1"


@dataclass(frozen=True)
class CaseResult:
    name: str
    status: str
    observed: float | str | None
    expected: float | str | None
    tolerance: float | None
    paper_anchor: str

    def to_json(self) -> dict:
        """The fields in order; a shallow copy, as every value is a number,
        a string or None."""
        return dict(vars(self))


@dataclass
class ReportDocument:
    suite: str
    seed: int
    cases: list[CaseResult]
    started_at: str
    finished_at: str

    @property
    def n_fail(self) -> int:
        return sum(1 for c in self.cases if c.status == "fail")

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "suite": self.suite,
            "seed": self.seed,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "summary": {
                "n_cases": len(self.cases),
                "n_pass": sum(1 for c in self.cases if c.status == "pass"),
                "n_fail": self.n_fail,
                "n_skip": sum(1 for c in self.cases if c.status == "skip"),
            },
            "cases": [c.to_json() for c in self.cases],
        }


Row = tuple[str, str, object, object, float | None]


def _raised(call, *args) -> str:
    """The name of the DetlineError that call(*args) raises, or "no error"."""
    try:
        call(*args)
    except DetlineError as exc:
        return type(exc).__name__
    return "no error"


# ---------------------------------------------------------------------------
# shared measurements: each returns the worst error over the caller's samples


def _worst(errors) -> float:
    """The largest of the error samples, or NaN when any sample is not finite.

    Python's max keeps its running value when a comparison with NaN is false,
    so it drops a NaN sample and run_suite's finiteness check never sees it.
    """
    samples = np.fromiter(errors, dtype=float)
    return float(np.max(samples)) if np.all(np.isfinite(samples)) else math.nan


def chart_grid(lo: float, hi: float, n: int) -> list[complex]:
    """The n x n chart grid on [lo, hi]^2, row by row, outside the zero-mode disk."""
    axis = np.linspace(lo, hi, n)
    points = (complex(x, y) for x in axis for y in axis)
    return [z for z in points if abs(z + 1) >= cp1.EXCLUSION_RADIUS]


def _complex_normals(rng: np.random.Generator, shape: tuple[int, ...], dim: int) -> np.ndarray:
    """Complex dim x dim Gaussian matrices of the given stack shape, drawn by one
    call in the order of per-matrix draws: the real part, then the imaginary."""
    g = rng.standard_normal((*shape, 2, dim, dim))
    return g[..., 0, :, :] + 1j * g[..., 1, :, :]


def _unitaries(m: np.ndarray) -> np.ndarray:
    """The unitary QR factors of a stack of matrices, with phases fixed so
    that R has a positive diagonal."""
    q, r = np.linalg.qr(m)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def random_window_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    return _unitaries(_complex_normals(rng, (), dim))


def random_det_class(rng: np.random.Generator, w: gr.ModeWindow, scale=0.4) -> gr.ModeOperator:
    k = scale * _complex_normals(rng, (), w.dim)
    return gr.ModeOperator(w, np.eye(w.dim, dtype=complex) + k, gr.TAIL_IDENTITY)


def _det_class_stacks(
    rng: np.random.Generator, w: gr.ModeWindow, count: int, per_instance: int, scale=0.4
) -> list[gr.ModeOperator]:
    """count instances of per_instance random_det_class operators, drawn in
    its order instance by instance, as per_instance stacks of count members."""
    k = scale * _complex_normals(rng, (count, per_instance), w.dim)
    entries = np.eye(w.dim, dtype=complex) + k
    return [gr.ModeOperator(w, entries[:, j], gr.TAIL_IDENTITY) for j in range(per_instance)]


def zeta_det_error(points) -> float:
    """Max relative error of the spectral zeta determinant against the closed form."""
    z = np.asarray(list(points), dtype=complex)
    closed = cp1.zeta_det_closed(z)
    return float(np.max(np.abs(cp1.zeta_det_spectral(z) - closed) / closed))


def model_identity_error(points) -> float:
    """Max error of det = DET_TO_S_CONSTANT |S(P)|^2, relative to the closed determinant."""
    z = np.asarray(list(points), dtype=complex)
    model = cp1.DET_TO_S_CONSTANT * np.abs(cp1.s_of_p(z)) ** 2
    return float(np.max(np.abs(cp1.zeta_det_spectral(z) - model) / cp1.zeta_det_closed(z)))


def metric_patching_error(pairs) -> float:
    """Max relative error of the metric-patching ratio over chart-point pairs."""
    z, w = np.asarray(list(pairs), dtype=complex).T
    lhs, rhs = cp1.metric_patching_check(z, w)
    return float(np.max(np.abs(lhs - rhs) / rhs))


def curvature_errors(points) -> tuple[float, float]:
    """Max relative errors of the finite-difference curvature against the closed
    Kahler density 1/(1+|z|^2)^2 and against Tr(P dP dP), both relative to the
    closed density."""
    z = np.asarray(list(points), dtype=complex)
    closed = cp1.kahler_density_closed(z)
    k_fd = cp1.quillen_curvature_fd(z)
    return (
        float(np.max(np.abs(k_fd - closed) / closed)),
        float(np.max(np.abs(k_fd - cp1.kahler_form_2x2(z)) / closed)),
    )


def spectral_cut_errors(w: gr.ModeWindow) -> tuple[float, float]:
    """Max errors of relative_eta(pi_k, pi_0) = -2k and of
    relative_eta / 2 = RELATIVE_INDEX_SIGN * relative_index, k in -5..5."""
    pi0 = gr.spectral_projection(w, 0)
    eta_errs, idx_errs = [], []
    for k in range(-5, 6):
        pi_k = gr.spectral_projection(w, k)
        eta = gr.relative_eta(pi_k, pi0)
        eta_errs.append(abs(eta - (-2.0 * k)))
        idx_errs.append(abs(eta / 2.0 - gr.RELATIVE_INDEX_SIGN * gr.relative_index(pi_k, pi0)))
    return _worst(eta_errs), _worst(idx_errs)


def eta_offset_error(offsets) -> float:
    """Max error of the spectral eta invariant against 1 - 2a over the offsets."""
    a = np.asarray(list(offsets), dtype=float)
    return _worst(np.abs(gr.eta_invariant_spectral(a) - (1.0 - 2.0 * a)))


def eta_flip_error(rng: np.random.Generator, w: gr.ModeWindow) -> float:
    """Max disagreement of eta_finite_rank_check over 20 random (offset, flip) pairs."""
    checks = (
        gr.eta_finite_rank_check(float(rng.uniform(0.05, 0.95)), int(rng.integers(-6, 7)), w)
        for _ in range(20)
    )
    return _worst(abs(lhs - rhs) for lhs, rhs in checks)


def _stacked(points) -> tuple[np.ndarray, np.ndarray]:
    """Parameter points (t1, t2) as the pair of arrays the chart layer takes."""
    t1, t2 = np.asarray(list(points), dtype=float).reshape(-1, 2).T
    return t1, t2


def _by_direction(samples) -> dict:
    """(t, direction) samples as {direction: stacked points}, one entry per direction."""
    grouped: dict = {}
    for t, direction in samples:
        grouped.setdefault(direction, []).append(t)
    return {direction: _stacked(points) for direction, points in grouped.items()}


def family_patching_error(fam1, fam2, base: gr.ModeOperator, samples) -> float:
    """Max patching-identity error between the identity charts of two families
    over (t, direction) samples, one call per direction."""
    checks = (
        gr.patching_identity_check(fam1, fam2, base, t, d)
        for d, t in _by_direction(samples).items()
    )
    return _worst(np.concatenate([np.abs(lhs - rhs) for lhs, rhs in checks]))


def chart_patching_error(fam, base: gr.ModeOperator, sigma1, sigma2, samples) -> float:
    """Max patching-identity error between two perturbation charts of one family
    over (t, direction) samples, one call per direction."""
    checks = (
        gr.perturbation_patching_check(fam, base, sigma1, sigma2, t, d)
        for d, t in _by_direction(samples).items()
    )
    return _worst(np.concatenate([np.abs(lhs - rhs) for lhs, rhs in checks]))


def connection_curvature_error(fam, base: gr.ModeOperator, points, perturbation) -> float:
    """Max |d omega - Tr(P [d1 P, d2 P])| over parameter points, in the chart of
    the perturbation (None for the identity chart)."""
    t = _stacked(points)
    return _worst(
        np.abs(gr.curvature_rkw(fam, base, t, perturbation=perturbation) - gr.tr_p_dp_dp(fam, t))
    )


def cocycle_error(fam, base: gr.ModeOperator, t, sigma1, sigma2, sigma3) -> float:
    """|g_12 g_23 g_31 - 1| for the transition determinants of three charts."""
    cocycle = (
        gr.transition_det(fam, base, t, sigma1, sigma2)
        * gr.transition_det(fam, base, t, sigma2, sigma3)
        * gr.transition_det(fam, base, t, sigma3, sigma1)
    )
    return abs(cocycle - 1.0)


# The determinant-line measurements take single operators or stacks of them
# (ModeOperator entries k x d x d); on stacks they return one error, or one
# bool, per member, from one det_line call per step.


def equivalence_error(s: gr.ModeOperator, q: gr.ModeOperator, lam: complex) -> float | np.ndarray:
    """|ratio([S q, l], [S, l det q]) - 1|: the equivalence defining the points."""
    lhs = det_line.DetPoint(s @ q, lam, False)
    rhs = det_line.DetPoint(s, lam * gr.fredholm_det(q), False)
    return abs(det_line.ratio(lhs, rhs) - 1.0)


def normal_form_error(s: gr.ModeOperator, q: gr.ModeOperator) -> float | np.ndarray:
    """Relative gap between the normal-form scales of [S q, 1] and [S, det q]."""
    nf1 = det_line.DetPoint(s @ q, 1.0 + 0j, False).normal_form()
    nf2 = det_line.DetPoint(s, gr.fredholm_det(q), False).normal_form()
    return abs(nf1.scale - nf2.scale) / abs(nf2.scale)


def transitivity_error(
    a: gr.ModeOperator, b: gr.ModeOperator, c: gr.ModeOperator
) -> float | np.ndarray:
    """Relative error of ratio(a, b) ratio(b, c) = det_F(a c^-1) for three representatives.

    ratio divides Fredholm determinants, so ratio(a, c) would be a quotient
    of the same determinants as the left side; det_F(a c^-1) reaches the
    same value through the multiplicativity of det_F instead.  a c^-1 is
    formed by a solve, as the chart transition determinants are, never as
    det a / det c.  The error is relative to max(1, |det_F(a c^-1)|), as in
    multiplicativity_error: the ratio can be large, and forming a c^-1
    rounds in proportion to it.
    """
    pa, pb, pc = (det_line.det_point(x) for x in (a, b, c))
    chained = det_line.ratio(pa, pb) * det_line.ratio(pb, pc)
    a, c = a._pair(c)  # on one window, as their product would be
    direct = np.linalg.det(np.linalg.solve(c.entries.mT, a.entries.mT).mT)
    return abs(chained - direct) / np.maximum(1.0, abs(direct))


def multiplicativity_error(a, b, a2, b2) -> float | np.ndarray:
    """Relative error of det(A'B')/det(AB) = det(A'/A) det(B'/B)."""
    joint, (pa, pb) = det_line.tensor_split(a, b)
    lhs = det_line.ratio(det_line.det_point(a2 @ b2), joint)
    rhs = det_line.ratio(det_line.det_point(a2), pa) * det_line.ratio(det_line.det_point(b2), pb)
    return abs(lhs - rhs) / np.maximum(1.0, abs(rhs))


def index_is_additive(first, second, dom, mid, cod) -> bool | np.ndarray:
    """ind(second first) = ind(first) + ind(second) for ran dom -> ran mid -> ran cod."""
    parts = det_line.range_map_index(first, dom, mid) + det_line.range_map_index(second, mid, cod)
    return det_line.range_map_index(second @ (mid @ first), dom, cod) == parts


def grr_coefficient_exact(ms) -> bool:
    """The degree-two pushforward coefficient equals (6m^2+6m+1)/12 for every m."""
    return all(
        chern_series.grr_c1_coefficient(m) == Fraction(6 * m * m + 6 * m + 1, 12) for m in ms
    )


# ---------------------------------------------------------------------------
# interval model suite


def _random_chart_points(rng: np.random.Generator, count: int) -> list[complex]:
    points = []
    while len(points) < count:
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(z + 1) >= cp1.EXCLUSION_RADIUS:
            points.append(z)
    return points


def _suite_cp1(rng: np.random.Generator) -> Iterator[Row]:
    for z, expected in ((0j, 2.0), (1 + 0j, 4.0), (1j, 2.0)):
        yield (
            f"zeta-det closed form at z={z}",
            "zeta-determinant-projective-chart",
            cp1.zeta_det_closed(z),
            expected,
            1e-12,
        )
    yield (
        "spectral vs closed determinant, 21x21 grid, max relative error",
        "zeta-determinant-projective-chart",
        zeta_det_error(chart_grid(-2, 2, 21)),
        0.0,
        TOL_ZETA_DET,
    )

    branch_worst = _worst(
        abs(cp1.zeta_det_from_alpha(a) - cp1.zeta_det_from_alpha(1.0 - a))
        for a in (0.1, 0.25, 0.4, 0.5)
    )
    yield "branch invariance alpha vs 1-alpha", "spectral-offset-branch", branch_worst, 0.0, 1e-10

    for z, expected in ((0j, 1.0), (1 + 0j, 0.25), (1j, 0.25)):
        yield (
            f"quillen curvature at z={z}",
            "curvature-equals-kahler-form",
            cp1.quillen_curvature_fd(z),
            expected,
            TOL_CURVATURE,
        )
    worst_fd, worst_pdp = curvature_errors(chart_grid(-0.5, 0.5, 5))
    yield (
        "curvature vs closed Kahler density, 5x5 grid, max relative error",
        "curvature-equals-kahler-form",
        worst_fd,
        0.0,
        TOL_CURVATURE,
    )
    yield (
        "curvature vs Tr(P dP dP), 5x5 grid, max relative error",
        "curvature-from-boundary-projection",
        worst_pdp,
        0.0,
        TOL_CURVATURE,
    )

    yield (
        "metric patching ratio, 50 random pairs, max relative error",
        "quillen-metric-patching",
        metric_patching_error(zip(_random_chart_points(rng, 50), _random_chart_points(rng, 50))),
        0.0,
        TOL_ZETA_DET,
    )
    yield (
        "model identity det = 4 |S(P)|^2, 50 random points",
        "quillen-metric-patching",
        model_identity_error(_random_chart_points(rng, 50)),
        0.0,
        TOL_ZETA_DET,
    )

    calderon = cp1.calderon_projection_interval()
    yield (
        "calderon projection equals chart point z=1",
        "calderon-projection-interval",
        np.max(np.abs(calderon.entries - cp1.projection_from_chart(1.0).entries)),
        0.0,
        1e-12,
    )
    kernel_vec = np.array([1.0, 1.0], dtype=complex)
    yield (
        "Cauchy data of constants is fixed by the calderon projection",
        "calderon-projection-interval",
        np.linalg.norm(calderon.apply(kernel_vec) - kernel_vec),
        0.0,
        1e-12,
    )

    for z, expected in ((1 + 0j, 1.0), (0j, 1 / math.sqrt(2)), (-1 + 0j, 0.0)):
        yield (
            f"S(P) matrix element at z={z}",
            "boundary-fredholm-family",
            abs(cp1.s_of_p(z) - expected),
            0.0,
            1e-12,
        )

    yield (
        "adjoint projection kills the adjoint Cauchy data (1, -z)",
        "adjoint-boundary-condition",
        _worst(
            np.linalg.norm(cp1.adjoint_projection(z).apply(np.array([1.0, -z])))
            for z in _random_chart_points(rng, 20)
        ),
        0.0,
        1e-10,
    )

    for z, expected in ((0j, 0.25), (1 + 0j, 0.5)):
        yield (
            f"spectral offset at z={z}",
            "spectral-offset-quadratic",
            cp1.alpha_of(z).alpha,
            expected,
            1e-12,
        )
    yield (
        "zero mode at z=-1 is detected",
        "spectral-offset-quadratic",
        _raised(cp1.alpha_of, -1 + 0j),
        "DegenerateSpectrum",
        None,
    )


# ---------------------------------------------------------------------------
# boundary Grassmannian suite


def _conjugated_projection(
    rng: np.random.Generator, window: gr.ModeWindow, cut: int
) -> gr.ModeOperator:
    u = random_window_unitary(rng, window.dim)
    base = gr.spectral_projection(window, cut)
    return gr.ModeOperator(window, u @ base.entries @ u.conj().T, gr.TAIL_APS)


def _suite_grassmannian(rng: np.random.Generator) -> Iterator[Row]:
    w = gr.ModeWindow(6)
    pi0 = gr.spectral_projection(w, 0)

    worst_eta, worst_idx = spectral_cut_errors(w)
    yield (
        "relative eta of spectral cuts equals -2k, k in -5..5",
        "relative-eta-without-regularization",
        worst_eta,
        0.0,
        1e-12,
    )
    yield (
        "relative eta / 2 equals the relative index with one global sign",
        "relative-eta-index-formula",
        worst_idx,
        0.0,
        1e-12,
    )

    p, q, r = (_conjugated_projection(rng, w, cut) for cut in (1, 0, -2))
    antisym = abs(gr.relative_eta(p, q) + gr.relative_eta(q, p))
    additive = abs(gr.relative_eta(p, q) + gr.relative_eta(q, r) - gr.relative_eta(p, r))
    yield (
        "relative eta antisymmetry and additivity on conjugated projections",
        "relative-eta-without-regularization",
        _worst((antisym, additive)),
        0.0,
        1e-10,
    )
    half = gr.relative_eta(p, q) / 2.0
    yield (
        "relative eta / 2 is an integer for exact projections",
        "relative-eta-index-formula",
        abs(half - np.round(half)),
        0.0,
        1e-8,
    )

    yield (
        "spectral eta invariant equals 1 - 2a on the offset grid",
        "eta-as-zeta-quasi-trace",
        eta_offset_error(np.arange(0.05, 0.96, 0.05)),
        0.0,
        TOL_ETA,
    )
    offsets = np.array([0.05, 0.2, 0.35, 0.45])
    eta = gr.eta_invariant_spectral(np.concatenate([offsets, 1.0 - offsets]))
    worst_anti = _worst(np.abs(eta[: offsets.size] + eta[offsets.size :]))
    yield "eta antisymmetry under a -> 1-a", "eta-as-zeta-quasi-trace", worst_anti, 0.0, 1e-10

    yield (
        "finite-rank eta perturbation, 20 random (a, flip) pairs",
        "relative-eta-of-spectral-flips",
        eta_flip_error(rng, w),
        0.0,
        TOL_ETA,
    )

    rank_one = np.eye(w.dim, dtype=complex)
    rank_one[w.index(0), w.index(0)] = 2.0
    det_spot = _worst(
        [
            abs(gr.fredholm_det(gr.ModeOperator.identity(w)) - 1.0),
            abs(gr.fredholm_det(gr.ModeOperator(w, rank_one, gr.TAIL_IDENTITY)) - 2.0),
        ]
    )
    yield "fredholm determinant spot values", "fredholm-determinant-window", det_spot, 0.0, 1e-12
    ka = gr.ModeOperator(
        w, np.eye(w.dim) + 0.3 * random_window_unitary(rng, w.dim), gr.TAIL_IDENTITY
    )
    kb = gr.ModeOperator(
        w, np.eye(w.dim) + 0.3 * random_window_unitary(rng, w.dim), gr.TAIL_IDENTITY
    )
    yield (
        "fredholm determinant multiplicativity on random operators",
        "fredholm-determinant-window",
        abs(gr.fredholm_det(ka @ kb) - gr.fredholm_det(ka) * gr.fredholm_det(kb)),
        0.0,
        1e-8,
    )
    yield (
        "fredholm determinant stability under window doubling",
        "fredholm-determinant-window",
        abs(gr.fredholm_det(ka.embed_to(gr.ModeWindow(2 * w.n_max))) - gr.fredholm_det(ka)),
        0.0,
        1e-12,
    )

    fam = gr.rotated_family(w, (-1, 0))
    constant = gr.ProjectionFamily(w, lambda t1, t2: gr.spectral_projection(w, 0).entries)
    yield (
        "connection form of the constant family vanishes",
        "determinant-line-connection-form",
        abs(gr.connection_form(constant, pi0, (0.4, 0.7), "t1")),
        0.0,
        1e-10,
    )
    yield (
        "connection form vanishes along the axis t1 = 0",
        "determinant-line-connection-form",
        abs(gr.connection_form(fam, pi0, (0.0, 0.3), "t2")),
        0.0,
        1e-8,
    )

    sigma, sigma2, sigma3 = (
        gr.ModeOperator(w, 0.25 * random_window_unitary(rng, w.dim), gr.TAIL_ZERO)
        for _ in range(3)
    )
    yield (
        "curvature d omega matches Tr(P [d1 P, d2 P])",
        "curvature-of-boundary-connection",
        connection_curvature_error(fam, pi0, [(0.37, 0.63)], None),
        0.0,
        TOL_CONNECTION_CURVATURE,
    )
    yield (
        "curvature is chart independent (perturbed chart)",
        "curvature-chart-independence",
        connection_curvature_error(fam, pi0, [(0.37, 0.63)], sigma),
        0.0,
        TOL_CONNECTION_CURVATURE,
    )

    stokes_lhs, stokes_rhs = _stokes_pair(fam, pi0)
    yield (
        "Stokes: boundary integral of omega equals the curvature integral",
        "curvature-of-boundary-connection",
        abs(stokes_lhs - stokes_rhs),
        0.0,
        1e-8,
    )

    def both_directions(points):
        return [(t, direction) for t in points for direction in ("t1", "t2")]

    fam2 = gr.rotated_family(w, (-1, 1))
    pair_samples = both_directions([(0.25, 0.15), (0.4, 0.6), (0.6, 0.35), (0.3, 0.8)])
    yield (
        "patching of the identity charts of two rotated families",
        "connection-patching-identity",
        family_patching_error(fam, fam2, pi0, pair_samples),
        0.0,
        TOL_CONNECTION_PATCHING,
    )
    sigma_samples = both_directions([(0.2, 0.3), (0.45, 0.7), (0.6, 0.1)])
    yield (
        "patching of two perturbation charts of one family",
        "connection-patching-identity",
        chart_patching_error(fam, pi0, sigma, sigma2, sigma_samples),
        0.0,
        TOL_CONNECTION_PATCHING,
    )
    yield (
        "triple overlap cocycle of transition determinants",
        "determinant-transition-cocycle",
        cocycle_error(fam, pi0, (0.44, 0.31), sigma, sigma2, sigma3),
        0.0,
        TOL_COCYCLE,
    )

    v_conj = random_window_unitary(rng, w.dim)
    conj_fam = gr.ProjectionFamily(
        w, lambda t1, t2: v_conj @ fam(t1, t2).entries @ v_conj.conj().T
    )
    conj_base = gr.ModeOperator(w, v_conj @ pi0.entries @ v_conj.conj().T, gr.TAIL_APS)
    t = (0.3, 0.45)
    conj_err = abs(
        gr.connection_form(fam, pi0, t, "t1") - gr.connection_form(conj_fam, conj_base, t, "t1")
    )
    yield (
        "connection form is invariant under constant conjugation",
        "determinant-line-connection-form",
        conj_err,
        0.0,
        1e-8,
    )


# Nodes of the Stokes rectangle [0, _STOKES_T1_MAX] x [0, 1]: Gauss-Legendre
# in t1, periodic trapezoid in t2.  On the rotated family the pair agrees to
# 1.7e-11 at 8 x 4 and at 24 x 16 alike (6 x 4 gave 5.4e-11): that is the
# floor of the stencil derivatives, and more nodes only cost time.
_STOKES_T1_MAX = 0.75
_STOKES_N1 = 8
_STOKES_N2 = 4


def _stokes_pair(fam: gr.ProjectionFamily, base: gr.ModeOperator) -> tuple[complex, complex]:
    """Line integral of omega around a chart rectangle vs the curvature integral.

    The rectangle [0, 0.75] x [0, 1] stays inside the invertibility chart of
    S(P); the full unit square touches the singular edge t1 = 1.  The family
    must be 1-periodic in t2, as the rotated family is through its phase
    exp(2 pi i t2).  The t1 integrals (bottom and top edges, and the area's
    inner rule) use _STOKES_N1 Gauss-Legendre nodes on [0, 0.75].  The t2
    integrals (left and right edges, and the area's outer rule) use the
    periodic trapezoid rule on the _STOKES_N2 nodes k / _STOKES_N2, which
    converges geometrically for a periodic analytic integrand (Trefethen and
    Weideman, "The exponentially convergent trapezoidal rule", SIAM Rev.
    2014).
    """
    x, weights = np.polynomial.legendre.leggauss(_STOKES_N1)
    t1s = 0.5 * _STOKES_T1_MAX * (x + 1.0)
    w1 = 0.5 * _STOKES_T1_MAX * weights
    t2s = np.arange(_STOKES_N2) / _STOKES_N2

    # omega_1 on the bottom (t2 = 0) and top (t2 = 1) edges, omega_2 on the
    # left (t1 = 0) and right edges: one connection_form call per direction
    n1, n2 = t1s.size, t2s.size
    omega_1 = gr.connection_form(fam, base, (np.tile(t1s, 2), np.repeat([0.0, 1.0], n1)), 0)
    omega_2 = gr.connection_form(
        fam, base, (np.repeat([0.0, _STOKES_T1_MAX], n2), np.tile(t2s, 2)), 1
    )
    bottom, top = (complex(w1 @ omega_1[j * n1 : (j + 1) * n1]) for j in (0, 1))
    left, right = (complex(np.mean(omega_2[j * n2 : (j + 1) * n2])) for j in (0, 1))
    boundary = bottom + right - top - left
    grid = gr.tr_p_dp_dp(fam, (np.repeat(t1s, n2), np.tile(t2s, n1))).reshape(n1, n2)
    area = complex(w1 @ grid.mean(axis=1))
    return boundary, area


# ---------------------------------------------------------------------------
# determinant line suite


def _additive_instances(rng: np.random.Generator, w: gr.ModeWindow, count: int) -> np.ndarray:
    """index_is_additive on count random chains ran dom -> ran mid -> ran cod of
    two partial isometries, one bool per chain.

    Each chain draws its sorted ranks r_small <= r_mid <= r_big, then the
    unitaries u1, v1, u2, v2 in that order.  dom, mid and cod project onto the
    leading r_big columns of u1, r_mid of v1 and r_small of v2; first = v1 u1*
    and second = v2 u2* are partial isometries on the leading r_small columns.
    Ranks vary over the stack, so leading columns are selected by a mask
    rather than sliced.
    """
    ranks, normals = [], []
    for _ in range(count):
        ranks.append(sorted(int(x) for x in rng.integers(1, w.dim, size=3)))
        normals.append(_complex_normals(rng, (4,), w.dim))
    u1, v1, u2, v2 = np.moveaxis(_unitaries(np.array(normals)), 1, 0)
    r_small, r_mid, r_big = (np.arange(w.dim) < r[:, None] for r in np.array(ranks).T)

    def partial(x: np.ndarray, y: np.ndarray, mask: np.ndarray) -> gr.ModeOperator:
        return gr.ModeOperator(w, (x * mask[:, None, :]) @ y.conj().mT, gr.TAIL_ZERO)

    dom, mid, cod = partial(u1, u1, r_big), partial(v1, v1, r_mid), partial(v2, v2, r_small)
    return index_is_additive(partial(v1, u1, r_small), partial(v2, u2, r_small), dom, mid, cod)


def _suite_detline(rng: np.random.Generator) -> Iterator[Row]:
    w = gr.ModeWindow(3)

    yield (
        "equivalence [S q, l] ~ [S, l det q], 20 random instances",
        "determinant-line-points",
        _worst(equivalence_error(*_det_class_stacks(rng, w, 20, 2), 2.0 + 0j)),
        0.0,
        TOL_DET_LINE,
    )

    p = det_line.det_point(random_det_class(rng, w))
    yield (
        "ratio of a point against itself is one",
        "determinant-ratio",
        abs(det_line.ratio(p, p) - 1.0),
        0.0,
        1e-12,
    )
    mu = 1.7 - 0.4j
    yield (
        "scalar action passes through the ratio",
        "determinant-ratio",
        abs(det_line.ratio(p.scaled(mu), p) - mu),
        0.0,
        1e-12,
    )

    yield (
        "ratio transitivity on random triples",
        "determinant-ratio",
        _worst(transitivity_error(*_det_class_stacks(rng, w, 20, 3))),
        0.0,
        TOL_DET_LINE,
    )

    yield (
        "multiplicativity det(A'B')/det(AB) = det(A'/A) det(B'/B), 100 instances",
        "determinant-multiplicativity",
        _worst(multiplicativity_error(*_det_class_stacks(rng, w, 100, 4, 0.3))),
        0.0,
        TOL_DET_LINE,
    )

    yield (
        "normal forms of equivalent pairs coincide",
        "determinant-line-points",
        _worst(normal_form_error(*_det_class_stacks(rng, w, 10, 2))),
        0.0,
        1e-10,
    )

    singular = np.eye(w.dim, dtype=complex)
    singular[0, 0] = 0.0
    zero_point = det_line.det_point(gr.ModeOperator(w, singular, gr.TAIL_IDENTITY))
    yield (
        "singular representative yields the zero point",
        "determinant-line-points",
        f"is_zero={zero_point.is_zero}, {_raised(det_line.ratio, p, zero_point)}",
        "is_zero=True, DivisionByZeroPoint",
        None,
    )

    yield (
        "index additivity on random partial isometries",
        "index-additivity",
        bool(np.all(_additive_instances(rng, w, 25))),
        "additive",
        None,
    )


# ---------------------------------------------------------------------------
# characteristic series suite


def _suite_chern(rng: np.random.Generator) -> Iterator[Row]:
    todd = chern_series.todd_series(8)
    yield (
        "todd series head coefficients",
        "todd-generating-series",
        ", ".join(str(todd[k]) for k in range(5)),
        "1, 1/2, 1/12, 0, -1/720",
        None,
    )
    product = todd * chern_series.RationalSeries(
        tuple(Fraction((-1) ** j, math.factorial(j + 1)) for j in range(9)), 8
    )
    yield (
        "todd series inverts its defining denominator",
        "todd-generating-series",
        "unit" if product == chern_series.RationalSeries.one(8) else str(product.coeffs),
        "unit",
        None,
    )

    yield (
        "degree-two pushforward coefficient equals (6m^2+6m+1)/12, m in -10..10",
        "first-chern-pushforward",
        grr_coefficient_exact(range(-10, 11)),
        "exact",
        None,
    )
    yield (
        "pushforward coefficient symmetry m <-> -1-m",
        "first-chern-pushforward",
        all(
            chern_series.grr_c1_coefficient(m) == chern_series.grr_c1_coefficient(-1 - m)
            for m in range(-10, 11)
        ),
        "symmetric",
        None,
    )

    a, b = (Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))) for _ in range(2))
    yield (
        "exponential addition law in the truncated ring",
        "chern-character-exponential",
        chern_series.exp_series(a, 8) * chern_series.exp_series(b, 8)
        == chern_series.exp_series(a + b, 8),
        "holds",
        None,
    )

    s1, s2, s3 = (
        chern_series.RationalSeries(
            tuple(Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4))) for _ in range(9)), 8
        )
        for _ in range(3)
    )
    yield (
        "ring laws of truncated multiplication",
        "plumbing",
        (s1 * s2) * s3 == s1 * (s2 * s3) and s1 * (s2 + s3) == s1 * s2 + s1 * s3,
        "hold",
        None,
    )


# Suite order is also the spawn order of the per-suite random streams.
_SUITES = {
    "cp1": _suite_cp1,
    "grassmannian": _suite_grassmannian,
    "detline": _suite_detline,
    "chern": _suite_chern,
}
SUITE_NAMES = (*_SUITES, "all")


def run_suite(name: str, seed: int = 0) -> ReportDocument:
    """Run the named verification suite deterministically under the seed, an
    integer >= 0 (a bool is no seed; a numpy integer is stored as int); the
    one place where a suite row becomes a judged CaseResult."""
    if name not in SUITE_NAMES:
        raise DomainError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if not isinstance(seed, numbers.Integral) or isinstance(seed, bool) or seed < 0:
        raise DomainError(f"seed must be an integer >= 0, got {seed!r}")
    started = datetime.now(timezone.utc).isoformat()
    cases: list[CaseResult] = []
    streams = np.random.SeedSequence(seed).spawn(len(_SUITES))
    for (suite_name, suite), stream in zip(_SUITES.items(), streams):
        if name not in ("all", suite_name):
            continue
        for case_name, anchor, observed, expected, tol in suite(np.random.default_rng(stream)):
            if tol is None:
                if isinstance(observed, bool):
                    observed = expected if observed else "violated"
                ok = observed == expected
            else:
                ok = math.isfinite(observed) and abs(observed - expected) <= tol
                observed, expected = float(observed), float(expected)
            status = "pass" if ok else "fail"
            cases.append(CaseResult(case_name, status, observed, expected, tol, anchor))
    finished = datetime.now(timezone.utc).isoformat()
    return ReportDocument(name, int(seed), cases, started, finished)


# ---------------------------------------------------------------------------
# curvature grid emitter


@dataclass(frozen=True)
class GridSpec:
    """A rectangular chart grid with exclusion disks around degenerate points."""

    re_min: float = -0.5
    re_max: float = 0.5
    im_min: float = -0.5
    im_max: float = 0.5
    n: int = 5
    exclusion: tuple[tuple[complex, float], ...] = ((-1.0 + 0j, cp1.EXCLUSION_RADIUS),)

    def __post_init__(self) -> None:
        for lo, hi in ((self.re_min, self.re_max), (self.im_min, self.im_max)):
            if not (lo < hi and math.isfinite(hi - lo)):  # NaN and inf fail too
                raise DomainError(
                    f"grid bounds must be finite with min < max and a finite width, got {lo}:{hi}"
                )
        if not isinstance(self.n, numbers.Integral) or self.n < 2:
            raise DomainError(f"grid needs an integer n >= 2 points per axis, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))  # a numpy integer stays JSON-writable
        for center, radius in self.exclusion:
            if not (cmath.isfinite(center) and math.isfinite(radius) and radius > 0):
                raise DomainError(
                    f"exclusion disk needs a finite centre and radius > 0, got {center}, {radius}"
                )

    def excluded(self, z: complex | np.ndarray) -> bool | np.ndarray:
        """Whether z lies in an exclusion disk, elementwise for an array."""
        inside = np.zeros(np.shape(z), dtype=bool)
        for center, radius in self.exclusion:
            # hypot: bit for bit Python's abs, so the skipped rows never move
            offset = np.asarray(z) - center
            inside |= np.hypot(offset.real, offset.imag) < radius
        return inside if np.ndim(z) else bool(inside)


CSV_HEADER = ["re", "im", "k_fd", "k_closed", "k_pdpdp", "rel_err_fd", "rel_err_pdpdp", "status"]


def _grid_rows(g: GridSpec) -> tuple[list[dict], dict]:
    """Rows of the grid, x-major; every column is computed in one array call
    over the points outside the exclusion disks that the stencil resolves."""
    re_axis = np.linspace(g.re_min, g.re_max, g.n)
    im_axis = np.linspace(g.im_min, g.im_max, g.n)
    re, im = np.repeat(re_axis, g.n), np.tile(im_axis, g.n)
    z = re + 1j * im
    ok = ~g.excluded(z)
    ok[ok] = ~cp1.curvature_fd_unresolved(z[ok])
    z_ok = z[ok]
    k_closed = cp1.kahler_density_closed(z_ok)
    # relative errors need a normal density: it underflows beyond |z| = 8e76
    underflow = k_closed < np.finfo(float).tiny
    if underflow.any():
        raise DomainError(
            f"the curvature density underflows at z = {z_ok[underflow][0]}, "
            "so its relative errors are undefined"
        )
    k_fd = cp1.quillen_curvature_fd(z_ok)
    k_pdpdp = cp1.kahler_form_2x2(z_ok)
    rel_fd = np.abs(k_fd - k_closed) / k_closed
    rel_pdp = np.abs(k_pdpdp - k_closed) / k_closed
    keys = ("k_fd", "k_closed", "k_pdpdp", "rel_err_fd", "rel_err_pdpdp")
    computed = iter(zip(*(col.tolist() for col in (k_fd, k_closed, k_pdpdp, rel_fd, rel_pdp))))
    skip = dict.fromkeys(keys, None)
    rows = []
    for x, y, point_ok in zip(re.tolist(), im.tolist(), ok.tolist()):
        row = {"re": x, "im": y}
        if point_ok:
            row.update(zip(keys, next(computed)), status="ok")
        else:
            row.update(skip, status="skip")
        rows.append(row)
    summary = {
        "n_rows": len(rows),
        "n_skipped": int(np.count_nonzero(~ok)),
        "max_rel_err_fd": float(rel_fd.max(initial=0.0)),
        "max_rel_err_pdpdp": float(rel_pdp.max(initial=0.0)),
        "fd_step": DEFAULT_FD_STEP,
    }
    return rows, summary


def _atomic_write(path: str, payload: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".detline-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def curvature_grid(
    g: GridSpec,
    out_format: str = "csv",
    path: str | None = None,
) -> dict:
    """Sample the curvature comparison over a grid and emit csv or json.

    Returns the summary dictionary (row counts and maximal relative errors);
    when ``path`` is given the file is written atomically.  A grid reaching
    beyond |z| = 8e76, where the closed density underflows and relative
    errors are undefined, raises DomainError and writes nothing.
    """
    if out_format not in ("csv", "json"):
        raise DomainError(f"out_format must be 'csv' or 'json', got {out_format!r}")
    rows, summary = _grid_rows(g)
    if path is not None:
        if out_format == "csv":
            buffer = io.StringIO()
            writer = csv.writer(buffer, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            writer.writerows(["" if row[k] is None else row[k] for k in CSV_HEADER] for row in rows)
            _atomic_write(path, buffer.getvalue())
        else:
            document = {
                "schema": SCHEMA,
                "kind": "curvature-grid",
                "grid": {k: getattr(g, k) for k in ("re_min", "re_max", "im_min", "im_max", "n")},
                "rows": rows,
                "summary": summary,
            }
            _atomic_write(path, json.dumps(document, indent=2) + "\n")
    return summary
