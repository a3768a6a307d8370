"""Verification suites, machine-readable reports, and the curvature grid
emitter.

A suite is a generator of rows ``(name, paper_anchor, observed, expected,
tolerance)``, where ``paper_anchor`` names the identity ("plumbing" for
artifact-internal checks).  ``run_suite`` alone reduces and judges rows.  An
error row's observed is the ``Routes`` of its identity: the two routes,
sample by sample, and the scale of their gap.  ``worst``, the one comparator,
reduces them to the largest scaled gap, NaN when any sample is not finite,
and the row passes when that is finite and within tolerance of expected 0.
A spot row's observed is a value held within its tolerance of expected.  A
row with tolerance None is exact and passes when observed equals expected (a
bool is reported as expected, or "violated").  Suites are deterministic in
one 64-bit seed, so reruns are byte-identical apart from timestamps.

Each identity is measured by one public function (``zeta_det_error``,
``curvature_errors``, ...) on the caller's samples, which returns its
``Routes``, and is held to one ``TOL_*`` constant of ``detline.tolerances``;
the suites and the acceptance tests share them and reduce through ``worst``.
"""

from __future__ import annotations

import cmath
import csv
import errno
import functools
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
from .errors import DetlineError, DomainError, _instance, _number
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
    "Routes",
    "worst",
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
        """The fields in order, as a shallow copy: every value is a number, a
        string or None.  A non-finite observed value, which only a failing
        row holds, is written as None (JSON null): RFC 8259 has no NaN."""
        finite = not isinstance(self.observed, float) or math.isfinite(self.observed)
        return {**vars(self), "observed": self.observed if finite else None}


@dataclass
class ReportDocument:
    """A suite's judged cases; the seed is an integer by ``errors._number``."""

    suite: str
    seed: int
    cases: list[CaseResult]
    started_at: str
    finished_at: str

    def __post_init__(self) -> None:
        _number(self.seed, numbers.Integral, "seed must be an integer")

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
# shared measurements: each returns the Routes of one identity on the caller's
# samples, and worst reduces them


@dataclass(frozen=True)
class Routes:
    """The two routes of an identity, as scalars or arrays (real or complex)
    of one shape, and the scale of their gap: one scalar, or one value per
    sample.  A vanishing quantity is route a against 0."""

    a: object
    b: object
    scale: object = 1.0


def worst(*routes: Routes) -> float:
    """The largest |a - b| / scale over every sample of the routes, or NaN when
    any sample or scale is not finite; no samples at all raise DomainError.

    The one comparator: run_suite reduces every error row through it, and
    the tests fold shared measurements through it.  Python's max would drop
    a NaN after the first sample, as a comparison with NaN is false.
    """
    with np.errstate(all="ignore"):  # a gap that is not finite gives NaN below
        gaps = [np.ravel(np.abs(np.subtract(r.a, r.b)) / r.scale) for r in routes]
    samples = np.concatenate([np.empty(0), *gaps])
    if samples.size == 0:
        raise DomainError("an identity needs at least one sample to compare its routes")
    finite = np.isfinite(samples).all() and all(np.isfinite(r.scale).all() for r in routes)
    return float(samples.max()) if finite else math.nan


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


def zeta_det_error(points) -> Routes:
    """The spectral zeta determinant against the closed form, relative to it."""
    z = np.asarray(list(points), dtype=complex)
    closed = cp1.zeta_det_closed(z)
    return Routes(cp1.zeta_det_spectral(z), closed, closed)


def model_identity_error(points) -> Routes:
    """det against DET_TO_S_CONSTANT |S(P)|^2, relative to the closed determinant."""
    z = np.asarray(list(points), dtype=complex)
    model = cp1.DET_TO_S_CONSTANT * np.abs(cp1.s_of_p(z)) ** 2
    return Routes(cp1.zeta_det_spectral(z), model, cp1.zeta_det_closed(z))


def metric_patching_error(pairs) -> Routes:
    """The two sides of the metric-patching ratio over chart-point pairs,
    relative to the right side."""
    pairs = list(pairs)
    z, w = np.asarray(pairs, dtype=complex).reshape(len(pairs), 2).T
    lhs, rhs = cp1.metric_patching_check(z, w)
    return Routes(lhs, rhs, rhs)


def curvature_errors(points) -> tuple[Routes, Routes]:
    """The finite-difference curvature against the closed Kahler density
    1/(1+|z|^2)^2 and against Tr(P dP dP), both relative to the closed
    density."""
    z = np.asarray(list(points), dtype=complex)
    closed = cp1.kahler_density_closed(z)
    k_fd = cp1.quillen_curvature_fd(z)
    return Routes(k_fd, closed, closed), Routes(k_fd, cp1.kahler_form_2x2(z), closed)


def spectral_cut_errors(w: gr.ModeWindow) -> tuple[Routes, Routes]:
    """relative_eta(pi_k, pi_0) against -2k, and relative_eta / 2 against
    RELATIVE_INDEX_SIGN * relative_index, k in -5..5."""
    pi0 = gr.spectral_projection(w, 0)
    cuts = [gr.spectral_projection(w, k) for k in range(-5, 6)]
    eta = np.array([gr.relative_eta(pi_k, pi0) for pi_k in cuts])
    index = np.array([gr.relative_index(pi_k, pi0) for pi_k in cuts])
    return Routes(eta, -2.0 * np.arange(-5, 6)), Routes(eta / 2.0, gr.RELATIVE_INDEX_SIGN * index)


def eta_offset_error(offsets) -> Routes:
    """The spectral eta invariant against 1 - 2a over the offsets."""
    a = np.asarray(list(offsets), dtype=float)
    return Routes(gr.eta_invariant_spectral(a), 1.0 - 2.0 * a)


def eta_flip_error(samples, w: gr.ModeWindow) -> Routes:
    """The two sides of eta_finite_rank_check over (offset, flip) samples."""
    return Routes(*np.array([gr.eta_finite_rank_check(a, flip, w) for a, flip in samples]).T)


def _stacked(points) -> tuple[np.ndarray, np.ndarray]:
    """Parameter points (t1, t2) as the pair of arrays the chart layer takes."""
    t1, t2 = np.asarray(list(points), dtype=float).reshape(-1, 2).T
    return t1, t2


def _by_direction(check, samples) -> Routes:
    """The two sides of a patching check over (t, direction) samples, from one
    check(t, direction) call per direction on its stacked points."""
    grouped: dict = {}
    for t, direction in samples:
        grouped.setdefault(direction, []).append(t)
    if not grouped:
        raise DomainError("a patching check needs at least one (t, direction) sample")
    sides = zip(*(check(_stacked(points), d) for d, points in grouped.items()))
    return Routes(*(np.concatenate(side) for side in sides))


def family_patching_error(fam1, fam2, base: gr.ModeOperator, samples) -> Routes:
    """The patching identity between the identity charts of two families over
    (t, direction) samples."""
    return _by_direction(functools.partial(gr.patching_identity_check, fam1, fam2, base), samples)


def chart_patching_error(fam, base: gr.ModeOperator, sigma1, sigma2, samples) -> Routes:
    """The patching identity between two perturbation charts of one family
    over (t, direction) samples."""
    check = functools.partial(gr.perturbation_patching_check, fam, base, sigma1, sigma2)
    return _by_direction(check, samples)


def connection_curvature_error(fam, base: gr.ModeOperator, points, perturbation) -> Routes:
    """d omega against Tr(P [d1 P, d2 P]) over parameter points, in the chart of
    the perturbation (None for the identity chart)."""
    t = _stacked(points)
    return Routes(gr.curvature_rkw(fam, base, t, perturbation=perturbation), gr.tr_p_dp_dp(fam, t))


def cocycle_error(fam, base: gr.ModeOperator, t, sigma1, sigma2, sigma3) -> Routes:
    """g_12 g_23 g_31 against 1 for the transition determinants of three charts."""
    cocycle = (
        gr.transition_det(fam, base, t, sigma1, sigma2)
        * gr.transition_det(fam, base, t, sigma2, sigma3)
        * gr.transition_det(fam, base, t, sigma3, sigma1)
    )
    return Routes(cocycle, 1.0)


# The determinant-line measurements take single operators or stacks of them
# (ModeOperator entries k x d x d); on stacks their routes hold one sample, and
# the bool one value, per member, from one det_line call per step.


def equivalence_error(s: gr.ModeOperator, q: gr.ModeOperator, lam: complex) -> Routes:
    """ratio([S q, l], [S, l det q]) against 1: the equivalence defining the points."""
    lhs = det_line.DetPoint(s @ q, lam, False)
    rhs = det_line.DetPoint(s, lam * gr.fredholm_det(q), False)
    return Routes(det_line.ratio(lhs, rhs), 1.0)


def normal_form_error(s: gr.ModeOperator, q: gr.ModeOperator) -> Routes:
    """The normal-form scales of [S q, 1] and [S, det q], relative to the second."""
    nf1 = det_line.DetPoint(s @ q, 1.0 + 0j, False).normal_form()
    nf2 = det_line.DetPoint(s, gr.fredholm_det(q), False).normal_form()
    return Routes(nf1.scale, nf2.scale, abs(nf2.scale))


def transitivity_error(a: gr.ModeOperator, b: gr.ModeOperator, c: gr.ModeOperator) -> Routes:
    """ratio(a, b) ratio(b, c) against det_F(a c^-1) for three representatives.

    ratio divides Fredholm determinants, so ratio(a, c) would be a quotient
    of the same determinants as the left side; det_F(a c^-1) reaches the
    same value through the multiplicativity of det_F instead.  a c^-1 is
    formed by a solve, as the chart transition determinants are, never as
    det a / det c.  The scale is max(1, |det_F(a c^-1)|), as in
    multiplicativity_error: the ratio can be large, and forming a c^-1
    rounds in proportion to it.
    """
    pa, pb, pc = (det_line.det_point(x) for x in (a, b, c))
    chained = det_line.ratio(pa, pb) * det_line.ratio(pb, pc)
    a, c = a._pair(c)  # on one window, as their product would be
    direct = np.linalg.det(np.linalg.solve(c.entries.mT, a.entries.mT).mT)
    return Routes(chained, direct, np.maximum(1.0, abs(direct)))


def multiplicativity_error(a, b, a2, b2) -> Routes:
    """det(A'B')/det(AB) against det(A'/A) det(B'/B), relative to max(1, |rhs|)."""
    joint, (pa, pb) = det_line.tensor_split(a, b)
    lhs = det_line.ratio(det_line.det_point(a2 @ b2), joint)
    rhs = det_line.ratio(det_line.det_point(a2), pa) * det_line.ratio(det_line.det_point(b2), pb)
    return Routes(lhs, rhs, np.maximum(1.0, abs(rhs)))


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

    alphas = np.array([0.1, 0.25, 0.4, 0.5])
    branch = Routes(cp1.zeta_det_from_alpha(alphas), cp1.zeta_det_from_alpha(1.0 - alphas))
    yield "branch invariance alpha vs 1-alpha", "spectral-offset-branch", branch, 0.0, 1e-10

    for z, expected in ((0j, 1.0), (1 + 0j, 0.25), (1j, 0.25)):
        yield (
            f"quillen curvature at z={z}",
            "curvature-equals-kahler-form",
            cp1.quillen_curvature_fd(z),
            expected,
            TOL_CURVATURE,
        )
    against_closed, against_pdp = curvature_errors(chart_grid(-0.5, 0.5, 5))
    yield (
        "curvature vs closed Kahler density, 5x5 grid, max relative error",
        "curvature-equals-kahler-form",
        against_closed,
        0.0,
        TOL_CURVATURE,
    )
    yield (
        "curvature vs Tr(P dP dP), 5x5 grid, max relative error",
        "curvature-from-boundary-projection",
        against_pdp,
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
        Routes(calderon.entries, cp1.projection_from_chart(1.0).entries),
        0.0,
        1e-12,
    )
    kernel_vec = np.array([1.0, 1.0], dtype=complex)
    yield (
        "Cauchy data of constants is fixed by the calderon projection",
        "calderon-projection-interval",
        Routes(np.linalg.norm(calderon.apply(kernel_vec) - kernel_vec), 0.0),
        0.0,
        1e-12,
    )

    for z, expected in ((1 + 0j, 1.0), (0j, 1 / math.sqrt(2)), (-1 + 0j, 0.0)):
        yield (
            f"S(P) matrix element at z={z}",
            "boundary-fredholm-family",
            Routes(cp1.s_of_p(z), expected),
            0.0,
            1e-12,
        )

    yield (
        "adjoint projection kills the adjoint Cauchy data (1, -z)",
        "adjoint-boundary-condition",
        Routes(
            [
                np.linalg.norm(cp1.adjoint_projection(z).apply(np.array([1.0, -z])))
                for z in _random_chart_points(rng, 20)
            ],
            0.0,
        ),
        0.0,
        1e-10,
    )

    for z, expected in ((0j, 0.25), (1 + 0j, 0.5)):
        yield (
            f"spectral offset at z={z}",
            "spectral-offset-quadratic",
            cp1.alpha_of(z),
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


def _random_flips(rng: np.random.Generator, count: int) -> list[tuple[float, int]]:
    """count (offset, flip) pairs for eta_flip_error: a in (0.05, 0.95), a
    flip mode in -6..6."""
    return [(float(rng.uniform(0.05, 0.95)), int(rng.integers(-6, 7))) for _ in range(count)]


def _conjugated_projection(
    rng: np.random.Generator, window: gr.ModeWindow, cut: int
) -> gr.ModeOperator:
    u = random_window_unitary(rng, window.dim)
    base = gr.spectral_projection(window, cut)
    return gr.ModeOperator(window, u @ base.entries @ u.conj().T, gr.TAIL_APS)


def _suite_grassmannian(rng: np.random.Generator) -> Iterator[Row]:
    w = gr.ModeWindow(6)
    pi0 = gr.spectral_projection(w, 0)

    eta_routes, index_routes = spectral_cut_errors(w)
    yield (
        "relative eta of spectral cuts equals -2k, k in -5..5",
        "relative-eta-without-regularization",
        eta_routes,
        0.0,
        1e-12,
    )
    yield (
        "relative eta / 2 equals the relative index with one global sign",
        "relative-eta-index-formula",
        index_routes,
        0.0,
        1e-12,
    )

    p, q, r = (_conjugated_projection(rng, w, cut) for cut in (1, 0, -2))
    eta_pq, eta_qp, eta_qr, eta_pr = (
        gr.relative_eta(x, y) for x, y in ((p, q), (q, p), (q, r), (p, r))
    )
    yield (
        "relative eta antisymmetry and additivity on conjugated projections",
        "relative-eta-without-regularization",
        Routes([eta_pq, eta_pq + eta_qr], [-eta_qp, eta_pr]),
        0.0,
        1e-10,
    )
    half = eta_pq / 2.0
    yield (
        "relative eta / 2 is an integer for exact projections",
        "relative-eta-index-formula",
        Routes(half, np.round(half)),
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
    anti = Routes(eta[: offsets.size], -eta[offsets.size :])
    yield "eta antisymmetry under a -> 1-a", "eta-as-zeta-quasi-trace", anti, 0.0, 1e-10

    yield (
        "finite-rank eta perturbation, 20 random (a, flip) pairs",
        "relative-eta-of-spectral-flips",
        eta_flip_error(_random_flips(rng, 20), w),
        0.0,
        TOL_ETA,
    )

    rank_one = np.eye(w.dim, dtype=complex)
    rank_one[w.index(0), w.index(0)] = 2.0
    det_spot = Routes(
        [
            gr.fredholm_det(gr.ModeOperator.identity(w)),
            gr.fredholm_det(gr.ModeOperator(w, rank_one, gr.TAIL_IDENTITY)),
        ],
        [1.0, 2.0],
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
        Routes(gr.fredholm_det(ka @ kb), gr.fredholm_det(ka) * gr.fredholm_det(kb)),
        0.0,
        1e-8,
    )
    yield (
        "fredholm determinant stability under window doubling",
        "fredholm-determinant-window",
        Routes(gr.fredholm_det(ka.embed_to(gr.ModeWindow(2 * w.n_max))), gr.fredholm_det(ka)),
        0.0,
        1e-12,
    )

    fam = gr.rotated_family(w, (-1, 0))
    constant = gr.ProjectionFamily(w, lambda t1, t2: gr.spectral_projection(w, 0).entries)
    yield (
        "connection form of the constant family vanishes",
        "determinant-line-connection-form",
        Routes(gr.connection_form(constant, pi0, (0.4, 0.7), "t1"), 0.0),
        0.0,
        1e-10,
    )
    yield (
        "connection form vanishes along the axis t1 = 0",
        "determinant-line-connection-form",
        Routes(gr.connection_form(fam, pi0, (0.0, 0.3), "t2"), 0.0),
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

    yield (
        "Stokes: boundary integral of omega equals the curvature integral",
        "curvature-of-boundary-connection",
        Routes(*_stokes_pair(fam, pi0)),
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
    yield (
        "connection form is invariant under constant conjugation",
        "determinant-line-connection-form",
        Routes(
            gr.connection_form(fam, pi0, t, "t1"), gr.connection_form(conj_fam, conj_base, t, "t1")
        ),
        0.0,
        1e-8,
    )


# Nodes of the Stokes rectangle [0, _STOKES_T1_MAX] x [0, 1]: Gauss-Legendre
# in t1, periodic trapezoid in t2.  Both routes read the rotated family's
# declared derivatives, and the pair agrees to 1.8e-15 at 8 x 4, 8.9e-16 at
# 16 x 8 and 2.7e-15 at 24 x 16 (6 x 4 gave 3.7e-11, 4 x 4 3.5e-6): 8 x 4
# is converged to rounding, and more nodes only cost time.  With stencil
# derivatives the pair stopped at their floor, 1.7e-11, from 8 x 4 on.
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
        equivalence_error(*_det_class_stacks(rng, w, 20, 2), 2.0 + 0j),
        0.0,
        TOL_DET_LINE,
    )

    p = det_line.det_point(random_det_class(rng, w))
    self_ratio = Routes(det_line.ratio(p, p), 1.0)
    yield "ratio of a point against itself is one", "determinant-ratio", self_ratio, 0.0, 1e-12
    mu = 1.7 - 0.4j
    scaled = Routes(det_line.ratio(p.scaled(mu), p), mu)
    yield "scalar action passes through the ratio", "determinant-ratio", scaled, 0.0, 1e-12

    yield (
        "ratio transitivity on random triples",
        "determinant-ratio",
        transitivity_error(*_det_class_stacks(rng, w, 20, 3)),
        0.0,
        TOL_DET_LINE,
    )

    yield (
        "multiplicativity det(A'B')/det(AB) = det(A'/A) det(B'/B), 100 instances",
        "determinant-multiplicativity",
        multiplicativity_error(*_det_class_stacks(rng, w, 100, 4, 0.3)),
        0.0,
        TOL_DET_LINE,
    )

    yield (
        "normal forms of equivalent pairs coincide",
        "determinant-line-points",
        normal_form_error(*_det_class_stacks(rng, w, 10, 2)),
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
    if _number(seed, numbers.Integral, "seed must be an integer >= 0") < 0:
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
                observed = worst(observed) if isinstance(observed, Routes) else observed
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
    """A rectangular chart grid with exclusion disks around degenerate points.

    The bounds are real numbers and n an integer, exclusion a tuple or list
    of (centre, radius) pairs of numbers, each by ``errors._number``;
    anything else raises DomainError."""

    re_min: float = -0.5
    re_max: float = 0.5
    im_min: float = -0.5
    im_max: float = 0.5
    n: int = 5
    exclusion: tuple[tuple[complex, float], ...] = ((-1.0 + 0j, cp1.EXCLUSION_RADIUS),)

    def __post_init__(self) -> None:
        what = "grid bounds need real min < max and a finite width"
        for lo, hi in ((self.re_min, self.re_max), (self.im_min, self.im_max)):
            lo, hi = _number(lo, numbers.Real, what), _number(hi, numbers.Real, what)
            if not (lo < hi and math.isfinite(hi - lo)):  # NaN and inf fail too
                raise DomainError(f"{what}, got {lo!r}:{hi!r}")
        if _number(self.n, numbers.Integral, "grid needs an integer n >= 2 points per axis") < 2:
            raise DomainError(f"grid needs an integer n >= 2 points per axis, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))  # a numpy integer stays JSON-writable
        if not isinstance(self.exclusion, (tuple, list)):
            raise DomainError(f"exclusion must be a tuple of disks, got {self.exclusion!r}")
        what = "an exclusion disk is a finite centre and a radius > 0"
        for disk in self.exclusion:
            c, r = disk if isinstance(disk, tuple) and len(disk) == 2 else (disk, None)
            c, r = _number(c, numbers.Complex, what), _number(r, numbers.Real, what)
            if not (cmath.isfinite(c) and 0 < r < math.inf):  # NaN fails too
                raise DomainError(f"{what}, got {disk!r}")

    def excluded(self, z: complex | np.ndarray) -> bool | np.ndarray:
        """Whether z lies in an exclusion disk, elementwise for an array; z
        passes the chart-point guard (``interval_cp1._chart_array``)."""
        points = cp1._chart_array(z)
        inside = np.zeros(points.shape, dtype=bool)
        for center, radius in self.exclusion:
            # hypot: bit for bit Python's abs, so the skipped rows never move
            offset = points - center
            inside |= np.hypot(offset.real, offset.imag) < radius
        return inside.reshape(np.shape(z)) if np.ndim(z) else bool(inside[0])


CSV_HEADER = ["re", "im", "k_fd", "k_closed", "k_pdpdp", "rel_err_fd", "rel_err_pdpdp", "status"]


def _grid_rows(g: GridSpec) -> tuple[dict[str, list], dict]:
    """The grid as a table of columns keyed by CSV_HEADER, its rows x-major,
    and its summary.  Every column is computed in one array call over the
    points outside the exclusion disks that the stencil resolves; the k and
    rel_err columns hold None in the skipped rows."""
    re_axis = np.linspace(g.re_min, g.re_max, g.n)
    im_axis = np.linspace(g.im_min, g.im_max, g.n)
    re, im = np.repeat(re_axis, g.n), np.tile(im_axis, g.n)
    z = re + 1j * im
    ok = ~g.excluded(z)
    z_ok = z[ok]
    k_closed = cp1.kahler_density_closed(z_ok)
    # relative errors need a normal density: it underflows beyond |z| = 8e76
    underflow = k_closed < np.finfo(float).tiny
    if underflow.any():
        raise DomainError(
            f"the curvature density underflows at z = {z_ok[underflow][0]}, "
            "so its relative errors are undefined"
        )
    # the mask is quillen_curvature_fd's guard, so its unguarded core runs on the rest
    resolved = ~cp1.curvature_fd_unresolved(z_ok)
    ok[ok] = resolved
    z_ok, k_closed = z_ok[resolved], k_closed[resolved]
    k_fd = cp1._curvature_fd(z_ok)
    k_pdpdp = cp1.kahler_form_2x2(z_ok)
    rel_fd = np.abs(k_fd - k_closed) / k_closed
    rel_pdp = np.abs(k_pdpdp - k_closed) / k_closed
    computed = np.full((5, ok.size), None, dtype=object)  # cast to Python floats, as both writers need
    computed[:, ok] = (k_fd, k_closed, k_pdpdp, rel_fd, rel_pdp)
    columns = dict(zip(CSV_HEADER, [re.tolist(), im.tolist(), *computed.tolist()]))
    columns["status"] = ["ok" if point_ok else "skip" for point_ok in ok.tolist()]
    summary = {
        "n_rows": ok.size,
        "n_skipped": int(np.count_nonzero(~ok)),
        "max_rel_err_fd": float(rel_fd.max(initial=0.0)),
        "max_rel_err_pdpdp": float(rel_pdp.max(initial=0.0)),
        "fd_step": DEFAULT_FD_STEP,
    }
    return columns, summary


def _json_rows(columns: dict[str, list]) -> str:
    """The rows of a grid table as json.dumps(document, indent=2) lays out a
    list of row dicts at the document's top level, without its brackets.

    indent selects the pure-Python encoder; here each column is encoded once
    by the C encoder instead, which writes the same null, float repr and
    strings, and its items (no float, null or status string holds ", ") are
    laid out in the rows."""
    row = "    {\n" + ",\n".join(f"      {json.dumps(k)}: %s" for k in columns) + "\n    }"
    values = [json.dumps(column)[1:-1].split(", ") for column in columns.values()]
    return ",\n".join(row % items for items in zip(*values))


def _require_writable(path: str) -> None:
    """Raise the OSError, naming path, that writing path would end in when
    its directory is missing or not writable or path is a directory, so
    that a command refuses such a path before it computes anything."""
    directory = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(directory):
        code = errno.ENOENT
    elif not os.access(directory, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _atomic_write(path: str, payload: str) -> None:
    """Write payload to path through a temporary file in its directory and a
    rename.  A failure removes the temporary file, and an OSError is raised
    again naming path, not the temporary file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".detline-", suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def curvature_grid(
    g: GridSpec,
    out_format: str = "csv",
    path: str | None = None,
) -> dict:
    """Sample the curvature comparison over a grid and emit csv or json.

    Returns the summary dictionary (row counts and maximal relative errors);
    when ``path`` is given the file is written atomically, and a path that
    cannot be written (see _require_writable) raises OSError before any row
    is computed.  A grid reaching beyond |z| = 8e76, where the closed
    density underflows and relative errors are undefined, raises DomainError
    and writes nothing.  Both writers read _grid_rows' column table: CSV
    rows through csv.writer, JSON rows through _json_rows, in the bytes of
    json.dumps(document, indent=2) over one dict per row.  A grid that is no
    GridSpec, or a format other than "csv" or "json", raises DomainError.
    """
    _instance(g, GridSpec, "the grid must be a GridSpec")
    if out_format not in ("csv", "json"):
        raise DomainError(f"out_format must be 'csv' or 'json', got {out_format!r}")
    if path is not None:
        _require_writable(path)
    columns, summary = _grid_rows(g)
    if path is not None:
        if out_format == "csv":
            buffer = io.StringIO()
            writer = csv.writer(buffer, lineterminator="\n")  # None is written as ""
            writer.writerow(CSV_HEADER)
            writer.writerows(zip(*columns.values()))
            _atomic_write(path, buffer.getvalue())
        else:
            document = {
                "schema": SCHEMA,
                "kind": "curvature-grid",
                "grid": {k: getattr(g, k) for k in ("re_min", "re_max", "im_min", "im_max", "n")},
                "rows": [],
                "summary": summary,
            }
            # the first "rows": [] is the key's: the values before it are numbers and fixed strings
            text = json.dumps(document, indent=2).replace(
                '"rows": []', '"rows": [\n' + _json_rows(columns) + "\n  ]", 1
            )
            _atomic_write(path, text + "\n")
    return summary
