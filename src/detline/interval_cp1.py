"""The interval model: D = i d/dx on [0, 2pi] with boundary conditions
parametrized by the projective line.

The chart point z encodes the rank-one orthogonal projection P_z onto the
line spanned by (1, z) in C^2, imposing psi(0) = -conj(z) psi(2pi) on the
Cauchy data (psi(0), psi(2pi)).  Everything of spectral interest is exactly
solvable: the Laplacian boundary problem has spectrum {(n + alpha)^2 : n in Z}
with cos(2 pi alpha) = -2 Re z / (1 + |z|^2), the zeta determinant is
2 |1+z|^2 / (1 + |z|^2) = 4 sin^2(pi alpha), and the curvature of the
zeta metric is the Fubini-Study form 1/(1+|z|^2)^2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, DomainError
from .specfun import FdStencil, fd_apply, hurwitz_zeta_ds0

__all__ = [
    "BoundaryProjection2",
    "SpectralDatum",
    "projection_from_chart",
    "projection_at_infinity",
    "adjoint_projection",
    "alpha_of",
    "zeta_det_closed",
    "zeta_det_spectral",
    "zeta_det_from_alpha",
    "quillen_curvature_fd",
    "calderon_projection_interval",
    "s_of_p",
    "metric_patching_check",
    "kahler_form_2x2",
    "KAHLER_SIGN",
    "DET_TO_S_CONSTANT",
    "EXCLUSION_RADIUS",
]

HERMITIAN_TOL = 1e-12
DEGENERACY_TOL = 1e-10

# Orientation constant for Tr(P dP dP), fixed once by matching the
# finite-difference curvature of log det_zeta at z = 0 and then frozen.
KAHLER_SIGN = -1.0

# det_zeta(Delta_{P_z}) = c * |S(P_z)|^2 with c measured once at z = 0.
DET_TO_S_CONSTANT = 4.0

# Radius around z = -1 (zero mode) excluded from spectral and curvature grids.
EXCLUSION_RADIUS = 0.2


@dataclass(frozen=True)
class BoundaryProjection2:
    """A rank-one Hermitian idempotent on C^2 (a boundary condition).

    chart is the defining chart point, or None for the point at infinity.
    """

    entries: np.ndarray
    chart: complex | None

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=complex)
        if m.shape != (2, 2):
            raise DomainError(f"expected a 2x2 matrix, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
            raise DomainError("projection is not Hermitian")
        if np.max(np.abs(m @ m - m)) > HERMITIAN_TOL:
            raise DomainError("projection is not idempotent")
        if abs(np.trace(m) - 1.0) > HERMITIAN_TOL:
            raise DomainError("projection is not rank one")
        object.__setattr__(self, "entries", m)

    def apply(self, v) -> np.ndarray:
        return self.entries @ np.asarray(v, dtype=complex)


@dataclass(frozen=True)
class SpectralDatum:
    """Spectral offset alpha in (0, 1/2] together with its chart point."""

    alpha: float
    z: complex

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 0.5:
            raise DomainError(f"alpha must lie in (0, 1/2], got {self.alpha}")
        c = -2.0 * self.z.real / (1.0 + abs(self.z) ** 2)
        if abs(math.cos(2.0 * math.pi * self.alpha) - c) > HERMITIAN_TOL:
            raise DomainError("alpha is inconsistent with the chart point")


def _chart_point(z: complex) -> complex:
    """z as a complex number; NaN or infinite coordinates raise DomainError.

    Every public function taking a chart point goes through this guard,
    directly or via alpha_of.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"chart point must be finite, got {z}")
    return z


def _rank_one(v: np.ndarray, chart: complex | None) -> BoundaryProjection2:
    v = np.asarray(v, dtype=complex)
    return BoundaryProjection2(np.outer(v, v.conj()) / np.vdot(v, v), chart)


def projection_from_chart(z: complex) -> BoundaryProjection2:
    """Orthogonal projection onto span{(1, z)}: the boundary condition P_z."""
    z = _chart_point(z)
    return _rank_one(np.array([1.0, z]), z)


def projection_at_infinity() -> BoundaryProjection2:
    """The remaining point of the projective line: projection diag(0, 1)."""
    return BoundaryProjection2(np.diag([0.0, 1.0]).astype(complex), None)


def adjoint_projection(z: complex) -> BoundaryProjection2:
    """Boundary projection of the adjoint problem of D_{P_z}.

    Integration by parts for D = i d/dx leaves the boundary pairing
    i (psi(2pi) conj(phi(2pi)) - psi(0) conj(phi(0))); with psi constrained by
    P_z this vanishes for all admissible psi exactly when
    phi(2pi) = -z phi(0).  The adjoint condition therefore kills Cauchy data
    proportional to (1, -z), so the adjoint projection is the orthogonal
    projection onto span{(conj(z), 1)}, equal to I minus the projection onto
    span{(1, -z)}.
    """
    z = _chart_point(z)
    return _rank_one(np.array([z.conjugate(), 1.0]), z)


def alpha_of(z: complex) -> SpectralDatum:
    """Spectral offset of the boundary problem at chart point z.

    Both roots u of u^2 (1+|z|^2) + 2 u (z + conj z) + (1+|z|^2) = 0 lie on
    the unit circle; alpha is their phase on the canonical branch (0, 1/2].
    A root at u = 1 means a zero eigenvalue and raises DegenerateSpectrum.
    """
    z = _chart_point(z)
    c = -2.0 * z.real / (1.0 + abs(z) ** 2)
    c = min(1.0, max(-1.0, c))
    # |u - 1|^2 = 2 (1 - c) for the unit-circle root u = c + i sqrt(1 - c^2).
    if math.sqrt(2.0 * max(0.0, 1.0 - c)) < DEGENERACY_TOL:
        raise DegenerateSpectrum(f"boundary condition at z = {z} has a zero mode")
    alpha = math.acos(c) / (2.0 * math.pi)
    return SpectralDatum(alpha=alpha, z=z)


def zeta_det_closed(z: complex) -> float:
    """Closed-form zeta determinant 2 |1+z|^2 / (1 + |z|^2) = 4 sin^2(pi alpha)."""
    z = _chart_point(z)
    return 2.0 * abs(1.0 + z) ** 2 / (1.0 + abs(z) ** 2)


def zeta_det_from_alpha(alpha: float) -> float:
    """Zeta determinant from the spectral offset alone.

    The spectrum {(n + alpha)^2 : n in Z} splits into the two Hurwitz
    families (n + alpha)^2 and (n + 1 - alpha)^2 over n >= 0, so
    zeta_Delta(s) = zeta_H(2s, alpha) + zeta_H(2s, 1 - alpha) and
    det = exp(-zeta_Delta'(0)).
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    ds0 = hurwitz_zeta_ds0(alpha) + hurwitz_zeta_ds0(1.0 - alpha)
    return math.exp(-2.0 * ds0)


def zeta_det_spectral(z: complex) -> float:
    """Zeta determinant through the Hurwitz zeta pipeline."""
    return zeta_det_from_alpha(alpha_of(z).alpha)


def quillen_curvature_fd(z: complex, st: FdStencil | None = None) -> float:
    """Curvature coefficient of the zeta metric at z, by finite differences.

    Returns the coefficient of dz wedge dzbar in dbar d log det_zeta, which
    equals -(1/4) Laplacian_(x,y) log det_zeta at z = x + i y and reproduces
    the Fubini-Study density 1/(1+|z|^2)^2.
    """
    z = _chart_point(z)
    if st is None:
        st = FdStencil(kind="laplacian-2d")
    if st.kind != "laplacian-2d":
        raise DomainError("quillen_curvature_fd needs a laplacian-2d stencil")
    if abs(z + 1.0) < 4.0 * st.step:
        raise DegenerateSpectrum(
            f"stencil around z = {z} comes within 4 steps of the zero mode at -1"
        )

    def log_det(x: float, y: float) -> float:
        return math.log(zeta_det_spectral(complex(x, y)))

    return -0.25 * fd_apply(log_det, (z.real, z.imag), st)


def calderon_projection_interval() -> BoundaryProjection2:
    """Projection onto the Cauchy data of Ker D.

    Solutions of i psi' = 0 are the constants, with data (c, c); the
    projection onto span{(1, 1)} coincides with the chart point z = 1.
    """
    return projection_from_chart(1.0)


def s_of_p(z: complex) -> complex:
    """The 1x1 matrix of S(P_z) = P_z composed with the Calderon projection.

    Computed in the unit bases (1,1)/sqrt(2) of the Cauchy data space and
    (1,z)/sqrt(1+|z|^2) of ran P_z; the value is
    (1 + conj z) / sqrt(2 (1 + |z|^2)).
    """
    z = _chart_point(z)
    return (1.0 + z.conjugate()) / math.sqrt(2.0 * (1.0 + abs(z) ** 2))


def metric_patching_check(z: complex, w: complex) -> tuple[float, float]:
    """Ratio form of the metric-patching identity between two chart points.

    Returns (lhs, rhs) with lhs the ratio of spectral zeta determinants and
    rhs the ratio of |S(P)|^2 values; the two agree.  The pointwise model
    identity det = DET_TO_S_CONSTANT * |S(P)|^2 is not checked here: the
    caller measures it (``report.model_identity_error``), so a failing model
    identity is reported rather than raised.
    """
    lhs = zeta_det_spectral(z) / zeta_det_spectral(w)
    rhs = abs(s_of_p(z)) ** 2 / abs(s_of_p(w)) ** 2
    return lhs, rhs


def _chart_matrices(z: complex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P_z and its closed-form Wirtinger derivatives (d/dz, d/dzbar)."""
    n = 1.0 + abs(z) ** 2
    m = np.array([[1.0, z.conjugate()], [z, abs(z) ** 2]], dtype=complex)
    dz = -z.conjugate() / n**2 * m + np.array([[0, 0], [1, z.conjugate()]], dtype=complex) / n
    dzb = -z / n**2 * m + np.array([[0, 1], [0, z]], dtype=complex) / n
    return m / n, dz, dzb


def kahler_form_2x2(z: complex) -> float:
    """Coefficient of dz wedge dzbar in Tr(P dP dP) for the chart family.

    Uses the closed-form entrywise derivatives of the projection; the global
    orientation constant KAHLER_SIGN is frozen against quillen_curvature_fd
    at z = 0.  The value is 1/(1+|z|^2)^2.
    """
    z = _chart_point(z)
    p, dz, dzb = _chart_matrices(z)
    commutator_trace = np.trace(p @ (dz @ dzb - dzb @ dz))
    if abs(commutator_trace.imag) > 1e-12:
        raise DomainError(f"Tr(P [dP, dP]) should be real here, got {commutator_trace}")
    return float(KAHLER_SIGN * commutator_trace.real)
