"""The interval model: D = i d/dx on [0, 2pi] with boundary conditions
parametrized by the projective line.

The chart point z encodes the rank-one orthogonal projection P_z onto the
line spanned by (1, z) in C^2, imposing psi(0) = -conj(z) psi(2pi) on the
Cauchy data (psi(0), psi(2pi)).  Everything of spectral interest is exactly
solvable: the Laplacian boundary problem has spectrum {(n + alpha)^2 : n in Z}
with cos(2 pi alpha) = -2 Re z / (1 + |z|^2), the zeta determinant is
2 |1+z|^2 / (1 + |z|^2) = 4 sin^2(pi alpha), and the curvature of the
zeta metric is the Fubini-Study form 1/(1+|z|^2)^2.

The spectral route (``alpha_of``, ``zeta_det_from_alpha``,
``zeta_det_spectral``, ``quillen_curvature_fd``), the closed forms
(``zeta_det_closed``, ``s_of_p``, ``kahler_form_2x2``) and
``metric_patching_check`` take a chart point or a numpy array of them and
return a float (complex for ``s_of_p``) for a scalar and an array of the
input's shape otherwise.  A scalar runs through the same array kernel as a
one-point array.  One NaN, infinite, degenerate or unresolved entry makes
the whole call raise, and so does one whose modulus leaves the double range.
The closed forms are evaluated on (1, z) scaled by a power of two, so they
stay finite for every other chart point (``zeta_det_closed(1e155)`` gave NaN
where the value tends to 2) and keep every bit where 1 + |z|^2 is a normal
double.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, DomainError, _array, _number
from .specfun import FdStencil, _open_unit_points, fd_apply, hurwitz_zeta_ds0
from .tolerances import DEFAULT_FD_STEP, DEGENERACY_TOL, ROUNDING_TOL, TOL_CURVATURE

__all__ = [
    "BoundaryProjection2",
    "SpectralDatum",
    "projection_from_chart",
    "projection_at_infinity",
    "adjoint_projection",
    "alpha_of",
    "zeta_det_closed",
    "kahler_density_closed",
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
    "TOL_CURVATURE",
    "curvature_fd_unresolved",
    "curvature_fd_truncation_bound",
]

# Orientation constant for Tr(P dP dP), fixed once by matching the
# finite-difference curvature of log det_zeta at z = 0 and then frozen.
KAHLER_SIGN = -1.0

# det_zeta(Delta_{P_z}) = c * |S(P_z)|^2 with c measured once at z = 0.
DET_TO_S_CONSTANT = 4.0

# Radius around z = -1 (zero mode) excluded from spectral and curvature grids.
EXCLUSION_RADIUS = 0.2

# The Laplacian stencil of quillen_curvature_fd, at step DEFAULT_FD_STEP.
_LAPLACIAN = FdStencil(kind="laplacian-2d")

# Chart points per fd_apply call of quillen_curvature_fd: the stencil's nine
# samples of a block (18k Hurwitz shifts) go through the spectral route in
# one pass, and arrays of that size stay in cache.  In one pass, 10^4 points
# took 15-20% longer than in blocks of 1024 or than one pass per sample.
_CURVATURE_BLOCK = 1024


@dataclass(frozen=True)
class BoundaryProjection2:
    """A rank-one Hermitian idempotent on C^2 (a boundary condition).

    chart is the defining chart point, or None for the point at infinity.
    The entries, and the vector ``apply`` takes, are finite numbers (bools
    read as 0 and 1) by ``errors._array``, and chart is None or a finite
    number by ``errors._number``; anything else raises DomainError.
    """

    entries: np.ndarray
    chart: complex | None

    def __post_init__(self) -> None:
        m = np.asarray(_array(self.entries, "biufc", "entries must be numbers"), dtype=complex)
        if m.shape != (2, 2) or not np.isfinite(m).all():
            raise DomainError(f"expected a finite 2x2 matrix, got {self.entries!r}")
        what = "chart must be None or a finite number"
        if self.chart is not None and not np.isfinite(_number(self.chart, numbers.Complex, what)):
            raise DomainError(f"{what}, got {self.chart!r}")
        if not np.max(np.abs(m - m.conj().T)) <= ROUNDING_TOL:
            raise DomainError("projection is not Hermitian")
        if not np.max(np.abs(m @ m - m)) <= ROUNDING_TOL:
            raise DomainError("projection is not idempotent")
        if not abs(np.trace(m) - 1.0) <= ROUNDING_TOL:
            raise DomainError("projection is not rank one")
        object.__setattr__(self, "entries", m)

    def apply(self, v) -> np.ndarray:
        v = np.asarray(_array(v, "biufc", "v must be a vector of numbers"), dtype=complex)
        if v.shape != (2,) or not np.isfinite(v).all():
            raise DomainError(f"v must be a finite vector of C^2, got {v!r}")
        return self.entries @ v


@dataclass(frozen=True)
class SpectralDatum:
    """Spectral offset alpha in (0, 1/2] together with its chart point,
    elementwise when both are arrays; alpha must be real and z a number,
    each by ``errors._array``, or DomainError is raised."""

    alpha: float | np.ndarray
    z: complex | np.ndarray

    def __post_init__(self) -> None:
        alpha = _array(self.alpha, "iuf", "need a real alpha and a numeric z: alpha")
        z = _array(self.z, "iufc", "need a real alpha and a numeric z: z")
        outside = ~((alpha > 0.0) & (alpha <= 0.5))
        if outside.any():
            raise DomainError(f"alpha must lie in (0, 1/2], got {alpha[outside].flat[0]}")
        with np.errstate(invalid="ignore", over="ignore"):  # inf, like NaN, fails below
            u1, w, n = _scaled(z)
            c = -2.0 * w.real * u1 / n
        if not (np.abs(np.cos(2.0 * np.pi * alpha) - c) <= ROUNDING_TOL).all():  # NaN fails
            raise DomainError("alpha is inconsistent with the chart point")


def _chart_point(z: complex) -> complex:
    """z as a complex number: a scalar that passes _chart_array; anything else
    raises DomainError.

    Every public function taking a chart point goes through this guard or
    _chart_array, directly or via alpha_of.
    """
    points = _chart_array(z)
    if np.ndim(z) != 0:
        raise DomainError(f"chart point must be a scalar, got shape {np.shape(z)}")
    return complex(points[0])


def _chart_array(z) -> np.ndarray:
    """Chart points, numbers or an array of them by ``errors._array``, as a
    complex array of at least one dimension; an entry with a NaN or infinite
    part, or with a modulus beyond the double range, raises DomainError."""
    points = np.array(_array(z, "iufc", "chart points must be numbers"), dtype=complex, ndmin=1)
    with np.errstate(over="ignore"):
        bad = ~np.isfinite(_modulus(points))
    if bad.any():
        raise DomainError(
            f"chart point must be finite, with |z| in the double range, got {points[bad][0]}"
        )
    return points


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| by hypot, bit for bit Python's abs of a complex (numpy's complex
    absolute differs from it in the last bit for about a third of inputs)."""
    return np.hypot(z.real, z.imag)


def _times(w: np.ndarray, r: np.ndarray) -> np.ndarray:
    """w * r for real r, part by part: numpy multiplies by r + 0j, which can
    flip the sign of a zero part."""
    out = np.empty(np.broadcast_shapes(w.shape, np.shape(r)), dtype=complex)
    out.real, out.imag = w.real * r, w.imag * r
    return out


def _scaled(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vector (1, z) / m as its parts 1/m and z/m, and its squared length
    n = 1/m^2 + |z/m|^2, which lies in [1/4, 2]; m = 2^k is the least power
    of two above |z|, or 1 for |z| < 1.

    The chart forms are quotients of homogeneous expressions in (1, z), so
    they are evaluated on the scaled vector: 1 + |z|^2 = m^2 n overflows
    above |z| = 1.3e154, where the unscaled forms returned NaN or 0.  A
    power of two scales every intermediate exactly, so wherever no
    intermediate leaves the normal double range the forms keep every bit of
    their unscaled expressions.
    """
    _, k = np.frexp(_modulus(z))
    inv_m = np.ldexp(1.0, -np.maximum(k, 0))
    w = _times(z, inv_m)
    return inv_m, w, inv_m**2 + _modulus(w) ** 2


def _like(value: np.ndarray, z):
    """value as a Python scalar when z is a scalar, else unchanged."""
    return value.reshape(-1)[0].item() if np.ndim(z) == 0 else value


def _rank_one(v: np.ndarray, chart: complex | None) -> BoundaryProjection2:
    """The orthogonal projection onto span{v}, from v divided by the least
    power of two above its largest modulus, so no square overflows and no
    bit moves (see ``_scaled``)."""
    v = np.asarray(v, dtype=complex)
    v = _times(v, math.ldexp(1.0, -math.frexp(np.max(_modulus(v)))[1]))
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


def alpha_of(z: complex | np.ndarray) -> SpectralDatum:
    """Spectral offset of the boundary problem at chart point z.

    Both roots u of u^2 (1+|z|^2) + 2 u (z + conj z) + (1+|z|^2) = 0 lie on
    the unit circle; alpha is their phase on the canonical branch (0, 1/2],
    alpha = atan2(|1+z|, |1-z|) / pi.  (The equivalent acos(-2 Re z /
    (1+|z|^2)) / (2 pi) loses half the digits near z = -1: the spectral
    determinant at z = -1 + 1e-6 was off by 1.3e-4.)  A root at u = 1, where
    |u - 1| = 2 sin(pi alpha) falls below DEGENERACY_TOL, means a zero
    eigenvalue and raises DegenerateSpectrum.  For an array z both fields of
    the datum are arrays.
    """
    points = _chart_array(z)
    near, far = _modulus(1.0 + points), _modulus(1.0 - points)
    # 2 near < DEGENERACY_TOL hypot(near, far), halved so neither side overflows
    zero_mode = near < DEGENERACY_TOL * np.hypot(0.5 * near, 0.5 * far)
    if zero_mode.any():
        raise DegenerateSpectrum(
            f"boundary condition at z = {points[zero_mode][0]} has a zero mode"
        )
    alpha = np.arctan2(near, far) / np.pi
    return SpectralDatum(alpha=_like(alpha, z), z=_like(points, z))


def zeta_det_closed(z: complex | np.ndarray) -> float | np.ndarray:
    """Closed-form zeta determinant 2 |1+z|^2 / (1 + |z|^2) = 4 sin^2(pi alpha)."""
    u1, w, n = _scaled(_chart_array(z))
    return _like(2.0 * _modulus(u1 + w) ** 2 / n, z)


def kahler_density_closed(z: complex | np.ndarray) -> float | np.ndarray:
    """Closed-form Fubini-Study density 1/(1+|z|^2)^2."""
    u1, _, n = _scaled(_chart_array(z))
    return _like(u1**4 / n**2, z)


def zeta_det_from_alpha(alpha: float | np.ndarray) -> float | np.ndarray:
    """Zeta determinant from the spectral offset alone.

    The spectrum {(n + alpha)^2 : n in Z} splits into the two Hurwitz
    families (n + alpha)^2 and (n + 1 - alpha)^2 over n >= 0, so
    zeta_Delta(s) = zeta_H(2s, alpha) + zeta_H(2s, 1 - alpha) and
    det = exp(-zeta_Delta'(0)).  Both families go through one
    hurwitz_zeta_ds0 call.
    """
    offsets = _open_unit_points(alpha, "alpha")
    ds0 = hurwitz_zeta_ds0(np.stack([offsets, 1.0 - offsets]))
    return _like(np.exp(-2.0 * (ds0[0] + ds0[1])), alpha)


def zeta_det_spectral(z: complex | np.ndarray) -> float | np.ndarray:
    """Zeta determinant through the Hurwitz zeta pipeline."""
    return zeta_det_from_alpha(alpha_of(z).alpha)


# Truncation of the stencil Laplacian near the zero mode.  log det_zeta is
# log 2 + 2 log|1+z| - log(1+|z|^2), and its singular part u = 2 Re log(1+z)
# is harmonic, so in the error sum_m c_m h^(m-2) (d_x^m + d_y^m) u of the
# order-4 central stencil (c_m = sum_j w_j j^m / m! over its 1-D
# second-derivative weights) the terms with i^m = -1 cancel; the first
# surviving one has m = 8 and is -4 c_8 7! h^6 Re (1+z)^-8.  The curvature is
# -1/4 of the Laplacian, so relative to the Fubini-Study density its error is
# at most K h^6 (1+|z|^2)^2 / |1+z|^8 with K = |c_8| 7! = 5 (c_8 = -40/8!).
def curvature_fd_truncation_bound(z: complex | np.ndarray) -> float | np.ndarray:
    """Leading truncation error of quillen_curvature_fd at z, relative to the
    Fubini-Study density, from the zero mode at z = -1.

    It is the first term of the stencil's error series that survives on the
    harmonic part 2 log|1+z| of log det_zeta; it is attained where (1+z)^8 is
    real and the next term adds less than 12 (h / |1+z|)^4 of it.  The smooth
    part's truncation, O(h^4) on the unit disk, is not included.
    """
    u1, w, n = _scaled(_chart_array(z))
    scale = 5.0 * DEFAULT_FD_STEP**6 * n**2 * u1**4
    with np.errstate(divide="ignore"):
        return _like(scale / _modulus(u1 + w) ** 8, z)


# Rounding of the stencil Laplacian.  Each sample of log det_zeta is summed
# from O(1) terms, so it carries a rounding error of a few eps max(1, |log
# det_zeta|), which the stencil divides by h^2, while the density falls like
# |z|^-4.  On 2000 points at each of 14 radii from 0.1 to 1e4 (|1+z| > 0.2)
# the curvature's error less its truncation bound was at most
# 25 eps max(1, |log det_zeta|) / h^2; the bound takes 40.
_ROUNDING_CONSTANT = 40.0


def _curvature_fd_rounding_bound(points: np.ndarray) -> np.ndarray:
    """Rounding error of quillen_curvature_fd at chart points, relative to
    the Fubini-Study density: 40 eps max(1, |log det_zeta|) / (h^2 density),
    from the closed forms; inf where the density underflows."""
    with np.errstate(divide="ignore", over="ignore"):  # log 0 at z = -1, a density near 0
        size = np.maximum(1.0, np.abs(np.log(zeta_det_closed(points))))
        scale = _ROUNDING_CONSTANT * np.finfo(float).eps / DEFAULT_FD_STEP**2
        return scale * size / kahler_density_closed(points)


def curvature_fd_unresolved(z: complex | np.ndarray) -> bool | np.ndarray:
    """Where quillen_curvature_fd raises DegenerateSpectrum: its stencil comes
    within 4 steps of the zero mode, its truncation bound exceeds
    TOL_CURVATURE, or its rounding bound does.  For the fixed step
    DEFAULT_FD_STEP = 1e-3 the first two hold only inside |1+z| < 0.028, well
    inside the exclusion disk of radius EXCLUSION_RADIUS (the truncation
    bound decreases with |1+z| and is at most 1.2e-11 on the disk's
    boundary), and the rounding bound exceeds the tolerance only beyond
    |z| = 10.2, where the density has fallen below 1e-4.
    """
    points = _chart_array(z)
    unresolved = (
        (_modulus(1.0 + points) < 4.0 * DEFAULT_FD_STEP)
        | (curvature_fd_truncation_bound(points) > TOL_CURVATURE)
        | (_curvature_fd_rounding_bound(points) > TOL_CURVATURE)
    )
    return _like(unresolved, z)


def quillen_curvature_fd(z: complex | np.ndarray) -> float | np.ndarray:
    """Curvature coefficient of the zeta metric at z, by finite differences.

    Returns the coefficient of dz wedge dzbar in dbar d log det_zeta, which
    equals -(1/4) Laplacian_(x,y) log det_zeta at z = x + i y and reproduces
    the Fubini-Study density 1/(1+|z|^2)^2, by the Laplacian stencil at
    step DEFAULT_FD_STEP.  ``fd_apply`` hands log det_zeta the stencil's nine
    samples at once, so each block of up to 1024 points makes one pass
    through ``zeta_det_spectral`` and ``hurwitz_zeta_ds0``, where sampling
    point by point made nine.  Where ``curvature_fd_unresolved`` holds the
    stencil cannot resolve the curvature within TOL_CURVATURE, next to the
    zero mode at -1 or far from the origin, where the stencil's rounding
    outgrows the density (relative errors of 2.5e-4 at |z| = 30, 9% at 100,
    and exactly 0 from 1e13, where x + h rounds to x), and DegenerateSpectrum
    is raised instead of a wrong value.
    """
    points = _chart_array(z)
    unresolved = curvature_fd_unresolved(points)
    if unresolved.any():
        at = points[unresolved][:1]
        raise DegenerateSpectrum(
            f"stencil around z = {at[0]} cannot resolve the curvature to {TOL_CURVATURE:g}: "
            f"within 4 steps of the zero mode at -1, or truncation bound "
            f"{curvature_fd_truncation_bound(at)[0]:.2e}, or rounding bound "
            f"{_curvature_fd_rounding_bound(at)[0]:.2e}"
        )
    return _like(_curvature_fd(points), z)


def _curvature_fd(points: np.ndarray) -> np.ndarray:
    """quillen_curvature_fd at chart points the caller has checked against
    curvature_fd_unresolved, without that check, as an array of their shape."""

    def log_det(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.log(zeta_det_spectral(x + 1j * y))

    flat = points.reshape(-1)
    k = np.empty(flat.shape)
    for start in range(0, flat.size, _CURVATURE_BLOCK):
        block = flat[start : start + _CURVATURE_BLOCK]
        k[start : start + block.size] = fd_apply(log_det, (block.real, block.imag), _LAPLACIAN)
    return -0.25 * k.reshape(points.shape)


def calderon_projection_interval() -> BoundaryProjection2:
    """Projection onto the Cauchy data of Ker D.

    Solutions of i psi' = 0 are the constants, with data (c, c); the
    projection onto span{(1, 1)} coincides with the chart point z = 1.
    """
    return projection_from_chart(1.0)


def s_of_p(z: complex | np.ndarray) -> complex | np.ndarray:
    """The 1x1 matrix of S(P_z) = P_z composed with the Calderon projection.

    Computed in the unit bases (1,1)/sqrt(2) of the Cauchy data space and
    (1,z)/sqrt(1+|z|^2) of ran P_z; the value is
    (1 + conj z) / sqrt(2 (1 + |z|^2)).
    """
    u1, w, n = _scaled(_chart_array(z))
    return _like((u1 + w.conj()) / np.sqrt(2.0 * n), z)


def metric_patching_check(z, w) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Ratio form of the metric-patching identity between two chart points.

    Returns (lhs, rhs) with lhs the ratio of spectral zeta determinants and
    rhs the ratio of |S(P)|^2 values; the two agree (elementwise for
    arrays).  The pointwise model identity det = DET_TO_S_CONSTANT * |S(P)|^2
    is not checked here: the caller measures it
    (``report.model_identity_error``), so a failing model identity is
    reported rather than raised.  Arrays z and w that do not broadcast
    together raise DomainError before either is evaluated.
    """
    try:
        np.broadcast_shapes(np.shape(z), np.shape(w))
    except ValueError as exc:
        raise DomainError(f"chart points z and w must broadcast together: {exc}") from exc
    lhs = zeta_det_spectral(z) / zeta_det_spectral(w)
    rhs = abs(s_of_p(z)) ** 2 / abs(s_of_p(w)) ** 2
    return lhs, rhs


def _chart_matrices(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P_z and its closed-form Wirtinger derivatives (d/dz, d/dzbar), as
    stacks of 2x2 matrices over a 1-D array of chart points.

    With v = (1, z) / m from ``_scaled`` and n = |v|^2, P = v v* / n,
    dP/dz = (e2 v* / n - conj(z/m) v v* / n^2) / m, and dP/dzbar likewise.
    """
    u1, w, n = _scaled(z)
    wc, uw, inv_m = w.conj(), _times(w, u1), u1[:, None, None]
    n = n[:, None, None]

    def stack(a, b, c, d):
        out = np.empty((z.size, 2, 2), dtype=complex)
        out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1] = a, b, c, d
        return out

    vv = stack(u1**2, uw.conj(), uw, _modulus(w) ** 2)
    dz = _times(-wc[:, None, None] / n**2 * vv + stack(0, 0, u1, wc) / n, inv_m)
    dzb = _times(-w[:, None, None] / n**2 * vv + stack(0, u1, 0, w) / n, inv_m)
    return vv / n, dz, dzb


def kahler_form_2x2(z: complex | np.ndarray) -> float | np.ndarray:
    """Coefficient of dz wedge dzbar in Tr(P dP dP) for the chart family.

    Uses the closed-form entrywise derivatives of the projection; the global
    orientation constant KAHLER_SIGN is frozen against quillen_curvature_fd
    at z = 0.  The value is 1/(1+|z|^2)^2.
    """
    points = _chart_array(z)
    p, dz, dzb = _chart_matrices(points.reshape(-1))
    commutator_trace = np.trace(p @ (dz @ dzb - dzb @ dz), axis1=1, axis2=2)
    imaginary = ~(np.abs(commutator_trace.imag) <= ROUNDING_TOL)  # NaN included
    if imaginary.any():
        raise DomainError(
            f"Tr(P [dP, dP]) should be real here, got {commutator_trace[imaginary][0]}"
        )
    return _like((KAHLER_SIGN * commutator_trace.real).reshape(points.shape), z)
