"""Interval-model tests: boundary projections, spectra, determinants,
curvature, and the metric patching identity.

The adjoint projection is checked against the integration-by-parts oracle:
the boundary pairing of D = i d/dx on Cauchy data is
form((p0, p1), (q0, q1)) = i (p1 conj(q1) - p0 conj(q0)), and the adjoint
condition is the annihilator of the domain data under this pairing.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detline import interval_cp1 as cp1
from detline.errors import DegenerateSpectrum, DomainError
from detline.specfun import fd_apply
from detline.tolerances import ROUNDING_TOL


def boundary_pairing(p, q):
    """Green's-formula boundary term for D = i d/dx on [0, 2 pi]."""
    return 1j * (p[1] * np.conj(q[1]) - p[0] * np.conj(q[0]))


def adjoint_oracle(z):
    """Rank-one projection annihilating the Green-orthogonal data.

    Domain data of D_{P_z} span (-conj(z), 1); the pairing above vanishes
    against exactly the span of (1, -z), so the adjoint projection is the
    orthogonal projection with kernel span{(1, -z)}.
    """
    kernel = np.array([1.0, -z], dtype=complex)
    kernel = kernel / np.linalg.norm(kernel)
    return np.eye(2, dtype=complex) - np.outer(kernel, kernel.conj())


chart_points = st.complex_numbers(
    max_magnitude=3.0, allow_nan=False, allow_infinity=False
).filter(lambda z: abs(z + 1) > 0.25)


def test_projection_matrix_values():
    p0 = cp1.projection_from_chart(0.0)
    assert np.allclose(p0.entries, [[1, 0], [0, 0]], atol=1e-14)
    p1 = cp1.projection_from_chart(1.0)
    assert np.allclose(p1.entries, 0.5 * np.ones((2, 2)), atol=1e-14)
    pinf = cp1.projection_at_infinity()
    assert np.allclose(pinf.entries, [[0, 0], [0, 1]], atol=1e-14)


@given(z=chart_points)
@settings(max_examples=50, deadline=None)
def test_projection_invariants(z):
    p = cp1.projection_from_chart(z).entries
    assert np.allclose(p @ p, p, atol=1e-12)
    assert np.allclose(p, p.conj().T, atol=1e-12)
    assert abs(np.trace(p) - 1.0) < 1e-12
    # the defining boundary condition: P_z annihilates data (-conj z, 1)
    assert np.linalg.norm(p @ np.array([-np.conj(z), 1.0])) < 1e-12


def test_boundary_pairing_vanishes_between_domain_and_adjoint_data():
    for z in (0.3 + 0.2j, 1.0 + 0j, -2.0 + 1.5j):
        domain_data = np.array([-np.conj(z), 1.0])
        adjoint_data = np.array([1.0, -z])
        assert abs(boundary_pairing(domain_data, adjoint_data)) < 1e-14


def test_boundary_pairing_on_exponentials():
    # for psi = e^{i n x} (n integer) and phi = e^{i mu x} (mu real) the
    # closed-form inner products reproduce the boundary term exactly
    n, mu = 2, 0.37
    inner = (cmath.exp(2j * math.pi * (n - mu)) - 1.0) / (1j * (n - mu))
    lhs = (mu - n) * inner
    rhs = boundary_pairing((1.0, cmath.exp(2j * math.pi * n)), (1.0, cmath.exp(2j * math.pi * mu)))
    assert abs(lhs - rhs) < 1e-13


def test_adjoint_projection_against_green_oracle():
    for z in (0j, 1.0 + 0j, 1j, 0.7 - 1.3j, -2.1 + 0.4j):
        got = cp1.adjoint_projection(z).entries
        assert np.allclose(got, adjoint_oracle(z), atol=1e-12)


def test_adjoint_projection_frozen_values():
    # oracle values: diag(0,1) at z=0 and the averaging projection at z=1
    assert np.allclose(cp1.adjoint_projection(0.0).entries, [[0, 0], [0, 1]], atol=1e-14)
    assert np.allclose(cp1.adjoint_projection(1.0).entries, 0.5 * np.ones((2, 2)), atol=1e-14)
    assert np.allclose(
        cp1.adjoint_projection(1j).entries, [[0.5, -0.5j], [0.5j, 0.5]], atol=1e-14
    )


@given(z=chart_points)
@settings(max_examples=50, deadline=None)
def test_adjoint_kills_adjoint_cauchy_data(z):
    p_star = cp1.adjoint_projection(z)
    assert np.linalg.norm(p_star.apply([1.0, -z])) < 1e-10


def test_adjoint_is_complement_of_reflected_chart():
    # P*_z = I - (projection onto span{(1, -z)})
    for z in (0.4 + 0.9j, -1.7 - 0.2j):
        reflected = cp1.projection_from_chart(-z).entries
        assert np.allclose(cp1.adjoint_projection(z).entries, np.eye(2) - reflected, atol=1e-12)


def test_adjoint_is_the_chart_point_reflected_through_the_unit_circle():
    # span{(conj z, 1)} = span{(1, 1/conj z)}: the chart point 1/conj z, and
    # the point at infinity for z = 0
    for z in (0.5 + 0.25j, -1.7 - 0.2j, 1e-3j, 3.0, -1.0):
        reflected = cp1.projection_from_chart(1.0 / np.conj(z)).entries
        assert np.allclose(cp1.adjoint_projection(z).entries, reflected, rtol=0, atol=1e-15)
    infinity = cp1.projection_at_infinity().entries
    assert np.array_equal(cp1.adjoint_projection(0.0).entries, infinity)


def quadratic_roots(z):
    n = 1.0 + abs(z) ** 2
    return np.roots([n, 2.0 * (z + np.conj(z)).real, n])


def test_alpha_against_quadratic_solver():
    for z in (0j, 1.0 + 0j, 0.5 - 0.8j, 2.0 + 1j):
        roots = quadratic_roots(z)
        assert np.allclose(np.abs(roots), 1.0, atol=1e-12)
        angles = {round(abs(np.angle(r)) / (2 * math.pi), 10) for r in roots}
        assert round(cp1.alpha_of(z), 10) in angles


def test_alpha_spot_values_and_degeneracy():
    assert cp1.alpha_of(0.0) == pytest.approx(0.25, abs=1e-12)
    assert cp1.alpha_of(1.0) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(DegenerateSpectrum):
        cp1.alpha_of(-1.0)


def offset_cosine(z) -> float:
    """cos(2 pi alpha) at the chart point z, -2 Re z / (1 + |z|^2), by mpmath."""
    with mpmath.workdps(30):
        z = mpmath.mpc(z)
        return float(-2 * z.real / (1 + abs(z) ** 2))


def test_offset_lies_on_its_branch_and_solves_its_cosine():
    # alpha_of returns the offset alone; this is the identity between it and
    # its chart point, on scalars and on arrays
    rng = np.random.default_rng(2024)
    radius, angle = 10.0 * np.sqrt(rng.uniform(size=1000)), rng.uniform(0, 2 * np.pi, 1000)
    z = np.concatenate([radius * np.exp(1j * angle), [0, 1, -1 + 1e-6, 1e150, -1e150j]])
    expected = np.array([offset_cosine(w) for w in z.tolist()])
    alphas = cp1.alpha_of(z)
    scalars = [cp1.alpha_of(w) for w in z.tolist()]
    assert isinstance(alphas, np.ndarray) and alphas.shape == z.shape
    assert all(type(a) is float for a in scalars)
    assert alphas.tolist() == scalars
    for alpha in (alphas, cp1.alpha_of(z.reshape(-1, 1)).ravel()):
        assert np.all((alpha > 0) & (alpha <= 0.5))
        assert np.max(np.abs(np.cos(2 * np.pi * alpha) - expected)) <= ROUNDING_TOL


def test_zeta_det_closed_spot_values():
    assert cp1.zeta_det_closed(0.0) == pytest.approx(2.0, abs=1e-14)
    assert cp1.zeta_det_closed(1.0) == pytest.approx(4.0, abs=1e-14)
    assert cp1.zeta_det_closed(1j) == pytest.approx(2.0, abs=1e-14)
    assert cp1.zeta_det_closed(-1.0) == 0.0


def test_zeta_det_spectral_matches_closed_at_spots():
    for z, expected in ((0j, 2.0), (1.0 + 0j, 4.0), (1j, 2.0)):
        assert cp1.zeta_det_spectral(z) == pytest.approx(expected, rel=1e-8)


def test_zeta_det_from_alpha_synthetic_third():
    assert cp1.zeta_det_from_alpha(1.0 / 3.0) == pytest.approx(3.0, rel=1e-8)


@pytest.mark.parametrize("alpha", [0.3 + 0.1j, 0.3 + 0j, "0.3", True, np.array(["0.3"])])
def test_zeta_det_from_alpha_refuses_an_offset_that_is_not_real(alpha):
    # a complex raised a bare TypeError, and "0.3" gave the value at 0.3
    with pytest.raises(DomainError, match="alpha must be a real number"):
        cp1.zeta_det_from_alpha(alpha)


@given(z=chart_points)
@settings(max_examples=30, deadline=None)
def test_spectral_equals_closed_everywhere(z):
    closed = cp1.zeta_det_closed(z)
    assert cp1.zeta_det_spectral(z) == pytest.approx(closed, rel=1e-8)


def test_branch_invariance():
    for a in (0.1, 0.33, 0.5):
        assert cp1.zeta_det_from_alpha(a) == pytest.approx(
            cp1.zeta_det_from_alpha(1.0 - a), abs=1e-10
        )


def test_curvature_spot_values():
    assert cp1.quillen_curvature_fd(0j) == pytest.approx(1.0, abs=1e-4)
    assert cp1.quillen_curvature_fd(1.0 + 0j) == pytest.approx(0.25, abs=1e-4)
    assert cp1.quillen_curvature_fd(1j) == pytest.approx(0.25, abs=1e-4)


def test_curvature_guard_near_degenerate_point():
    with pytest.raises(DegenerateSpectrum):
        cp1.quillen_curvature_fd(-1.0 + 1e-4j)


def test_calderon_projection():
    p_d = cp1.calderon_projection_interval()
    assert np.array_equal(p_d.entries, np.full((2, 2), 0.5))
    assert np.allclose(p_d.entries, cp1.projection_from_chart(1.0).entries, atol=1e-14)
    ones = np.array([1.0, 1.0])
    assert np.linalg.norm(p_d.apply(ones) - ones) < 1e-14
    assert np.allclose(p_d.entries @ p_d.entries, p_d.entries, atol=1e-14)


def s_of_p_oracle(z):
    """Matrix element of P_z P(D) between unit basis vectors of the ranges."""
    p_z = cp1.projection_from_chart(z).entries
    p_d = cp1.calderon_projection_interval().entries
    u_k = np.array([1.0, 1.0]) / math.sqrt(2.0)
    u_w = np.array([1.0, z]) / math.sqrt(1.0 + abs(z) ** 2)
    return u_w.conj() @ (p_z @ (p_d @ u_k))


def test_s_of_p_against_matrix_oracle():
    for z in (1.0 + 0j, 0j, -1.0 + 0j, 0.8 + 0.3j, 2j):
        assert cp1.s_of_p(z) == pytest.approx(s_of_p_oracle(z), abs=1e-12)


def test_s_of_p_spot_values():
    assert cp1.s_of_p(1.0) == pytest.approx(1.0, abs=1e-14)
    assert cp1.s_of_p(0.0) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-14)
    assert cp1.s_of_p(-1.0) == pytest.approx(0.0, abs=1e-14)


def test_metric_patching_spot_pairs():
    lhs, rhs = cp1.metric_patching_check(0.0, 1.0)
    assert lhs == pytest.approx(0.5, rel=1e-8)
    assert rhs == pytest.approx(0.5, rel=1e-12)
    lhs, rhs = cp1.metric_patching_check(0.5j, 0.5j)
    assert lhs == pytest.approx(1.0, rel=1e-12)
    assert rhs == pytest.approx(1.0, rel=1e-12)
    lhs, rhs = cp1.metric_patching_check(1j, 1.0)
    assert lhs == pytest.approx(0.5, rel=1e-8)
    assert rhs == pytest.approx(0.5, rel=1e-12)


def test_det_equals_four_s_squared_closed_form():
    for z in (0.3 + 0.1j, -0.5 + 2j, 1.5 - 1.5j):
        assert cp1.zeta_det_closed(z) == pytest.approx(
            cp1.DET_TO_S_CONSTANT * abs(cp1.s_of_p(z)) ** 2, rel=1e-12
        )


def test_kahler_form_spot_values_and_fd_agreement():
    assert cp1.kahler_form_2x2(0j) == pytest.approx(1.0, abs=1e-12)
    assert cp1.kahler_form_2x2(1.0 + 0j) == pytest.approx(0.25, abs=1e-12)
    for z in (0.2 - 0.4j, 1.1 + 0.9j, -0.6 + 0.1j):
        closed = 1.0 / (1.0 + abs(z) ** 2) ** 2
        assert cp1.kahler_form_2x2(z) == pytest.approx(closed, rel=1e-12)
        assert cp1.quillen_curvature_fd(z) == pytest.approx(
            cp1.kahler_form_2x2(z), abs=1e-4
        )


@pytest.mark.parametrize(
    "z, w",
    [
        (np.array([0.1, 0.2]), np.array([0.3, 0.4, 0.5])),
        (np.zeros((2, 3)), np.zeros((2,))),
        ([0.1, 0.2], [0.3, 0.4, 0.5]),
    ],
)
def test_metric_patching_refuses_points_that_do_not_broadcast(z, w):
    # the ratio of the two spectral determinants raised a bare ValueError
    with pytest.raises(DomainError, match="must broadcast together"):
        cp1.metric_patching_check(z, w)
    lhs, rhs = cp1.metric_patching_check(np.array([0.1, 0.2]), 0.5j)
    assert np.shape(lhs) == np.shape(rhs) == (2,)


@pytest.mark.parametrize(
    "z",
    [
        complex(math.nan, 0.0),
        complex(0.0, math.nan),
        complex(math.inf, 0.0),
        complex(0.0, -math.inf),
        "1+2j",
        "a",
        None,
        True,
        np.array([0.5, None]),
    ],
)
def test_non_finite_chart_points_raise_domain_error(z):
    # NaN used to clamp to the c = -1 branch: zeta_det_spectral(nan) returned
    # 4.0; an entry that is no number is refused too, where "1+2j" was read as
    # 1+2j, None raised a bare TypeError and "a" a bare ValueError
    for fn in (
        cp1.projection_from_chart,
        cp1.adjoint_projection,
        cp1.alpha_of,
        cp1.zeta_det_closed,
        cp1.zeta_det_spectral,
        cp1.quillen_curvature_fd,
        cp1.s_of_p,
        cp1.kahler_form_2x2,
        lambda w: cp1.metric_patching_check(w, 0.5),
        lambda w: cp1.metric_patching_check(0.5, w),
    ):
        with pytest.raises(DomainError):
            fn(z)
    with pytest.raises(DomainError):
        cp1.zeta_det_spectral(math.nan)


@pytest.mark.parametrize("fn", [cp1.projection_from_chart, cp1.adjoint_projection])
@pytest.mark.parametrize("z", [np.array([0.1, 0.2]), np.array([0.5j]), [0.1, 0.2]])
def test_non_scalar_chart_points_raise_domain_error(fn, z):
    # a non-scalar must not reach complex(), which raises a bare TypeError
    with pytest.raises(DomainError):
        fn(z)


@pytest.mark.parametrize(
    "fn",
    [
        cp1.projection_from_chart,
        cp1.adjoint_projection,
        cp1.alpha_of,
        cp1.zeta_det_closed,
        cp1.kahler_density_closed,
        cp1.zeta_det_spectral,
        cp1.curvature_fd_truncation_bound,
        cp1.curvature_fd_unresolved,
        cp1.quillen_curvature_fd,
        cp1.s_of_p,
        cp1.kahler_form_2x2,
        pytest.param(lambda z: cp1.metric_patching_check(z, 0.5), id="metric_patching_check-z"),
        pytest.param(lambda z: cp1.metric_patching_check(0.5, z), id="metric_patching_check-w"),
    ],
    ids=lambda fn: fn.__name__,
)
@pytest.mark.parametrize("z", [[[0.1, 0.2], [0.3]], [0.1, [0.2, 0.3]]], ids=["rows", "entry"])
def test_ragged_chart_points_raise_domain_error(fn, z):
    # numpy's bare ValueError ("inhomogeneous shape") escaped the chart guard
    with pytest.raises(DomainError):
        fn(z)


# ---------------------------------------------------------------------------
# array inputs, and accuracy up to the zero mode at z = -1

def fubini_study(z):
    return 1.0 / (1.0 + abs(z) ** 2) ** 2


@pytest.mark.parametrize("z", [-1 + 1e-6, -1 + 1e-6j, -1 - 1e-6 + 1e-7j, -1 + 1e-9])
def test_spectral_determinant_next_to_the_zero_mode(z):
    # alpha = atan2(|1+z|, |1-z|) / pi keeps every digit; acos(-2 Re z / (1+|z|^2))
    # was off by 1.3e-4 relative at z = -1 + 1e-6
    closed = cp1.zeta_det_closed(z)
    assert abs(cp1.zeta_det_spectral(z) - closed) <= 1e-12 * closed


def test_array_and_scalar_results_agree():
    rng = np.random.default_rng(11)
    z = rng.uniform(-2, 2, 60) + 1j * rng.uniform(-2, 2, 60)
    z = z[np.abs(z + 1) > cp1.EXCLUSION_RADIUS].reshape(-1, 1)
    for fn in (
        cp1.zeta_det_spectral,
        cp1.zeta_det_closed,
        cp1.kahler_form_2x2,
        cp1.s_of_p,
        cp1.alpha_of,
        cp1.quillen_curvature_fd,
    ):
        values = fn(z)
        assert isinstance(values, np.ndarray) and values.shape == z.shape
        scalars = np.array([fn(complex(w)) for w in z.ravel()]).reshape(z.shape)
        assert all(isinstance(v, (float, complex)) for v in scalars.ravel().tolist())
        assert np.all(np.abs(values - scalars) <= 1e-15 * np.abs(scalars))
    alphas = np.array([0.05, 0.25, 0.5, 0.93])
    assert np.array_equal(
        cp1.zeta_det_from_alpha(alphas), [cp1.zeta_det_from_alpha(a) for a in alphas]
    )
    assert type(cp1.zeta_det_spectral(0.3 + 0.1j)) is float
    assert type(cp1.quillen_curvature_fd(0.3 + 0.1j)) is float


@pytest.mark.parametrize(
    "bad, error",
    [
        (complex(math.nan, 0.0), DomainError),
        (complex(0.0, math.inf), DomainError),
        (-1.0 + 0j, DegenerateSpectrum),
    ],
)
def test_array_with_one_bad_entry_raises(bad, error):
    z = np.array([0.3, 0.1j, bad, 1.5 - 0.5j])
    for fn in (cp1.zeta_det_spectral, cp1.quillen_curvature_fd, cp1.alpha_of):
        with pytest.raises(error):
            fn(z)
    if error is DomainError:
        for fn in (cp1.kahler_form_2x2, cp1.zeta_det_closed, cp1.s_of_p):
            with pytest.raises(DomainError):
                fn(z)


def test_curvature_array_with_one_point_too_near_the_zero_mode_raises():
    with pytest.raises(DegenerateSpectrum):
        cp1.quillen_curvature_fd(np.array([0.0, -0.99 + 0j, 0.5j]))
    with pytest.raises(DomainError):
        cp1.zeta_det_from_alpha(np.array([0.2, math.nan]))


# Walks from |1+z| = 0.2 down to 0.004 (4 steps of the default stencil), in
# directions where Re (1+z)^-8 is extremal (multiples of pi/8, including the
# real axis on both sides) and in between.
WALK_RADII = np.geomspace(0.2, 0.004, 40)
WALK_ANGLES = np.array([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 7.0]) * np.pi / 8


def walk_points():
    return [-1.0 + r * cmath.exp(1j * phi) for phi in WALK_ANGLES for r in WALK_RADII]


def unguarded_curvature(z):
    """The stencil Laplacian of log det, without the zero-mode guard."""
    field = lambda x, y: np.log(cp1.zeta_det_spectral(x + 1j * y))  # noqa: E731
    return -0.25 * fd_apply(field, (z.real, z.imag), "laplacian-2d")


def test_curvature_is_within_tolerance_or_raises_towards_the_zero_mode():
    # between the old 4-step guard and the exclusion disk the stencil used to
    # return silently wrong values: 7.5e-4 relative at z = -0.98, 0.20 at
    # -0.99 and 52 at -0.995, against a tolerance of 1e-4
    for z in walk_points() + [-0.98 + 0j, -0.99 + 0j, -0.995 + 0j]:
        try:
            k = cp1.quillen_curvature_fd(z)
        except DegenerateSpectrum:
            continue
        assert abs(k - fubini_study(z)) <= cp1.TOL_CURVATURE * fubini_study(z), z


def test_truncation_bound_is_calibrated_on_walks_to_the_zero_mode():
    z = np.array(walk_points())
    closed = fubini_study(z)
    observed = np.abs(unguarded_curvature(z) - closed) / closed
    bound = cp1.curvature_fd_truncation_bound(z)
    # an upper bound everywhere, up to the next term of the series (12 (h/|1+z|)^4
    # of it) and the rounding floor of the stencil
    next_term = 12.0 * (cp1.DEFAULT_FD_STEP / np.abs(1.0 + z)) ** 4
    assert np.all(observed <= bound * (1.0 + next_term) + 1e-7)
    # and attained where (1+z)^m is real, so the guard refuses no more than it must
    extremal = np.isclose(np.cos(8 * np.angle(1.0 + z)) ** 2, 1.0)
    resolved = extremal & (bound > 1e-6) & (bound < 1e-1)
    assert resolved.sum() >= 20
    assert np.all(np.abs(observed[resolved] / bound[resolved] - 1.0) < 0.05)
    # every point the guard lets through is within tolerance
    accepted = ~cp1.curvature_fd_unresolved(z)
    assert np.all(observed[accepted] <= cp1.TOL_CURVATURE)


def test_no_point_outside_the_exclusion_disk_is_refused():
    # the truncation bound decreases with |1+z| at the default step; its maximum
    # on the disk boundary is 1.2e-11, seven digits below the tolerance
    boundary = -1.0 + cp1.EXCLUSION_RADIUS * np.exp(2j * np.pi * np.linspace(0, 1, 2001))
    assert np.max(cp1.curvature_fd_truncation_bound(boundary)) < 1.2e-11
    rng = np.random.default_rng(3)
    z = rng.uniform(-3, 3, 20000) + 1j * rng.uniform(-3, 3, 20000)
    z = np.concatenate([boundary, z[np.abs(z + 1) >= cp1.EXCLUSION_RADIUS]])
    assert not cp1.curvature_fd_unresolved(z).any()
    cp1.quillen_curvature_fd(z[:3000])


RAY = 0.6 + 0.8j


def test_curvature_far_from_the_origin_is_within_tolerance_or_raises():
    # along z = r (0.6 + 0.8i) the stencil's rounding, about eps / h^2, outgrows
    # the density 1/(1+r^2)^2: the value was off by 2.5e-4 relative at r = 30,
    # 9% at 100, negative at 1000 and exactly 0 from 1e13 on, without raising
    z = 3.0 * RAY
    assert abs(cp1.quillen_curvature_fd(z) - fubini_study(z)) <= 1e-4 * fubini_study(z)
    for r in (30.0, 100.0, 1000.0, 1e13):
        with pytest.raises(DegenerateSpectrum, match="rounding bound"):
            cp1.quillen_curvature_fd(r * RAY)
        assert cp1.curvature_fd_unresolved(r * RAY)


def test_rounding_bound_is_calibrated_far_from_the_zero_mode():
    rng = np.random.default_rng(8)
    radii = np.repeat([0.1, 0.5, 1.5, 3.0, 10.0, 30.0, 100.0, 1e3, 1e4], 200)
    z = radii * np.exp(2j * np.pi * rng.uniform(size=radii.size))
    z = z[np.abs(1.0 + z) > cp1.EXCLUSION_RADIUS]
    closed = fubini_study(z)
    observed = np.abs(unguarded_curvature(z) - closed) / closed
    rounding = cp1._curvature_fd_rounding_bound(z)
    # an upper bound everywhere, with the truncation bound next to the zero mode
    assert np.all(observed <= rounding + cp1.curvature_fd_truncation_bound(z))
    # and within a factor 5 of the error where the rounding dominates
    assert np.max((observed / rounding)[np.abs(z) >= 30.0]) > 0.2
    # every point the guard lets through is within tolerance
    accepted = ~cp1.curvature_fd_unresolved(z)
    assert accepted.sum() >= 800
    assert np.all(observed[accepted] <= cp1.TOL_CURVATURE)


def test_rounding_bound_refuses_no_point_of_the_curvature_square():
    # the grids of the suites and of the curvature-grid benchmark lie in
    # [-1.5, 1.5]^2, where the rounding bound stays over two digits below the
    # tolerance, so the guard refuses there exactly what it refused before it
    x = np.linspace(-1.5, 1.5, 301)
    z = (x[:, None] + 1j * x[None, :]).ravel()
    z = z[np.abs(1.0 + z) >= 4.0 * cp1.DEFAULT_FD_STEP]
    assert np.max(cp1._curvature_fd_rounding_bound(z)) < 1e-6


@pytest.mark.parametrize(
    "z, passes",
    [
        (0.3 + 0.1j, 1),
        (np.linspace(-0.5, 0.5, 100) + 0.25j, 1),
        (np.linspace(-0.5, 0.5, 2500).reshape(50, 50) + 0.25j, 3),
    ],
)
def test_curvature_evaluates_its_stencil_in_one_kernel_pass(monkeypatch, z, passes):
    # fd_apply hands log det_zeta the nine Laplacian samples at once, so one
    # call makes one pass through the spectral route per block of 1024
    # points (nine when the samples were taken point by point), counted
    # where the module looks the functions up
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("fd_apply", "zeta_det_spectral", "alpha_of", "hurwitz_zeta_ds0"):
        monkeypatch.setattr(cp1, name, counted(name, getattr(cp1, name)))
    k = cp1.quillen_curvature_fd(z)
    names = ("fd_apply", "zeta_det_spectral", "alpha_of", "hurwitz_zeta_ds0")
    assert calls == dict.fromkeys(names, passes)
    assert np.shape(k) == np.shape(z)
    assert np.all(np.abs(k - cp1.kahler_density_closed(z)) <= 1e-8 * cp1.kahler_density_closed(z))


# ---------------------------------------------------------------------------
# large chart points: 1 + |z|^2 overflows above |z| = 1.3e154

LARGE_POINTS = [1e155, 1e200, -1e160 + 1e160j, 1e300j, 1.2e308 + 1.2e308j]


def unscaled_forms(z):
    """The chart forms as written on (1, z) itself, for 1-D arrays z."""
    modulus = np.hypot(z.real, z.imag)
    one = np.hypot((1 + z).real, (1 + z).imag)
    n = 1.0 + modulus**2
    zc = z.conj()

    def stack(a, b, c, d):
        out = np.empty((z.size, 2, 2), dtype=complex)
        out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1] = a, b, c, d
        return out

    m, n3 = stack(1.0, zc, z, modulus**2), n[:, None, None]
    dz = -zc[:, None, None] / n3**2 * m + stack(0, 0, 1, zc) / n3
    dzb = -z[:, None, None] / n3**2 * m + stack(0, 1, 0, z) / n3
    trace = np.trace(m / n3 @ (dz @ dzb - dzb @ dz), axis1=1, axis2=2)
    return {
        cp1.zeta_det_closed: 2.0 * one**2 / n,
        cp1.kahler_density_closed: 1.0 / n**2,
        cp1.s_of_p: (1.0 + zc) / np.sqrt(2.0 * n),
        cp1.kahler_form_2x2: cp1.KAHLER_SIGN * trace.real,
        cp1.curvature_fd_truncation_bound: 5.0 * cp1.DEFAULT_FD_STEP**6 * n**2 / one**8,
    }


def test_scaled_chart_forms_keep_every_bit_below_the_overflow():
    # (1, z) is scaled by a power of two, which moves no bit of any form
    # while the unscaled intermediates stay normal
    rng = np.random.default_rng(5)
    z = 10.0 ** rng.uniform(-150, 30, 4000) * np.exp(2j * np.pi * rng.uniform(size=4000))
    z = np.concatenate([z, [0, 1, 1j, -0.5 - 0.0j, complex(-0.0, 2.0), 2.0**60, 1.5 + 1.5j]])
    z = z[np.hypot((1 + z).real, (1 + z).imag) > 0.1]
    for fn, expected in unscaled_forms(z).items():
        value = fn(z)
        assert value.dtype == expected.dtype
        assert value.tobytes() == expected.tobytes(), fn.__name__


@pytest.mark.parametrize("z", LARGE_POINTS)
def test_chart_forms_at_large_chart_points(z):
    # zeta_det_closed(1e155) and kahler_form_2x2(1e155) returned NaN (its
    # NaN imaginary part passed the realness guard), s_of_p(1e200) returned 0,
    # and alpha_of, projection_from_chart and the spectral route warned of
    # overflow; the limits are 2, |S| = 1/sqrt 2, density 0 and alpha 1/4
    with np.errstate(all="raise", under="ignore"):
        assert cp1.zeta_det_closed(z) == pytest.approx(2.0, abs=1e-15)
        assert cp1.zeta_det_spectral(z) == pytest.approx(2.0, rel=1e-12)
        assert cp1.alpha_of(z) == pytest.approx(0.25, abs=1e-15)
        s = cp1.s_of_p(z)
        assert s == pytest.approx(z.conjugate() / abs(z) / math.sqrt(2.0), abs=1e-15)
        assert abs(cp1.kahler_form_2x2(z)) <= 1e-300
        assert cp1.kahler_density_closed(z) == 0.0
        # the stencil returned exactly 0 here (x + h rounds to x): its rounding
        # bound, relative to a density that underflows, refuses the point
        with pytest.raises(DegenerateSpectrum, match="rounding bound inf"):
            cp1.quillen_curvature_fd(z)
        assert cp1.curvature_fd_truncation_bound(z) == 0.0
        expected = np.diag([0.0, 1.0])
        assert np.abs(cp1.projection_from_chart(z).entries - expected).max() <= 1e-15
        assert np.abs(cp1.adjoint_projection(z).entries - (np.eye(2) - expected)).max() <= 1e-15


@pytest.mark.parametrize("z", [1.3e308 + 1.3e308j, complex(-1.7e308, -1.7e308)])
def test_chart_point_whose_modulus_overflows_is_refused(z):
    # every part is finite, but |z| is not a double
    for fn in (
        cp1.projection_from_chart,
        cp1.alpha_of,
        cp1.zeta_det_closed,
        cp1.zeta_det_spectral,
        cp1.s_of_p,
        cp1.kahler_form_2x2,
        cp1.kahler_density_closed,
    ):
        with pytest.raises(DomainError, match="double range"):
            fn(z)


@pytest.mark.parametrize(
    "entries, match",
    [
        # NaN passed each "> ROUNDING_TOL" test
        ([[math.nan, 0], [0, 1]], "finite 2x2"),
        ([[1, 0], [0, math.nan]], "finite 2x2"),
        ([[1, 1], [0, 0]], "not Hermitian"),
        ([[0.5, 0], [0, 0.5]], "not idempotent"),
        ([[1, 0], [0, 1]], "not rank one"),
        ([[0, 0], [0, 0]], "not rank one"),
    ],
    ids=["nan-first", "nan-last", "not-hermitian", "not-idempotent", "identity", "zero"],
)
def test_boundary_projection_refuses_entries_of_no_rank_one_projection(entries, match):
    with pytest.raises(DomainError, match=match):
        cp1.BoundaryProjection2(np.array(entries, dtype=complex))


def test_planted_fault_in_the_chart_matrices_fails_the_realness_guard(monkeypatch):
    # Tr(P [dP, dP]) is real for every chart point; with P planted as i P it
    # is imaginary, and kahler_form_2x2 refuses instead of taking its real part
    chart_matrices = cp1._chart_matrices

    def planted(z):
        p, dz, dzb = chart_matrices(z)
        return 1j * p, dz, dzb

    monkeypatch.setattr(cp1, "_chart_matrices", planted)
    with pytest.raises(DomainError, match="should be real here"):
        cp1.kahler_form_2x2(0.5 + 0.25j)
