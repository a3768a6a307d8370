"""Hurwitz zeta continuation and stencil tests.

Expected values marked as frozen were computed with the mpmath oracle at
50-digit working precision (mpmath.zeta(s, a) and the log-Gamma identity);
a few cases keep the live oracle comparison alongside the frozen constant.
"""

import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detline.errors import DomainError, EvaluationError, NotInvertible, PoleAtOne
from detline.specfun import (
    DEFAULT_FD_STEP,
    S_IM_MAX,
    S_RE_MIN,
    FdStencil,
    HurwitzParams,
    fd_apply,
    hurwitz_zeta,
    hurwitz_zeta_ds0,
)
from detline.specfun import _hurwitz_em

mp.mp.dps = 50


def zeta_oracle(s, a):
    return complex(mp.zeta(s, a))


def test_zeta_at_zero_quarter_shift():
    # frozen: zeta(0, 1/4) = 1/2 - 1/4
    value = hurwitz_zeta(HurwitzParams(s=0.0, a=0.25))
    assert value == pytest.approx(0.25, abs=1e-12)
    assert abs(value - zeta_oracle(0, 0.25)) < 1e-12


def test_zeta_two_is_basel_value():
    # frozen: zeta(2, 1) = pi^2 / 6 = 1.6449340668482264
    value = hurwitz_zeta(HurwitzParams(s=2.0, a=1.0))
    assert value.real == pytest.approx(1.6449340668482264, abs=1e-12)
    assert abs(value.imag) < 1e-14


def test_zeta_zero_full_shift():
    # frozen: zeta(0, 1) = -1/2
    value = hurwitz_zeta(HurwitzParams(s=0.0, a=1.0))
    assert value == pytest.approx(-0.5, abs=1e-12)


def test_direct_sum_agreement_for_large_real_part():
    s, a = 3.7 + 0.9j, 0.6
    terms = [(n + a) ** (-s) for n in range(200_000)]
    direct = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    assert abs(hurwitz_zeta(HurwitzParams(s=s, a=a)) - direct) < 1e-12


def test_against_oracle_off_axis():
    for s, a in [(2.5 - 1.1j, 0.35), (0.25, 0.8), (-1.5, 0.5), (5.0 + 3.0j, 1.0)]:
        assert abs(hurwitz_zeta(HurwitzParams(s=s, a=a)) - zeta_oracle(s, a)) < 1e-10


def test_against_oracle_over_validated_region():
    # Re s >= -2, |Im s| <= 60; error relative to max(1, |zeta|), since the
    # continuation has zeros there
    worst = 0.0
    for re in (S_RE_MIN, -1.0, 0.0, 0.5, 2.0, 6.0):
        for im in (-S_IM_MAX, -9.0, -1.0, 0.0, 5.0, 33.0, S_IM_MAX):
            for a in (0.01, 0.3, 1.0):
                s = complex(re, im)
                if s == 1.0:
                    continue
                exact = zeta_oracle(s, a)
                err = abs(hurwitz_zeta(HurwitzParams(s=s, a=a)) - exact) / max(1.0, abs(exact))
                worst = max(worst, err)
    assert worst < 1e-10


@pytest.mark.parametrize(
    "s, a",
    [
        (-30.0, 0.5),  # returned about 1e35 where zeta(-30, 1/2) = 0
        (-5.0, 0.3),  # off by 1.8e-4 relative
        (0.5 + 400j, 0.5),  # off by O(1)
        (-2.0001, 0.5),
        (0.5 + 60.5j, 0.5),
        (complex(math.nan, 0.0), 0.5),
    ],
)
def test_outside_validated_region_raises(s, a):
    with pytest.raises(DomainError):
        hurwitz_zeta(HurwitzParams(s=s, a=a))


@pytest.mark.parametrize("s, a", [(200.0, 0.01), (1e6, 0.5), (1e30, 1.0)])
def test_overflow_inside_validated_region_raises(s, a):
    # a^-s exceeds the double range (a bare OverflowError), or the
    # Euler-Maclaurin terms meet inf * 0 (a silent NaN at s = 1e30); the
    # kernel runs in numpy, which would signal both by a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="leaves the double range"):
            hurwitz_zeta(HurwitzParams(s=s, a=a))


def test_kernel_over_an_array_of_shifts_equals_the_scalar_evaluations():
    # each shift's row of terms is summed on its own, so its value does not
    # depend on the other shifts: it is the public one to the last bit, at
    # s = 0 (behind the eta invariant) and elsewhere
    shifts = np.array([[0.05, 0.3, 0.5], [0.7, 0.95, 1.0]])
    for s in (0.0, 0.5 + 3j, -1.5, 2.0):
        values = _hurwitz_em(s, shifts)
        assert values.shape == shifts.shape
        for a, value in zip(shifts.ravel().tolist(), values.ravel().tolist()):
            assert hurwitz_zeta(HurwitzParams(s=s, a=a)) == value
    assert _hurwitz_em(0.0, 0.25).shape == ()


def test_large_value_below_overflow_is_returned():
    value = hurwitz_zeta(HurwitzParams(s=150.0, a=0.01))
    assert value.real == pytest.approx(1e300, rel=1e-12)


def test_pole_and_domain_errors():
    with pytest.raises(PoleAtOne):
        hurwitz_zeta(HurwitzParams(s=1.0 + 1e-14j, a=0.5))
    with pytest.raises(DomainError):
        HurwitzParams(s=0.0, a=1.5)
    with pytest.raises(DomainError):
        hurwitz_zeta_ds0(1.0)


@pytest.mark.parametrize("a", [0.3 + 0.1j, 0.3 + 0j, "0.3", True, [0.3, "0.4"], None])
def test_hurwitz_zeta_ds0_refuses_an_argument_that_is_not_real(a):
    # a complex raised a bare TypeError, and "0.3" was read as 0.3
    with pytest.raises(DomainError, match="shift a must be a real number"):
        hurwitz_zeta_ds0(a)


@pytest.mark.parametrize(
    "s, a", [(0.5, "0.5"), ("0.5", 0.5), (0.5, 0.5 + 0j), (0.5, True), (None, 0.5)]
)
def test_hurwitz_params_refuse_arguments_that_are_no_numbers(s, a):
    # HurwitzParams(0.5, "0.5") raised a bare TypeError
    with pytest.raises(DomainError, match="must be a (real|complex) number"):
        HurwitzParams(s, a)


@given(
    s_re=st.floats(min_value=1.2, max_value=6.0),
    s_im=st.floats(min_value=-3.0, max_value=3.0),
    a=st.floats(min_value=0.05, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_shift_recurrence(s_re, s_im, a):
    # zeta(s, a) = a^-s + zeta(s, a+1); the shifted evaluation goes through
    # the continuation helper because the public domain is a in (0, 1].
    s = complex(s_re, s_im)
    lhs = hurwitz_zeta(HurwitzParams(s=s, a=a))
    rhs = a ** (-s) + _hurwitz_em(s, a + 1.0)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_zeta_at_zero_linear_in_shift():
    for k in range(1, 10):
        a = k / 10.0
        value = hurwitz_zeta(HurwitzParams(s=0.0, a=a))
        assert value == pytest.approx(0.5 - a, abs=1e-10)


def test_ds0_half_shift():
    # frozen: zeta'(0, 1/2) = -log(2)/2 = -0.34657359027997264
    assert hurwitz_zeta_ds0(0.5) == pytest.approx(-0.34657359027997264, abs=1e-12)


def test_ds0_reflection_combination():
    # zeta'(0,a) + zeta'(0,1-a) = log(pi / sin(pi a)) - log(2 pi)
    for a in (0.25, 0.1, 0.4):
        combined = hurwitz_zeta_ds0(a) + hurwitz_zeta_ds0(1.0 - a)
        expected = math.log(math.pi / math.sin(math.pi * a)) - math.log(2.0 * math.pi)
        assert combined == pytest.approx(expected, abs=1e-12)


def test_ds0_quarter_pair_sum():
    # the combination used by the spectral determinant at alpha = 1/4
    combined = hurwitz_zeta_ds0(0.25) + hurwitz_zeta_ds0(0.75)
    assert combined == pytest.approx(-0.5 * math.log(2.0), abs=1e-12)


def test_ds0_matches_numerically_differentiated_zeta():
    # independent route: central difference of the continuation in s
    a, h = 0.3, 1e-5
    numeric = (
        hurwitz_zeta(HurwitzParams(s=h, a=a)) - hurwitz_zeta(HurwitzParams(s=-h, a=a))
    ).real / (2.0 * h)
    assert hurwitz_zeta_ds0(a) == pytest.approx(numeric, abs=1e-8)


def test_ds0_against_mpmath_oracle():
    # zeta'(0, a) by mpmath's derivative of the continuation, at the exact
    # double a; the kernel writes the direct sum relative to a = 0, so no two
    # large terms cancel (the form with -sum log(n + a) + w (log w - 1) was
    # off by 1.1e-13 at the worst point of this grid; the kernel by 1.0e-15)
    with mp.workdps(30):
        for a in np.linspace(0.001, 0.999, 400):
            oracle = float(mp.zeta(0, mp.mpf(float(a)), 1))
            assert abs(hurwitz_zeta_ds0(float(a)) - oracle) <= 2e-14


def test_ds0_array_matches_scalar():
    rng = np.random.default_rng(5)
    # more points than one block of the direct sum
    a = rng.uniform(1e-6, 1.0 - 1e-6, size=(25, 20))
    values = hurwitz_zeta_ds0(a)
    assert isinstance(values, np.ndarray) and values.shape == a.shape
    scalars = np.array([hurwitz_zeta_ds0(float(x)) for x in a.ravel()]).reshape(a.shape)
    assert np.all(np.abs(values - scalars) <= 1e-15 * np.abs(scalars))
    assert type(hurwitz_zeta_ds0(0.3)) is float
    assert type(hurwitz_zeta_ds0(np.float64(0.3))) is float
    assert hurwitz_zeta_ds0(np.empty(0)).shape == (0,)


@pytest.mark.parametrize("bad", [math.nan, 0.0, 1.0, -0.2, 1.5, math.inf])
def test_ds0_array_with_one_bad_entry_raises(bad):
    a = np.full(7, 0.4)
    a[3] = bad
    with pytest.raises(DomainError):
        hurwitz_zeta_ds0(a)


def test_exp_reflection_identity_grid():
    for k in range(1, 10):
        a = k / 10.0
        value = math.exp(-2.0 * (hurwitz_zeta_ds0(a) + hurwitz_zeta_ds0(1.0 - a)))
        expected = (2.0 * math.sin(math.pi * a)) ** 2
        assert value == pytest.approx(expected, rel=1e-9)


def lazily(field):
    """A field of one point, fed to fd_apply one stencil sample at a time as
    Python floats."""
    return lambda xs, ys: map(field, xs.tolist(), ys.tolist())


def test_fd_laplacian_exact_on_quadratic():
    lap = FdStencil(step=1e-3, kind="laplacian-2d")
    value = fd_apply(lambda x, y: x * x + y * y, (0.37, -1.2), lap)
    assert value == pytest.approx(4.0, abs=1e-8)


def test_fd_first_derivative_exact_on_linear():
    d1 = FdStencil(step=1e-3, kind="first-derivative")
    assert fd_apply(lambda x, y: x, (0.1, 0.2), d1) == pytest.approx(1.0, abs=1e-10)
    assert fd_apply(lambda x, y: y, (0.1, 0.2), d1, axis=1) == pytest.approx(1.0, abs=1e-10)


def test_fd_polynomial_exactness_up_to_degree():
    # the 4th-order central first derivative is exact through degree 4
    d1 = FdStencil(step=1e-2, kind="first-derivative")
    value = fd_apply(lambda x, y: x**4, (0.5, 0.0), d1)
    assert value == pytest.approx(4 * 0.5**3, abs=1e-8)
    # and the 4th-order Laplacian through degree 5
    lap = FdStencil(step=1e-2, kind="laplacian-2d")
    value = fd_apply(lambda x, y: x**5 + y**4, (0.4, 0.3), lap)
    assert value == pytest.approx(20 * 0.4**3 + 12 * 0.3**2, abs=1e-8)


def test_fd_laplacian_of_log_bump():
    # symbolic oracle: Laplacian of log(1 + x^2 + y^2) equals 4 / (1 + r^2)^2
    lap = FdStencil(step=1e-3, kind="laplacian-2d")
    assert fd_apply(lambda x, y: np.log(1 + x * x + y * y), (0.0, 0.0), lap) == pytest.approx(
        4.0, abs=1e-5
    )


def test_fd_propagates_evaluation_error():
    def field(x, y):
        raise ValueError("nope")

    for f in (field, lazily(field)):
        with pytest.raises(EvaluationError):
            fd_apply(f, (0.0, 0.0), FdStencil(step=1e-3, kind="laplacian-2d"))


def test_fd_first_derivative_exact_on_matrix_and_complex_fields():
    # the order-4 central first derivative is exact on polynomials of degree 4
    d1 = FdStencil(step=1e-2, kind="first-derivative")
    x0, y0 = 0.3, -0.7

    def matrix_field(x, y):
        return np.array([[x**4, 2.0 * x * y], [y**4, 1.0]])

    d_x = fd_apply(lazily(matrix_field), (x0, y0), d1, axis=0)
    d_y = fd_apply(lazily(matrix_field), (x0, y0), d1, axis=1)
    assert isinstance(d_x, np.ndarray) and d_x.shape == (2, 2)
    np.testing.assert_allclose(d_x, [[4 * x0**3, 2.0 * y0], [0.0, 0.0]], atol=1e-9)
    np.testing.assert_allclose(d_y, [[0.0, 2.0 * x0], [4 * y0**3, 0.0]], atol=1e-9)

    def complex_field(x, y):
        return (1.0 + 2.0j) * x**4 + 3.0j * y

    assert fd_apply(complex_field, (x0, y0), d1, axis=0) == pytest.approx(
        (1.0 + 2.0j) * 4 * x0**3, abs=1e-9
    )
    assert fd_apply(complex_field, (x0, y0), d1, axis=1) == pytest.approx(3.0j, abs=1e-9)


def test_fd_laplacian_exact_on_matrix_and_complex_fields():
    # the order-4 Laplacian is exact through degree 5
    lap = FdStencil(step=1e-2, kind="laplacian-2d")
    x0, y0 = 0.4, 0.3
    deg = 5

    def matrix_field(x, y):
        return np.array([x**deg + y**2, 1j * x * y, (2.0 - 1.0j) * y**deg])

    value = fd_apply(lazily(matrix_field), (x0, y0), lap)
    second = deg * (deg - 1)
    expected = [second * x0 ** (deg - 2) + 2.0, 0.0, (2.0 - 1.0j) * second * y0 ** (deg - 2)]
    np.testing.assert_allclose(value, expected, atol=1e-7)


def test_fd_passes_detline_errors_through():
    def field(x, y):
        raise NotInvertible("singular at this stencil point")

    for kind in ("first-derivative", "laplacian-2d"):
        for f in (field, lazily(field)):
            with pytest.raises(NotInvertible):
                fd_apply(f, (0.0, 0.0), FdStencil(step=1e-3, kind=kind))


def test_fd_rejects_non_finite_array_field():
    def field(x, y):
        return np.array([x, math.nan if x > 0.5 else 0.0])

    with pytest.raises(EvaluationError, match="not finite"):
        fd_apply(lazily(field), (0.5, 0.0), FdStencil(step=1e-3, kind="first-derivative"))
    with pytest.raises(EvaluationError, match="not finite"):
        fd_apply(
            lazily(lambda x, y: complex(math.inf, x)), (0.0, 0.0), FdStencil(kind="laplacian-2d")
        )
    with pytest.raises(EvaluationError, match="not finite"):
        fd_apply(lambda x, y: np.where(x > 0.5, math.nan, x), (0.5, 0.0), FdStencil())


def test_fd_stencil_validates_step_and_kind():
    # the step defaults to the one fixed step; NaN once passed the step <= 0
    # test and failed only when the stencil was used
    assert FdStencil().step == DEFAULT_FD_STEP
    for step in (0.0, -1e-3, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="step"):
            FdStencil(step=step)
    with pytest.raises(DomainError, match="kind"):
        FdStencil(kind="third-derivative")


@pytest.mark.parametrize("kind", ["first-derivative", "laplacian-2d"])
@pytest.mark.parametrize("axis", [7, -1, 2])
def test_fd_refuses_an_axis_other_than_0_or_1(kind, axis):
    # the Laplacian once ignored its axis and returned 2.0 here for axis=7
    with pytest.raises(DomainError, match="axis"):
        fd_apply(lambda x, y: x * x, (0.1, 0.2), FdStencil(kind=kind), axis=axis)


@pytest.mark.parametrize("kind", ["first-derivative", "laplacian-2d"])
@pytest.mark.parametrize("axis", [0, 1])
def test_fd_of_a_constant_field_is_exactly_zero(kind, axis):
    # paired differences cancel a constant exactly; a weighted sum of the
    # samples left 2.1e-14 (first derivative of 0.7) and up to 2.2e-9
    # (Laplacian of this matrix)
    matrix = np.array([[0.7, 1.0 / 3.0j, 2.2], [math.pi, -1.1, 0.1 + 0.2j], [5.0, 6.0, 7.0j]])
    st_ = FdStencil(kind=kind)
    for value in (0.7, 0.3 + 0.9j, matrix):
        stacked = lambda xs, ys: np.broadcast_to(value, (len(xs), *np.shape(value)))  # noqa: E731
        for field in (lazily(lambda x, y: value), stacked):
            result = fd_apply(field, (0.37, -1.2), st_, axis)
            assert np.all(np.asarray(result) == 0.0), (value, result)
    # a tuple of one shared array: both members are exactly 0, and the
    # stencil writes into no sample
    kept = matrix.copy()
    result = fd_apply(lazily(lambda x, y: (matrix, matrix)), (0.37, -1.2), st_, axis)
    assert np.all(result[0] == 0.0) and np.all(result[1] == 0.0)
    np.testing.assert_array_equal(matrix, kept)


def summed_stencil(f, at, st, axis):
    # the stencil as a running sum started at 0.0, out of place, over a field
    # of one point: the arithmetic fd_apply keeps, apart from the sign of an
    # exact zero
    weights = {
        "first-derivative": ((1, 2.0 / 3), (2, -1.0 / 12)),
        "laplacian-2d": ((1, 4.0 / 3), (2, -1.0 / 12)),
    }[st.kind]
    (x0, y0), h = at, st.step

    def sample(offset, along):
        return f(x0 + offset * h, y0) if along == 0 else f(x0, y0 + offset * h)

    acc = 0.0
    for k, weight in weights:
        if st.kind == "first-derivative":
            acc = acc + weight * (sample(k, axis) - sample(-k, axis))
        else:
            ring = (sample(k, 0) + sample(-k, 0)) + (sample(k, 1) + sample(-k, 1))
            acc = acc + weight * (ring - 4.0 * sample(0, 0))
    return acc / (h if st.kind == "first-derivative" else h * h)


FIELDS = [
    pytest.param(lambda x, y: math.sin(x) * math.exp(y), id="float"),
    pytest.param(lambda x, y: complex(math.cos(x * y), x**3), id="complex"),
    pytest.param(
        lambda x, y: np.array([[x**4, 1j * x * y], [math.sin(y), 2.0]]) / 3.0, id="matrix"
    ),
    pytest.param(lambda x, y: round(1e3 * x) + 7 * round(1e3 * y), id="integer"),
    pytest.param(lambda x, y: np.array([round(1e3 * x), round(1e3 * y), 7]), id="integer-array"),
]


@pytest.mark.parametrize("kind", ["first-derivative", "laplacian-2d"])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("field", FIELDS)
def test_fd_matches_the_summed_loop_exactly(field, axis, kind):
    # starting from the first paired term moves no bit
    st_ = FdStencil(step=1e-3, kind=kind)
    value = fd_apply(lazily(field), (0.5, -0.25), st_, axis)
    expected = summed_stencil(field, (0.5, -0.25), st_, axis)
    assert type(value) is type(expected)
    np.testing.assert_array_equal(value, expected)
    assert np.all(np.asarray(value) == np.asarray(expected))


@pytest.mark.parametrize("kind", ["first-derivative", "laplacian-2d"])
def test_fd_of_a_tuple_field_is_the_tuple_of_its_members(kind):
    # each sample is evaluated once for all members, and each member's
    # result is, to the last bit, the stencil of that member alone
    evaluations = []

    def field(x, y):
        evaluations.append((x, y))
        return tuple(member(x, y) for member in members)

    members = [param.values[0] for param in FIELDS]
    st_ = FdStencil(step=1e-3, kind=kind)
    result = fd_apply(lazily(field), (0.5, -0.25), st_, 1)
    assert type(result) is tuple and len(result) == len(members)
    assert len(evaluations) == (4 if kind == "first-derivative" else 9)
    for member, value in zip(members, result):
        np.testing.assert_array_equal(value, fd_apply(lazily(member), (0.5, -0.25), st_, 1))
    # a member that is not finite names the point; samples of two lengths
    # do not combine
    with pytest.raises(EvaluationError, match="not finite"):
        fd_apply(lazily(lambda x, y: (x, math.inf * x)), (0.5, 0.0), st_)
    with pytest.raises(EvaluationError, match="tuples of one length"):
        fd_apply(lazily(lambda x, y: (x, y) if x > 0.5 else (x,)), (0.5, 0.0), st_)


# Fields over stacked coordinates, each with its value at one point: numpy
# ufuncs elementwise, so feeding the rows of xs, ys one at a time evaluates
# the same arithmetic.
ARRAY_FIELDS = [
    pytest.param(lambda x, y: np.sin(x) * np.exp(y), id="float"),
    pytest.param(lambda x, y: np.cos(x * y) + 1j * x**3, id="complex"),
    pytest.param(
        lambda x, y: np.stack([x**4, 1j * x * y, np.sin(y), 2.0 + 0 * x], axis=-1) / 3.0,
        id="matrix",
    ),
    pytest.param(lambda x, y: (np.log1p(x * x + y * y), np.sin(x) * y**5), id="tuple"),
]
CENTRES = [
    pytest.param((0.5, -0.25), id="one-point"),
    pytest.param((np.array([0.5, -0.3, 1.7]), np.array([-0.25, 0.8, 0.1])), id="three-points"),
]


@pytest.mark.parametrize("at", CENTRES)
@pytest.mark.parametrize("kind", ["first-derivative", "laplacian-2d"])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("field", ARRAY_FIELDS)
def test_fd_of_an_array_field_is_the_field_fed_lazily(field, axis, kind, at):
    # one call over every sample gives, to the last bit, what the same field
    # gives one sample at a time
    st_ = FdStencil(kind=kind)
    calls = []

    def counted(xs, ys):
        calls.append(xs.shape)
        return field(xs, ys)

    stacked = fd_apply(counted, at, st_, axis)
    fed = fd_apply(lambda xs, ys: map(field, xs, ys), at, st_, axis)
    n = 4 if kind == "first-derivative" else 9
    assert calls == [(n, *np.shape(at[0]))]
    assert type(stacked) is type(fed)
    for value, expected in zip(*((r if type(r) is tuple else (r,)) for r in (stacked, fed))):
        assert np.shape(value) == np.shape(expected)
        np.testing.assert_array_equal(value, expected)


STENCIL_ORDER = {
    # (steps along t1, steps along t2) of each sample, in the order consumed
    ("first-derivative", 0): [(1, 0), (-1, 0), (2, 0), (-2, 0)],
    ("first-derivative", 1): [(0, 1), (0, -1), (0, 2), (0, -2)],
    ("laplacian-2d", 0): [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (2, 0), (-2, 0), (0, 2), (0, -2)],
}


@pytest.mark.parametrize("kind, axis", list(STENCIL_ORDER))
def test_fd_consumes_a_lazy_field_in_the_documented_order(kind, axis):
    # one call with the stacked coordinates, then one sample at a time, in
    # the documented order, each as the field is asked for it
    x0, y0, h = 0.37, -1.2, DEFAULT_FD_STEP
    taken = []

    def field(xs, ys):
        taken.append("call")
        for x, y in zip(xs.tolist(), ys.tolist()):
            taken.append((x, y))
            yield x * y

    fd_apply(field, (x0, y0), FdStencil(kind=kind), axis)
    expected = [
        (x0 + i * h if i else x0, y0 + j * h if j else y0) for i, j in STENCIL_ORDER[kind, axis]
    ]
    assert taken == ["call", *expected]


@pytest.mark.parametrize("kind, axis", list(STENCIL_ORDER))
def test_fd_names_the_sample_where_a_lazy_field_failed(kind, axis):
    # an error at sample i names that sample; an array field's error names
    # the stencil centre
    x0, y0, h = 0.37, -1.2, DEFAULT_FD_STEP
    st_ = FdStencil(kind=kind)
    for i, (di, dj) in enumerate(STENCIL_ORDER[kind, axis]):
        x, y = x0 + di * h if di else x0, y0 + dj * h if dj else y0

        def field(xs, ys):
            for k, (xk, yk) in enumerate(zip(xs.tolist(), ys.tolist())):
                if k == i:
                    raise ValueError("planted")
                yield xk

        with pytest.raises(EvaluationError, match=re.escape(f"at ({x}, {y}): planted")):
            fd_apply(field, (x0, y0), st_, axis)

    def array_field(xs, ys):
        raise ValueError("planted")

    with pytest.raises(EvaluationError, match=re.escape(f"at ({x0}, {y0}): planted")):
        fd_apply(array_field, (x0, y0), st_, axis)


def test_fd_refuses_a_field_with_the_wrong_number_of_samples():
    st_ = FdStencil(kind="laplacian-2d")
    for field in (
        lambda xs, ys: xs[:-1],  # an array one sample short
        lambda xs, ys: (xs, ys[:3]),  # a tuple member one sample short
        lambda xs, ys: np.array(1.0),  # an array without a leading axis
    ):
        with pytest.raises(EvaluationError, match="expected 9 samples"):
            fd_apply(field, (0.1, 0.2), st_)
    with pytest.raises(EvaluationError, match="not iterable"):
        fd_apply(lambda xs, ys: 1.0, (0.1, 0.2), st_)
    with pytest.raises(EvaluationError, match="fewer than 9 samples"):
        fd_apply(lambda xs, ys: iter(xs[:5]), (0.1, 0.2), st_)
