"""Exact-rational series tests: Todd inversion, exponentials, pushforward
coefficient.  Long division over Fraction serves as the independent oracle."""

from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detline.chern_series import RationalSeries, exp_series, grr_c1_coefficient, todd_series
from detline.errors import DomainError


def long_division_oracle(cap):
    """Coefficients of x / (1 - e^{-x}) by explicit polynomial long division."""
    denominator = [Fraction((-1) ** j, factorial(j + 1)) for j in range(cap + 1)]
    quotient = []
    remainder = [Fraction(1)] + [Fraction(0)] * cap
    for k in range(cap + 1):
        c = remainder[k] / denominator[0]
        quotient.append(c)
        for j in range(cap + 1 - k):
            remainder[k + j] -= c * denominator[j]
    return quotient


def test_todd_head_coefficients():
    todd = todd_series(2)
    assert list(todd.coeffs) == [Fraction(1), Fraction(1, 2), Fraction(1, 12)]


def test_todd_against_long_division():
    cap = 10
    assert list(todd_series(cap).coeffs) == long_division_oracle(cap)


def test_todd_cubic_coefficient_vanishes():
    assert todd_series(6)[3] == 0
    assert todd_series(6)[5] == 0  # odd Bernoulli numbers beyond the first vanish


def test_todd_defining_identity():
    cap = 8
    denominator = RationalSeries(
        tuple(Fraction((-1) ** j, factorial(j + 1)) for j in range(cap + 1)), cap
    )
    assert todd_series(cap) * denominator == RationalSeries.one(cap)


def test_exp_series_values():
    assert list(exp_series(0, 2).coeffs) == [Fraction(1), Fraction(0), Fraction(0)]
    assert list(exp_series(1, 2).coeffs) == [Fraction(1), Fraction(1), Fraction(1, 2)]


@pytest.mark.parametrize(
    "call",
    [
        lambda: exp_series(float("nan")),
        lambda: exp_series(float("inf")),
        lambda: exp_series(-float("inf"), 3),
        lambda: RationalSeries.from_list([float("nan")], 3),
        lambda: RationalSeries.from_list([1, float("inf")], 3),
        lambda: RationalSeries((1, 2, float("nan")), 2),
        lambda: RationalSeries.from_list([1j], 3),
    ],
    ids=["exp-nan", "exp-inf", "exp-minus-inf", "list-nan", "list-inf", "tuple-nan", "complex"],
)
def test_non_finite_coefficients_and_twists_raise_domain_error(call):
    # NaN gave ValueError and inf OverflowError, from Fraction
    with pytest.raises(DomainError, match="finite rational"):
        call()


@pytest.mark.parametrize("m", [2.5, 3.0, True, False, Fraction(1, 2), "3"])
def test_grr_coefficient_requires_an_integer_twist(m):
    # 2.5 gave 107/24 and True gave 13/12
    with pytest.raises(DomainError, match="twist m must be an integer"):
        grr_c1_coefficient(m)


def test_exp_series_keeps_rational_multiples():
    assert exp_series(Fraction(1, 3), 2).coeffs == (1, Fraction(1, 3), Fraction(1, 18))
    assert exp_series(0.5, 2).coeffs == (1, Fraction(1, 2), Fraction(1, 8))
    assert grr_c1_coefficient(np.int64(2)) == grr_c1_coefficient(2) == Fraction(37, 12)


@pytest.mark.parametrize("cap", [-1, 0, 1])
def test_exp_series_refuses_a_cap_below_two(cap):
    # exp_series once clamped these caps to 2 and returned a longer series
    with pytest.raises(DomainError, match="cap"):
        exp_series(1, cap)
    with pytest.raises(DomainError, match="cap"):
        todd_series(cap)


@given(
    a_num=st.integers(min_value=-8, max_value=8),
    b_num=st.integers(min_value=-8, max_value=8),
    den=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=30, deadline=None)
def test_exp_addition_law(a_num, b_num, den):
    a, b = Fraction(a_num, den), Fraction(b_num, den)
    assert exp_series(a, 8) * exp_series(b, 8) == exp_series(a + b, 8)


def test_grr_coefficient_spot_values():
    assert grr_c1_coefficient(0) == Fraction(1, 12)
    assert grr_c1_coefficient(1) == Fraction(13, 12)
    assert grr_c1_coefficient(-1) == Fraction(1, 12)


def test_grr_coefficient_closed_form_range():
    for m in range(-10, 11):
        assert grr_c1_coefficient(m) == Fraction(6 * m * m + 6 * m + 1, 12)


def test_grr_linear_coefficient():
    for m in range(-10, 11):
        product = exp_series(m, 4) * todd_series(4)
        assert product[1] == Fraction(m) + Fraction(1, 2)
        assert product[0] == 1


def test_grr_duality_symmetry():
    for m in range(-10, 11):
        assert grr_c1_coefficient(m) == grr_c1_coefficient(-1 - m)


@given(
    coeffs=st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=6), min_size=9, max_size=9
    )
)
@settings(max_examples=30, deadline=None)
def test_ring_laws(coeffs):
    s1 = RationalSeries(tuple(coeffs), 8)
    s2 = RationalSeries(tuple(reversed(coeffs)), 8)
    s3 = exp_series(Fraction(1, 3), 8)
    assert (s1 * s2) * s3 == s1 * (s2 * s3)
    assert s1 * (s2 + s3) == s1 * s2 + s1 * s3
    assert s1 * s2 == s2 * s1


def test_inverse_requires_unit():
    with pytest.raises(DomainError):
        RationalSeries.from_list([0, 1], 3).inverse()


def test_inverse_roundtrip():
    series = exp_series(Fraction(2, 3), 8)
    assert series * series.inverse() == RationalSeries.one(8)


ENTRY_POINTS = {
    "exp_series": lambda cap: exp_series(1, cap),
    "todd_series": todd_series,
    "one": RationalSeries.one,
    "from_list": lambda cap: RationalSeries.from_list([1], cap),
    "constructor": lambda cap: RationalSeries((1, 2, 3, 4), cap),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("cap", [3.0, 2.5, "3", True, None, [3]])
def test_every_entry_point_refuses_a_cap_that_is_no_integer(entry, cap):
    # these gave a bare TypeError; RationalSeries((1, 2, 3, 4), 3.0) was accepted
    with pytest.raises(DomainError, match="cap must be an integer"):
        ENTRY_POINTS[entry](cap)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_takes_an_integral_cap_as_an_int(entry):
    series = ENTRY_POINTS[entry](np.int64(3))
    assert type(series.cap) is int and series == ENTRY_POINTS[entry](3)


def schoolbook_product(a, b):
    """The truncated product coefficient by coefficient, one Fraction at a time."""
    cap = min(a.cap, b.cap)
    return [sum((a[i] * b[n - i] for i in range(n + 1)), Fraction(0)) for n in range(cap + 1)]


def test_products_equal_the_schoolbook_fraction_product():
    rng = np.random.default_rng(31)

    def random_series(cap):
        numerators = rng.integers(-40, 41, size=cap + 1)
        numerators[rng.random(cap + 1) < 0.3] = 0  # zero coefficients, some leading
        denominators = rng.choice([1, 2, 3, 4, 5, 6, 7, 9, 12, 16, 35, 720, 10**12], size=cap + 1)
        return RationalSeries(
            tuple(Fraction(int(n), int(d)) for n, d in zip(numerators, denominators)), cap
        )

    for _ in range(300):
        a, b = random_series(int(rng.integers(2, 13))), random_series(int(rng.integers(2, 13)))
        product = a * b
        assert product.cap == min(a.cap, b.cap)
        assert list(product.coeffs) == schoolbook_product(a, b)
        assert all(type(c) is Fraction for c in product.coeffs)
    assert list((todd_series(12) * exp_series(-3, 12)).coeffs) == schoolbook_product(
        todd_series(12), exp_series(-3, 12)
    )


@pytest.mark.parametrize(
    "m", [0, 1, -1, 7, -12, Fraction(-5, 3), Fraction(7, 720), 0.5, -2.75, 1e-3, 3.0]
)
def test_exp_series_equals_powers_over_factorials(m):
    exact = Fraction(m)
    for cap in (2, 5, 12):
        series = exp_series(m, cap)
        assert list(series.coeffs) == [exact**k / factorial(k) for k in range(cap + 1)]
        assert all(type(c) is Fraction for c in series.coeffs)
