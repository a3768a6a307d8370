"""Exact-rational truncated power series and the genus-one pushforward
coefficient of the twisted d-bar determinant bundle.

Coefficients are exact Fractions; coefficients beyond the cap are discarded
consistently, so the series form the ring of truncated polynomials.  Products
and exponentials run on Python ints: each operand is written over one common
denominator, the integer numerators are convolved, and each result Fraction is
built once, so every coefficient is the exact value a Fraction-by-Fraction
product gives.  A coefficient or an exponential's multiple must be a finite
real number, a cap, a coefficient index and the pushforward coefficient's
twist an integer, each by ``errors._number`` (a bool is no number);
anything else raises DomainError, as does a coefficient sequence that is no
sequence, an operand of + or * that is no RationalSeries and a coefficient
index outside 0..cap.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Sequence

from .errors import DomainError, _instance, _number

__all__ = ["RationalSeries", "todd_series", "exp_series", "grr_c1_coefficient"]

DEFAULT_CAP = 8
_OPERAND = "a series operand must be a RationalSeries"


def _rational(value) -> Fraction:
    """value, a real number, as an exact Fraction; NaN, an infinity or a
    non-number raises DomainError."""
    try:
        return Fraction(_number(value, numbers.Real, "a coefficient must be a finite rational"))
    except (ValueError, OverflowError, TypeError) as exc:  # NaN, an infinity, np.float32
        raise DomainError(f"a coefficient must be a finite rational, got {value!r}") from exc


def _rationals(values: Sequence, count: int | None = None) -> list[Fraction]:
    """The first ``count`` entries of values (all by default) as exact
    Fractions; values that is no sequence, such as None, a number or a set,
    raises DomainError."""
    try:
        head = values[:count]
    except (TypeError, LookupError) as exc:
        raise DomainError(f"coefficients must be a sequence, got {values!r}") from exc
    return [c if isinstance(c, Fraction) else _rational(c) for c in head]


def _cap(cap) -> int:
    """cap as an int; a non-integer or a cap below 2 raises DomainError."""
    if _number(cap, numbers.Integral, "cap must be an integer") < 2:
        raise DomainError(f"cap must be >= 2, got {cap}")
    return int(cap)


def _over_common_denominator(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators n_k and one denominator q with coeffs[k] = n_k / q."""
    q = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (q // c.denominator) for c in coeffs], q


@dataclass(frozen=True)
class RationalSeries:
    """Truncated power series sum coeffs[k] x^k, k = 0..cap, over Fraction;
    series[k] is the coefficient of x^k for k in 0..cap."""

    coeffs: tuple[Fraction, ...]
    cap: int

    def __post_init__(self) -> None:
        cap = _cap(self.cap)
        coeffs = tuple(_rationals(self.coeffs))
        if len(coeffs) != cap + 1:
            raise DomainError(f"need {cap + 1} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "cap", cap)

    @staticmethod
    def from_list(values: Sequence, cap: int) -> "RationalSeries":
        cap = _cap(cap)
        coeffs = _rationals(values, cap + 1)
        coeffs += [Fraction(0)] * (cap + 1 - len(coeffs))
        return RationalSeries(tuple(coeffs), cap)

    @staticmethod
    def one(cap: int) -> "RationalSeries":
        return RationalSeries.from_list([Fraction(1)], cap)

    def __getitem__(self, k: int) -> Fraction:
        """The coefficient of x^k, for an integer k in 0..cap; any other k,
        a negative one included, raises DomainError."""
        _number(k, numbers.Integral, "a coefficient index must be an integer")
        if not 0 <= k <= self.cap:
            raise DomainError(f"a coefficient index must lie in 0..{self.cap}, got {k}")
        return self.coeffs[k]

    def __add__(self, other: "RationalSeries") -> "RationalSeries":
        cap = min(self.cap, _instance(other, RationalSeries, _OPERAND).cap)
        return RationalSeries(
            tuple(self.coeffs[k] + other.coeffs[k] for k in range(cap + 1)), cap
        )

    def __mul__(self, other: "RationalSeries") -> "RationalSeries":
        cap = min(self.cap, _instance(other, RationalSeries, _OPERAND).cap)
        a, qa = _over_common_denominator(self.coeffs[: cap + 1])
        b, qb = _over_common_denominator(other.coeffs[: cap + 1])
        out = [0] * (cap + 1)
        for i, ai in enumerate(a):
            if ai:
                for j in range(cap + 1 - i):
                    out[i + j] += ai * b[j]
        q = qa * qb
        return RationalSeries(tuple(Fraction(n, q) for n in out), cap)

    def inverse(self) -> "RationalSeries":
        """Multiplicative inverse in the truncated ring; needs a unit constant term."""
        if self.coeffs[0] == 0:
            raise DomainError("series with zero constant term has no inverse")
        inv = [Fraction(1) / self.coeffs[0]]
        for n in range(1, self.cap + 1):
            acc = Fraction(0)
            for k in range(1, n + 1):
                acc += self.coeffs[k] * inv[n - k]
            inv.append(-acc / self.coeffs[0])
        return RationalSeries(tuple(inv), self.cap)


def _todd_denominator(cap: int) -> RationalSeries:
    # (1 - e^{-x}) / x = sum_{j >= 0} (-1)^j x^j / (j+1)!
    return RationalSeries(
        tuple(Fraction((-1) ** j, factorial(j + 1)) for j in range(cap + 1)), cap
    )


def todd_series(cap: int = DEFAULT_CAP) -> RationalSeries:
    """The Todd generating series x / (1 - e^{-x}) as exact rationals.

    Obtained by ring inversion of (1 - e^{-x}) / x; the leading coefficients
    are 1, 1/2, 1/12, 0, -1/720, ...  Computed once per cap: RationalSeries is
    immutable, so every caller may share the result.
    """
    return _todd_series(_cap(cap))


@lru_cache
def _todd_series(cap: int) -> RationalSeries:
    return _todd_denominator(cap).inverse()


def exp_series(m, cap: int = DEFAULT_CAP) -> RationalSeries:
    """The exponential series of a rational multiple: sum m^k x^k / k!, up to
    x^cap; a cap that is not an integer of at least 2, or an m that is NaN or
    infinite, raises DomainError.  With m = p/q in lowest terms the k-th
    coefficient is the Fraction p^k / (q^k k!), built once from ints."""
    cap = _cap(cap)
    m = _rational(m)
    p, q = m.numerator, m.denominator
    return RationalSeries(
        tuple(Fraction(p**k, q**k * factorial(k)) for k in range(cap + 1)), cap
    )


def grr_c1_coefficient(m: int) -> Fraction:
    """First Chern coefficient of the twisted d-bar determinant bundle.

    The degree-two coefficient of exp(m x) * Todd(x), exactly
    (6 m^2 + 6 m + 1) / 12, with degree-one coefficient m + 1/2.  The twist
    m must be an integer.
    """
    _number(m, numbers.Integral, "the twist m must be an integer")
    product = exp_series(m, 4) * todd_series(4)
    if product[1] != Fraction(m) + Fraction(1, 2):
        raise DomainError(f"degree-one coefficient mismatch at m = {m}")
    return product[2]
