"""Exact-rational truncated power series and the genus-one pushforward
coefficient of the twisted d-bar determinant bundle.

All arithmetic is over Fraction; coefficients beyond the cap are discarded
consistently, so the series form the ring of truncated polynomials.  A
coefficient or an exponential's multiple that is NaN, infinite or no number
raises DomainError, and the pushforward coefficient takes an integer twist.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Sequence

from .errors import DomainError

__all__ = ["RationalSeries", "todd_series", "exp_series", "grr_c1_coefficient"]

DEFAULT_CAP = 8


def _rational(value) -> Fraction:
    """value as an exact Fraction; NaN, an infinity or a non-number raises DomainError."""
    try:
        return Fraction(value)
    except (ValueError, OverflowError, TypeError) as exc:
        raise DomainError(f"a coefficient must be a finite rational, got {value!r}") from exc


@dataclass(frozen=True)
class RationalSeries:
    """Truncated power series sum coeffs[k] x^k, k = 0..cap, over Fraction."""

    coeffs: tuple[Fraction, ...]
    cap: int

    def __post_init__(self) -> None:
        if self.cap < 2:
            raise DomainError(f"cap must be >= 2, got {self.cap}")
        coeffs = tuple(_rational(c) for c in self.coeffs)
        if len(coeffs) != self.cap + 1:
            raise DomainError(f"need {self.cap + 1} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "coeffs", coeffs)

    @staticmethod
    def from_list(values: Sequence, cap: int) -> "RationalSeries":
        coeffs = [_rational(v) for v in values[: cap + 1]]
        coeffs += [Fraction(0)] * (cap + 1 - len(coeffs))
        return RationalSeries(tuple(coeffs), cap)

    @staticmethod
    def one(cap: int) -> "RationalSeries":
        return RationalSeries.from_list([Fraction(1)], cap)

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k]

    def __add__(self, other: "RationalSeries") -> "RationalSeries":
        cap = min(self.cap, other.cap)
        return RationalSeries(
            tuple(self.coeffs[k] + other.coeffs[k] for k in range(cap + 1)), cap
        )

    def __mul__(self, other: "RationalSeries") -> "RationalSeries":
        cap = min(self.cap, other.cap)
        out = [Fraction(0)] * (cap + 1)
        for i in range(cap + 1):
            if self.coeffs[i] == 0:
                continue
            for j in range(cap + 1 - i):
                out[i + j] += self.coeffs[i] * other.coeffs[j]
        return RationalSeries(tuple(out), cap)

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


@lru_cache
def todd_series(cap: int = DEFAULT_CAP) -> RationalSeries:
    """The Todd generating series x / (1 - e^{-x}) as exact rationals.

    Obtained by ring inversion of (1 - e^{-x}) / x; the leading coefficients
    are 1, 1/2, 1/12, 0, -1/720, ...  Computed once per cap: RationalSeries is
    immutable, so every caller may share the result.
    """
    return _todd_denominator(cap).inverse()


def exp_series(m, cap: int = DEFAULT_CAP) -> RationalSeries:
    """The exponential series of a rational multiple: sum m^k x^k / k!, up to
    x^cap; a cap below 2, or an m that is NaN or infinite, raises DomainError."""
    m = _rational(m)
    return RationalSeries(tuple(m**k / factorial(k) for k in range(cap + 1)), cap)


def grr_c1_coefficient(m: int) -> Fraction:
    """First Chern coefficient of the twisted d-bar determinant bundle.

    The degree-two coefficient of exp(m x) * Todd(x), exactly
    (6 m^2 + 6 m + 1) / 12, with degree-one coefficient m + 1/2.  The twist
    m must be an integer (a bool is not one).
    """
    if not isinstance(m, numbers.Integral) or isinstance(m, bool):
        raise DomainError(f"the twist m must be an integer, got {m!r}")
    product = exp_series(m, 4) * todd_series(4)
    if product[1] != Fraction(m) + Fraction(1, 2):
        raise DomainError(f"degree-one coefficient mismatch at m = {m}")
    return product[2]
