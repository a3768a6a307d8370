"""Special-function kernel: Hurwitz zeta with analytic continuation, the
s-derivative at s = 0, and the one finite-difference stencil applier.

The continuation is one fixed Euler-Maclaurin rule: a direct sum over the
first DEFAULT_CUTOFF = 50 terms, the integral and half-term corrections, and
DEFAULT_EM_ORDER = 8 Bernoulli correction terms.  The result carries at least
12 significant digits for s near 0 and shifts a in (0.01, 1].
``hurwitz_zeta`` accepts s only in the region Re s >= -2, |Im s| <= 60, where
it stays within 1e-10 of mpmath.zeta measured as |err| / max(1, |zeta|)
(worst seen 3.3e-11, at Re s = -2).  Outside it the fixed cutoff and order
are not enough (Johansson, Numer. Algorithms 2015): s = -30 gave 1.5e35
where the value is 0, and s = 0.5+400i was off by O(1).  It raises
``DomainError`` there instead.

The rule's kernel ``_hurwitz_em`` runs over an array of shifts in a fixed
number of numpy passes, and a shift's value does not depend on the others in
the array.  ``grassmannian.eta_invariant_spectral`` sends all its offsets a and
1 - a through one call; ``hurwitz_zeta`` sends its one shift under
``np.errstate``, so a term that leaves the double range raises
``DomainError``, never a numpy warning.

``hurwitz_zeta_ds0``, the s-derivative at s = 0 behind every spectral
determinant, takes a float or a numpy array of shifts and returns a float or
an array of the same shape; a scalar runs through the same kernel as a
one-point array.  The kernel sums over the Euler-Maclaurin terms in blocks of
points, so its temporaries stay bounded whatever the number of points, and
writes every term relative to its a = 0 value: against mpmath its absolute
error over a in [0.001, 0.999] is at most 1.4e-15 (the form with
-sum log(n + a) and w (log w - 1), whose terms of size ~150 cancel, was off
by up to 1.1e-13).  On a 2-vCPU x86-64 host ``detline curvature-grid --n
100`` (10^4 points, 1.8e5 shifts) spends 0.27-0.36 s in ``curvature_grid``
(medians of three runs of seven), about half of it in the CSV writer, where
the scalar kernel took 8.3 s.

``fd_apply`` is the only stencil loop, for one real, complex or array
field.  Its one stencil is the order-4 central difference, applied as
paired differences f(+k) - f(-k) (first derivative) and f(+k) + f(-k) -
2 f(0) along each axis (Laplacian), so a constant field gives exactly 0.
Its step is fixed in code: every stencil of the library, nested ones
included, runs at DEFAULT_FD_STEP.  It calls the field once, with the
coordinates of all its samples stacked along a leading axis, and the field
decides how they are evaluated: by returning an array it evaluates them in
one pass, by returning an iterator one at a time.
``interval_cp1.quillen_curvature_fd`` returns arrays, so its nine Laplacian
samples make one pass through ``hurwitz_zeta_ds0`` where they made nine.
The Grassmannian chart layer returns ``map(field, t1, t2)``: one of its
samples holds d x d blocks, and stacking them raised the traced peak of one
``curvature_rkw`` at n_max = 100 from 3.6 to 25.6 MB, and the
``grassmannian-window`` benchmark's RSS from 54 to 75 MB.  A ``DetlineError``
from the field propagates unchanged; any other exception becomes an
``EvaluationError`` naming the sample for a lazy field and the stencil
centre for an array field, a sample that is no number or array of numbers
one naming the sample, and a non-finite result one naming the centre.
"""

from __future__ import annotations

import cmath
import decimal
import math
import numbers
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Literal

import numpy as np

from .errors import DetlineError, DomainError, EvaluationError, PoleAtOne, _array, _number
from .tolerances import DEFAULT_FD_STEP, LOG_GAMMA_TOL, POLE_DISTANCE

__all__ = [
    "HurwitzParams",
    "FdStencil",
    "hurwitz_zeta",
    "hurwitz_zeta_ds0",
    "fd_apply",
    "DEFAULT_EM_ORDER",
    "DEFAULT_CUTOFF",
    "DEFAULT_FD_STEP",
    "S_RE_MIN",
    "S_IM_MAX",
]

DEFAULT_EM_ORDER = 8
DEFAULT_CUTOFF = 50

# Region of s where the default Euler-Maclaurin evaluation is validated.
S_RE_MIN = -2.0
S_IM_MAX = 60.0

# Even-index Bernoulli numbers B_2 .. B_16, one per correction term.
_BERNOULLI_EVEN = [
    1.0 / 6,
    -1.0 / 30,
    1.0 / 42,
    -1.0 / 30,
    5.0 / 66,
    -691.0 / 2730,
    7.0 / 6,
    -3617.0 / 510,
]


@dataclass(frozen=True)
class HurwitzParams:
    """Arguments of the Hurwitz zeta evaluation zeta(s, a) = sum (n+a)^-s;
    a must lie in (0, 1]."""

    s: complex
    a: float

    def __post_init__(self) -> None:
        _number(self.s, numbers.Complex, "s must be a complex number")
        if not 0 < _number(self.a, numbers.Real, "shift a must be a real number") <= 1:
            raise DomainError(f"shift a must be a real number in (0, 1], got {self.a!r}")


def _open_unit_points(value, what: str) -> np.ndarray:
    """A real number or an array of them (``errors._array`` of kinds "iuf"),
    each in (0, 1), as a float array of at least one dimension; anything
    else, NaN included, raises DomainError."""
    points = np.array(_array(value, "iuf", f"{what} must be a real number"), dtype=float, ndmin=1)
    outside = ~((points > 0.0) & (points < 1.0))
    if outside.any():
        raise DomainError(f"{what} must lie in (0, 1), got {points[outside][0]}")
    return points


# Points x terms per block of a direct sum, so temporaries stay bounded
# whatever the number of points.
_SUM_BLOCK = 1 << 13


def _hurwitz_em(s: complex, a: float | np.ndarray) -> np.ndarray:
    """Euler-Maclaurin evaluation without domain guard on a (a > 0 required),
    elementwise over an array of shifts (a complex array of a's shape).

    Used internally to realise the recurrence zeta(s, a) = a^-s + zeta(s, a+1)
    across the unit shift, where the public entry point restricts a to (0, 1],
    and by ``grassmannian.eta_invariant_spectral`` at s = 0 over its offsets.
    The direct sum runs over blocks of points, one row of terms per point,
    summed along the row, so a point's value does not depend on the other
    points; the Bernoulli terms B_2k / (2k)! (s)_{2k-1} w^(1-s-2k) are
    w^(1-s) times one polynomial in 1/w^2.  A term that leaves the double
    range gives inf or NaN, not an exception: callers check finiteness.
    """
    s = complex(s)
    points = np.asarray(a, dtype=float)
    flat = points.reshape(-1)
    n = np.arange(float(DEFAULT_CUTOFF))
    total = np.empty(flat.shape, dtype=complex)
    rows = max(1, _SUM_BLOCK // DEFAULT_CUTOFF)
    for start in range(0, flat.size, rows):
        block = flat[start : start + rows, None] + n
        total[start : start + rows] = (block ** (-s)).sum(axis=1)
    w = DEFAULT_CUTOFF + flat
    w_1s = w ** (1 - s)
    total += w_1s / (s - 1)
    total += 0.5 * w ** (-s)
    # Rising factorial s(s+1)...(s+2k-2), built incrementally.
    poch, coeffs = s, []
    for k, b2k in enumerate(_BERNOULLI_EVEN, start=1):
        coeffs.append(b2k / math.factorial(2 * k) * poch)
        poch = poch * (s + 2 * k - 1) * (s + 2 * k)
    powers = np.power.outer(1.0 / (w * w), np.arange(1, len(coeffs) + 1))
    total += w_1s * (powers @ np.array(coeffs))
    return total.reshape(points.shape)


def hurwitz_zeta(p: HurwitzParams) -> complex:
    """Analytic continuation of sum_{n>=0} (n + a)^(-s).

    Agrees with the direct sum for Re s > 1 and continues it elsewhere;
    the only singularity is the simple pole at s = 1.  s must lie in the
    validated region Re s >= S_RE_MIN, |Im s| <= S_IM_MAX; elsewhere the
    fixed cutoff is too short and the result would be silently wrong, so
    DomainError is raised.  It is raised too where a term leaves the double
    range (a^-s for a = 0.01 at Re s > 154, the Bernoulli terms near
    Re s = 1e21), which would otherwise end in inf or a silent NaN.
    """
    s = complex(p.s)
    if not (s.real >= S_RE_MIN and abs(s.imag) <= S_IM_MAX):
        raise DomainError(
            f"s = {p.s} lies outside the validated region Re s >= {S_RE_MIN}, "
            f"|Im s| <= {S_IM_MAX}"
        )
    if abs(p.s - 1.0) < POLE_DISTANCE:
        raise PoleAtOne(f"zeta(s, a) has a pole at s = 1 (got s = {p.s})")
    with np.errstate(all="ignore"):
        value = complex(_hurwitz_em(p.s, p.a))
    if cmath.isfinite(value):
        return value
    raise DomainError(f"zeta(s, a) at s = {p.s}, a = {p.a} leaves the double range")


def _ds0_constant() -> float:
    """-log Gamma(N) + N log N - N - (1/2) log N for N = DEFAULT_CUTOFF, to double
    precision.

    It is the a = 0 value of the direct sum and the w (log w - 1) - (1/2) log w
    term.  In floating point its two parts of size ~150 (at N = 50) cancel to
    -0.92 and leave an error of 6e-15, so it is evaluated in 40-digit decimal
    arithmetic from the exact integer (N - 1)!.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        n = decimal.Decimal(DEFAULT_CUTOFF)
        log_n = n.ln()
        log_gamma_n = decimal.Decimal(math.factorial(DEFAULT_CUTOFF - 1)).ln()
        return float(-log_gamma_n + n * log_n - n - log_n / 2)


_DS0_CONSTANT = _ds0_constant()


def hurwitz_zeta_ds0(a: float | np.ndarray) -> float | np.ndarray:
    """d/ds zeta(s, a) at s = 0, for a in (0, 1), elementwise over an array.

    Returns a float for scalar input and an array of the input's shape
    otherwise; scalars run through the same kernel as one-point arrays.
    Each Euler-Maclaurin term is differentiated in closed form; no finite
    differencing in s is involved.  The direct sum and the w (log w - 1) -
    (1/2) log w term are written relative to their a = 0 values,

        -log a - sum_{n=1}^{N-1} log1p(a/n)
        + a log N + (N + a) log1p(a/N) - a - (1/2) log1p(a/N) + C(N),

    with N = DEFAULT_CUTOFF and the constant C(N) from ``_ds0_constant``, so
    no two large terms cancel.  Every value is cross-checked against
    log Gamma(a) - log(2 pi)/2 to 1e-10; an entry outside (0, 1), NaN
    included, and an argument that is no real number or array of them
    raise DomainError.
    """
    points = _open_unit_points(a, "shift a")
    flat = points.reshape(-1)
    n = np.arange(1.0, DEFAULT_CUTOFF)
    direct = np.empty_like(flat)
    rows = max(1, _SUM_BLOCK // max(1, n.size))
    for start in range(0, flat.size, rows):
        block = flat[start : start + rows, None] / n
        direct[start : start + rows] = np.log1p(block, out=block).sum(axis=1)
    big_n = float(DEFAULT_CUTOFF)
    near = np.log1p(flat / big_n)
    total = (
        _DS0_CONSTANT
        - np.log(flat)
        - direct
        + flat * math.log(big_n)
        + (big_n + flat) * near
        - flat
        - 0.5 * near
    )
    # d/ds of the k-th Bernoulli term at s = 0: only the factor s of the
    # rising factorial survives, leaving B_2k / (2k (2k-1)) * w^(1-2k);
    # summed by Horner's rule in 1/w^2.
    w = big_n + flat
    inv_w2 = 1.0 / (w * w)
    series = np.zeros_like(flat)
    for k in range(len(_BERNOULLI_EVEN), 0, -1):
        series = series * inv_w2 + _BERNOULLI_EVEN[k - 1] / ((2 * k) * (2 * k - 1))
    total += series / w
    reference = np.fromiter(map(math.lgamma, flat.tolist()), float, flat.size)
    reference -= 0.5 * math.log(2.0 * math.pi)
    off = np.abs(total - reference) > LOG_GAMMA_TOL
    if off.any():
        i = int(np.argmax(off))
        raise EvaluationError(
            f"Euler-Maclaurin derivative at s=0 disagrees with the log-Gamma "
            f"identity: {float(total[i])!r} vs {float(reference[i])!r} at a={float(flat[i])}"
        )
    return float(total[0]) if np.ndim(a) == 0 else total.reshape(points.shape)


StencilKind = Literal["first-derivative", "laplacian-2d"]

# Order-4 central-difference weights w_k on the positive offsets k, each
# applied to a pair of samples: w_k (f(+k) - f(-k)) for d/dx, exact through
# degree 4, and w_k (f(+k) + f(-k) - 2 f(0)) for d^2/dx^2, exact through
# degree 5.
_WEIGHTS = {
    "first-derivative": ((1, 2.0 / 3), (2, -1.0 / 12)),
    "laplacian-2d": ((1, 4.0 / 3), (2, -1.0 / 12)),
}


@dataclass(frozen=True)
class FdStencil:
    """The order-4 central finite-difference stencil, applied as paired
    differences: its finite positive step (DEFAULT_FD_STEP unless given) and
    whether it takes a first derivative or the 2-D Laplacian."""

    step: float = DEFAULT_FD_STEP
    kind: StencilKind = "laplacian-2d"

    def __post_init__(self) -> None:
        if not 0 < _number(self.step, numbers.Real, "step must be a real number") < math.inf:
            raise DomainError(f"step must be a finite positive real number, got {self.step!r}")
        if self.kind not in ("first-derivative", "laplacian-2d"):
            raise DomainError(f"unknown stencil kind {self.kind!r}")


def _samples(values: Any, n: int) -> Iterator[Any]:
    """The n samples a field returned, in order: the rows of an array, or the
    items of any other iterable.  An array without a leading axis of length
    n raises ValueError."""
    if isinstance(values, np.ndarray) and (values.ndim == 0 or len(values) != n):
        raise ValueError(f"expected {n} samples along the leading axis, got {values.shape}")
    return iter(values)


def _numeric(value: Any) -> bool:
    """Whether a field sample is a number or an array of numbers (no bool)."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iufc"
    return isinstance(value, numbers.Complex) and not isinstance(value, bool)


def _stencil_points(at: tuple[Any, Any], st: FdStencil, axis: int) -> list[tuple[Any, Any]]:
    """The sample points of fd_apply's stencil around ``at``, in the order the
    field receives them; the coordinates are floats or arrays, as in ``at``.
    An axis other than the integer 0 or 1, or a centre that is no pair of
    real numbers or arrays of them, raises DomainError."""
    if _number(axis, numbers.Integral, "axis must be 0 or 1") not in (0, 1):
        raise DomainError(f"axis must be 0 or 1, got {axis!r}")
    try:
        x0, y0 = at
    except (TypeError, ValueError) as exc:
        raise DomainError(f"stencil centre must be a pair of real coordinates, got {at!r}") from exc
    for c in (x0, y0):
        _array(c, "iuf", "stencil centre must be a pair of real coordinates")
    h = st.step
    offsets = [k for k, _ in _WEIGHTS[st.kind]]
    if st.kind == "first-derivative":
        steps = [(sign * k, axis) for k in offsets for sign in (1, -1)]
    else:
        steps = [(0, 0)] + [(sign * k, a) for k in offsets for a in (0, 1) for sign in (1, -1)]
    return [(x0 + k * h, y0) if along == 0 else (x0, y0 + k * h) for k, along in steps]


def fd_apply(
    f: Callable[[np.ndarray, np.ndarray], Any],
    at: tuple[float, float],
    st: FdStencil,
    axis: int = 0,
) -> Any:
    """Apply the stencil to a scalar or array field on the plane.

    ``axis`` must be 0 (the first coordinate) or 1 for either kind.  kind
    "first-derivative" estimates the partial derivative along ``axis`` as
    sum_k w_k (f(+k) - f(-k)) / h; kind "laplacian-2d" estimates the
    analyst's Laplacian f_xx + f_yy as
    sum_k w_k (f(+k,0) + f(-k,0) + f(0,+k) + f(0,-k) - 4 f(0)) / h^2.  The
    error is O(h^4), and a constant field gives exactly 0.

    The field is called once, as f(xs, ys), with the coordinates of every
    sample stacked along a leading axis in the order the stencil takes them:
    (+1, -1, +2, -2) steps along ``axis`` for a first derivative, and for
    the Laplacian the centre, then (+1, 0), (-1, 0), (0, +1), (0, -1) and
    the same at two steps.  For a centre of shape S, xs and ys have shape
    (n, *S) with n = 4 or 9.  The field returns the samples in that order:
    an array with the leading axis of length n, which evaluates every sample
    in one pass, or an iterator of them, such as ``map(g, xs, ys)``, which
    is consumed one sample at a time.  Each sample is a real or complex
    number or an array of them, differentiated entrywise; any other sample
    (None, a string, a tuple, a bool) raises ``EvaluationError`` naming it.
    The sum starts from its first paired term and takes a lazy field's
    samples as it needs them, so it holds a few at a time, never all n: a
    field with large samples, such as the chart layer's d x d blocks, stays
    lazy for that reason (the module docstring gives the memory it saves).
    Every sample enters the result, so one non-finite sample makes the
    result non-finite: finiteness is checked once, on the result, and numpy
    warns of none on the way (inf - inf, overflow).  An array
    without a leading axis of length n, or an iterator that ends early,
    raises ``EvaluationError``.  A ``DetlineError`` from the field
    propagates unchanged; any other exception becomes an
    ``EvaluationError`` naming the sample's coordinates for a lazy field
    and the stencil centre for an array field.  An axis other than the
    integer 0 or 1, or a centre that is no pair of real numbers or arrays
    of them, raises ``DomainError``.
    """
    points = _stencil_points(at, st, axis)
    x0, y0 = at
    h = st.step
    try:
        values = f(np.array([x for x, _ in points]), np.array([y for _, y in points]))
        samples = _samples(values, len(points))
    except DetlineError:
        raise
    except Exception as exc:  # surface the stencil's centre
        raise EvaluationError(f"field evaluation failed at ({x0}, {y0}): {exc}") from exc
    taken = iter(points)

    def sample() -> Any:
        x, y = next(taken)
        try:
            value = next(samples)
        except DetlineError:
            raise
        except StopIteration:
            raise EvaluationError(f"the field returned fewer than {len(points)} samples") from None
        except Exception as exc:  # surface the offending sample
            raise EvaluationError(f"field evaluation failed at ({x}, {y}): {exc}") from exc
        if not _numeric(value):
            raise EvaluationError(
                f"field sample at ({x}, {y}) is no number or array of numbers, got {value!r:.60}"
            )
        return value

    if st.kind == "first-derivative":

        def term(weight: float) -> Any:
            return weight * (sample() - sample())

        scale = h
    else:
        centre = sample()

        def term(weight: float) -> Any:
            # pairwise sums: on a constant c, c + c + (c + c) is exactly 4 c
            ring = (sample() + sample()) + (sample() + sample())
            return weight * (ring - 4.0 * centre)

        scale = h * h
    (_, w0), (_, w1) = _WEIGHTS[st.kind]
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf: reported below
        result = (term(w0) + term(w1)) / scale
    if not np.isfinite(result).all():
        raise EvaluationError(f"stencil result is not finite at ({x0}, {y0}): {result}")
    return result
