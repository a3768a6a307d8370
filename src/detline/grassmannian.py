"""Truncated Fourier-mode model of the boundary-circle Grassmannian.

Operators live on a symmetric mode window {-n_max, ..., n_max} and carry a
declared scalar action outside the window, one scalar for modes above and one
for modes below.  Because compositions and sums act entrywise on these tail
scalars, traces of window-supported differences and Fredholm determinants of
identity-plus-window operators are exact, not truncation approximations.

The module provides the spectral (APS) projections, a concrete rotated
two-parameter projection family, relative eta invariants and indices,
connection forms on the determinant line of S(P) = P * base, their curvature,
and the chart-patching identities for the transition determinants.

The chart layer works on an orthonormal basis V (d x r) of ran(base), taken
once per public call from one eigh of the base block: chart maps are the
thin d x r blocks (P + P sigma P) V, and their SVDs, stencils and traces run
on those blocks.  Transition determinants reduce to r x r blocks X* S_i V
(X an orthonormal basis of the target of the charts), so the only d x d
decomposition of a public call is that eigh.  A patching check evaluates
the family once per stencil sample for both of its routes, the transition
determinant and the two connection forms; each route keeps its own
factorisations.

Its six entry points (``connection_form``, ``tr_p_dp_dp``, ``curvature_rkw``,
``transition_det`` and the two patching checks) take t = (t1, t2) with
floats, for a complex value, or with 1-D arrays of one length, for a complex
array of values, one per point (a pair of them for the patching checks).  A
stack of k points carries a leading axis of length k through the family
values, chart maps, SVDs, QRs, solves and dets, so each runs as one batched
numpy call; a single point has no such axis and runs through the same code
on the family's own d x d blocks.  Projections are checked once per public
call: the base, and the family values at all points t as one stack, each
required to have the rank of base; an error names the first failing point.
The fixed stencils around t read the family's block function directly,
unwrapped and unchecked; a non-finite sample enters the result ``fd_apply``
refuses, and an error of the block function names the one point where it
was raised.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterator

import numpy as np

from .errors import (
    DetlineError,
    DomainError,
    EvaluationError,
    NotCommensurable,
    NotDetClass,
    NotInvertible,
    WindowOverflow,
)
from .specfun import FdStencil, _hurwitz_em, _open_unit_points, fd_apply
from .tolerances import (
    CHART_SVD_THRESHOLD,
    DEFAULT_FD_STEP,
    PROJECTION_TOL,
    RANK_SVD_THRESHOLD,
    ROUNDING_TOL,
)

__all__ = [
    "ModeWindow",
    "ModeOperator",
    "ProjectionFamily",
    "spectral_projection",
    "rotated_family",
    "fredholm_det",
    "relative_eta",
    "relative_index",
    "eta_invariant_spectral",
    "eta_finite_rank_check",
    "connection_form",
    "curvature_rkw",
    "tr_p_dp_dp",
    "patching_identity_check",
    "perturbation_patching_check",
    "transition_det",
    "RELATIVE_INDEX_SIGN",
    "RANK_SVD_THRESHOLD",
    "CHART_SVD_THRESHOLD",
    "TAIL_IDENTITY",
    "TAIL_ZERO",
    "TAIL_APS",
]

# Sign relating relative eta to the relative index, measured once on the
# pair (Pi_{>=1}, Pi_{>=0}) where eta/2 = -1 and ind(Pi_{>=0} Pi_{>=1}) = -1.
RELATIVE_INDEX_SIGN = 1

# Tail scalars (action above the window, action below the window).
TAIL_IDENTITY = (1.0 + 0j, 1.0 + 0j)
TAIL_ZERO = (0.0 + 0j, 0.0 + 0j)
TAIL_APS = (1.0 + 0j, 0.0 + 0j)

# The first-derivative stencil of the chart layer, at DEFAULT_FD_STEP.
_D1 = FdStencil(DEFAULT_FD_STEP, "first-derivative")


def _require_mode(value, what: str) -> None:
    """Raise DomainError unless value is an integer (a bool is not a mode)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise DomainError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ModeWindow:
    """Symmetric Fourier mode window {-n_max, ..., n_max}."""

    n_max: int

    def __post_init__(self) -> None:
        _require_mode(self.n_max, "n_max")
        if self.n_max < 1:
            raise DomainError(f"n_max must be >= 1, got {self.n_max}")

    @property
    def dim(self) -> int:
        return 2 * self.n_max + 1

    def modes(self) -> range:
        return range(-self.n_max, self.n_max + 1)

    def index(self, mode: int) -> int:
        _require_mode(mode, "a mode")
        if abs(mode) > self.n_max:
            raise WindowOverflow(f"mode {mode} outside window [-{self.n_max}, {self.n_max}]")
        return mode + self.n_max


@dataclass(frozen=True)
class ModeOperator:
    """A matrix on the mode window plus declared scalar tails.

    The operator acts by ``entries`` on window modes, by tail[0] on every
    mode above the window and by tail[1] on every mode below.  Sums and
    compositions act entrywise on the tails, so the block structure is exact.

    ``entries`` of shape (k, d, d) make a stack of k operators that share one
    pair of tails.  Composition, sums, scalar multiples, the adjoint and
    embedding act member by member (a single operator pairs with every
    member of a stack); ``is_projection`` holds when every member is a
    projection, and ``window_rank`` returns an int array.  Entry points that
    take one operator, such as ``trace`` and ``relative_eta``, raise
    ``DomainError`` on a stack.
    """

    window: ModeWindow
    entries: np.ndarray
    tail: tuple[complex, complex]

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=complex)
        d = self.window.dim
        if m.shape[-2:] != (d, d) or m.ndim > 3 or m.size == 0:
            raise DomainError(f"entries must be {d}x{d} or a nonempty stack of them, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise DomainError("entries must be finite")
        tail = (complex(self.tail[0]), complex(self.tail[1]))
        if not (cmath.isfinite(tail[0]) and cmath.isfinite(tail[1])):
            raise DomainError(f"tails must be finite, got {tail}")
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "tail", tail)

    @staticmethod
    def identity(window: ModeWindow) -> "ModeOperator":
        return ModeOperator(window, np.eye(window.dim, dtype=complex), TAIL_IDENTITY)

    def embed_to(self, window: ModeWindow) -> "ModeOperator":
        """Extend to a larger window, filling new diagonal modes by the tails."""
        if window.n_max < self.window.n_max:
            raise WindowOverflow("can only embed into an equal or larger window")
        if window.n_max == self.window.n_max:
            return self
        d = window.dim
        m = np.zeros(self.entries.shape[:-2] + (d, d), dtype=complex)
        above, below = self.tail
        for mode in window.modes():
            if mode > self.window.n_max:
                m[..., window.index(mode), window.index(mode)] = above
            elif mode < -self.window.n_max:
                m[..., window.index(mode), window.index(mode)] = below
        lo = window.index(-self.window.n_max)
        hi = window.index(self.window.n_max) + 1
        m[..., lo:hi, lo:hi] = self.entries
        return ModeOperator(window, m, self.tail)

    def _pair(self, other: "ModeOperator") -> tuple["ModeOperator", "ModeOperator"]:
        if self.entries.ndim == other.entries.ndim == 3 and len(self.entries) != len(other.entries):
            raise DomainError(
                f"stacks of {len(self.entries)} and {len(other.entries)} operators do not pair"
            )
        if self.window.n_max == other.window.n_max:
            return self, other
        big = self.window if self.window.n_max > other.window.n_max else other.window
        return self.embed_to(big), other.embed_to(big)

    def compose(self, other: "ModeOperator") -> "ModeOperator":
        a, b = self._pair(other)
        tail = (a.tail[0] * b.tail[0], a.tail[1] * b.tail[1])
        return ModeOperator(a.window, a.entries @ b.entries, tail)

    def __matmul__(self, other: "ModeOperator") -> "ModeOperator":
        return self.compose(other)

    def __add__(self, other: "ModeOperator") -> "ModeOperator":
        a, b = self._pair(other)
        tail = (a.tail[0] + b.tail[0], a.tail[1] + b.tail[1])
        return ModeOperator(a.window, a.entries + b.entries, tail)

    def __sub__(self, other: "ModeOperator") -> "ModeOperator":
        a, b = self._pair(other)
        tail = (a.tail[0] - b.tail[0], a.tail[1] - b.tail[1])
        return ModeOperator(a.window, a.entries - b.entries, tail)

    def __mul__(self, scalar: complex) -> "ModeOperator":
        s = complex(scalar)
        return ModeOperator(self.window, s * self.entries, (s * self.tail[0], s * self.tail[1]))

    __rmul__ = __mul__

    def adjoint(self) -> "ModeOperator":
        tail = (self.tail[0].conjugate(), self.tail[1].conjugate())
        return ModeOperator(self.window, self.entries.conj().mT, tail)

    def trace(self) -> complex:
        """Window trace; defined only when both tails vanish."""
        _require_single(self, "trace")
        if self.tail != (0j, 0j):
            raise NotCommensurable(f"trace undefined for tails {self.tail}")
        return complex(np.trace(self.entries))

    def is_projection(self) -> bool:
        """Hermitian and idempotent to PROJECTION_TOL, with real 0/1 tails; on a
        stack, every member."""
        m, tol = self.entries, PROJECTION_TOL
        hermitian = np.max(np.abs(m - m.conj().mT)) <= tol
        idem = np.max(np.abs(m @ m - m)) <= tol
        tails_ok = all(abs(t * t - t) <= tol and abs(t.imag) <= tol for t in self.tail)
        return bool(hermitian and idem and tails_ok)

    def window_rank(self) -> int | np.ndarray:
        """Number of singular values above RANK_SVD_THRESHOLD; an int array on a stack."""
        sv = np.linalg.svd(self.entries, compute_uv=False)
        ranks = np.sum(sv > RANK_SVD_THRESHOLD, axis=-1)
        return ranks if self.entries.ndim == 3 else int(ranks)


def _require_single(op: ModeOperator, what: str) -> None:
    """Raise DomainError when an entry point that takes one operator gets a stack."""
    if op.entries.ndim != 2:
        raise DomainError(f"{what} takes one operator, got a stack of {len(op.entries)}")


class ProjectionFamily:
    """A smooth two-parameter family of APS-type projections.

    Evaluating at (t1, t2) in the unit square yields a ModeOperator that is
    meant to be idempotent and Hermitian, with tail identity above the window
    and zero below, and whose difference from the value at t = 0 stays window
    supported.  A call does not check this.  ``map_fn`` takes two floats and
    returns one d x d block; each public entry point that takes a family
    calls it at each of its own points t and checks those values once, as
    one stack, and the stencils around t call it unwrapped and unchecked.
    """

    def __init__(self, window: ModeWindow, map_fn: Callable[[float, float], np.ndarray]):
        self.window = window
        self._map = map_fn

    def __call__(self, t1: float, t2: float) -> ModeOperator:
        return ModeOperator(self.window, self._map(float(t1), float(t2)), TAIL_APS)


def spectral_projection(w: ModeWindow, k: int) -> ModeOperator:
    """The spectral projection onto modes n >= k (diagonal on the window)."""
    _require_mode(k, "the cut")
    if abs(k) > w.n_max:
        raise WindowOverflow(f"cut {k} outside window [-{w.n_max}, {w.n_max}]")
    diag = np.array([1.0 if mode >= k else 0.0 for mode in w.modes()], dtype=complex)
    return ModeOperator(w, np.diag(diag), TAIL_APS)


def rotated_family(w: ModeWindow, modes: tuple[int, int]) -> ProjectionFamily:
    """Rotation family P(t) = U(t) Pi_{>=0} U(t)* mixing one negative and one
    non-negative mode.

    U(t) rotates span{e_m1, e_m2} by the angle pi t1 / 2 with relative phase
    exp(2 pi i t2) and fixes every other mode, so P(0, t2) = Pi_{>=0} and the
    difference P(t) - Pi_{>=0} is supported in the 2x2 block on (m1, m2).
    That block is the projection onto U e_m2 = (-conj(phase) sin, cos),
    written in closed form into a copy of Pi_{>=0}.
    """
    try:
        m1, m2 = modes
    except (TypeError, ValueError) as exc:
        raise DomainError(f"modes must be a pair (m1, m2), got {modes!r}") from exc
    i, j = w.index(m1), w.index(m2)
    if not (m1 < 0 <= m2):
        raise DomainError(f"need m1 < 0 <= m2, got ({m1}, {m2})")
    base = spectral_projection(w, 0).entries

    def value(t1: float, t2: float) -> np.ndarray:
        theta = np.pi * t1 / 2.0
        phase = np.exp(2j * np.pi * t2)
        sin, cos = np.sin(theta), np.cos(theta)
        p = base.copy()
        p[i, i] = sin * sin
        p[j, j] = cos * cos
        p[i, j] = -np.conj(phase) * sin * cos
        p[j, i] = -phase * sin * cos
        return p

    return ProjectionFamily(w, value)


def require_det_class(t_op: ModeOperator) -> None:
    """Raise NotDetClass unless both tails are the identity (within ROUNDING_TOL)."""
    if max(abs(t_op.tail[0] - 1.0), abs(t_op.tail[1] - 1.0)) > ROUNDING_TOL:
        raise NotDetClass(f"tails must be identity for det_F, got {t_op.tail}")


def fredholm_det(t_op: ModeOperator) -> complex | np.ndarray:
    """Fredholm determinant of an identity-plus-window operator.

    The tails contribute factors of one, so the determinant of the window
    block equals the determinant of the untruncated operator whenever the
    perturbation is supported in the window.  A stack gives a complex array,
    one determinant per member, from one LAPACK pass.
    """
    require_det_class(t_op)
    det = np.linalg.det(t_op.entries)
    return det if t_op.entries.ndim == 3 else complex(det)


def _check_commensurable(p: ModeOperator, q: ModeOperator) -> tuple[ModeOperator, ModeOperator]:
    _require_single(p, "a relative invariant")
    _require_single(q, "a relative invariant")
    a, b = p._pair(q)
    if max(abs(a.tail[0] - b.tail[0]), abs(a.tail[1] - b.tail[1])) > ROUNDING_TOL:
        raise NotCommensurable(f"tails differ: {a.tail} vs {b.tail}")
    return a, b


def relative_eta(p: ModeOperator, q: ModeOperator) -> float:
    """Relative eta invariant 2 Tr(P - Q) of commensurable projections.

    Equals Tr((P - P_perp) - (Q - Q_perp)), which needs no regularization
    because the difference is window supported.
    """
    a, b = _check_commensurable(p, q)
    if not (a.is_projection() and b.is_projection()):
        raise DomainError("relative eta needs idempotent Hermitian operators")
    value = 2.0 * (a - b).trace()
    if abs(value.imag) > PROJECTION_TOL:
        raise DomainError(f"relative eta should be real, got {value}")
    return float(value.real)


def relative_index(p: ModeOperator, q: ModeOperator) -> int:
    """Index of Q P : ran P -> ran Q computed from window ranks.

    dim ker = rank P - rank(Q P) and dim coker = rank Q - rank(Q P), so the
    index is rank P - rank Q, window ranks decided by RANK_SVD_THRESHOLD.
    relative_eta(P, Q) / 2 = RELATIVE_INDEX_SIGN * relative_index.
    """
    a, b = _check_commensurable(p, q)
    if not (a.is_projection() and b.is_projection()):
        raise DomainError("relative index needs idempotent Hermitian operators")
    return a.window_rank() - b.window_rank()


def eta_invariant_spectral(a: float | np.ndarray) -> float | np.ndarray:
    """Regularized eta invariant of d with eigenvalues {n + a : n in Z}.

    The positive part sums to zeta_H(s, a), the negative part to
    zeta_H(s, 1-a); at s = 0 the difference is 1 - 2a.  Takes a float or an
    array of offsets and returns a float or an array of the same shape, from
    one Euler-Maclaurin pass over the shifts a and 1 - a; an offset outside
    (0, 1), NaN included, or one that is no real number raises DomainError.
    """
    offsets = _open_unit_points(a, "offset a")
    flat = offsets.reshape(-1)
    zeta = _hurwitz_em(0.0, np.concatenate([flat, 1.0 - flat]))
    eta = (zeta[: flat.size] - zeta[flat.size :]).real
    return float(eta[0]) if np.ndim(a) == 0 else eta.reshape(offsets.shape)


def _eta_flipped(base: float, flip_mode: int) -> float:
    """Regularized eta after shifting the eigenvalue at n = flip_mode by -1,
    from the unflipped eta ``base``.

    Expressed through the unflipped Hurwitz sums plus the two swapped
    power terms, each continued to s = 0 where x^(-s) contributes 1.
    """
    if flip_mode == 0:
        # a leaves the positive family, 1 - a joins the negative family
        return base - 1.0 - 1.0
    # both old and new eigenvalue keep their sign; the swapped terms cancel
    return base


def eta_finite_rank_check(a: float, flip_mode: int, window: ModeWindow) -> tuple[float, float]:
    """Compare projection and spectral sides of the relative eta invariant.

    The operator d has eigenvalue n + a on mode n; d' shifts the eigenvalue
    at n = flip_mode by -1 (a sign flip exactly when flip_mode = 0).  The
    left side is the relative eta of the two positive spectral projections,
    the right side the difference of regularized eta invariants.
    """
    if not isinstance(a, numbers.Real) or isinstance(a, bool) or not 0.0 < a < 1.0:
        raise DomainError(f"offset a must be a real number in (0, 1), got {a!r}")
    _require_mode(flip_mode, "a flip mode")
    if abs(flip_mode) > window.n_max:
        raise WindowOverflow(f"flip mode {flip_mode} outside the window")
    pi_d = spectral_projection(window, 0)
    diag = pi_d.entries.copy()
    eigenvalue_after = flip_mode - 1 + a
    diag[window.index(flip_mode), window.index(flip_mode)] = 1.0 if eigenvalue_after > 0 else 0.0
    pi_d_flipped = ModeOperator(window, diag, TAIL_APS)
    lhs = relative_eta(pi_d, pi_d_flipped)
    eta = eta_invariant_spectral(a)
    rhs = eta - _eta_flipped(eta, flip_mode)
    return lhs, rhs


# Parameter points of the chart layer: a pair of floats, or a pair of 1-D
# arrays of one length for a stack of points (see the module docstring).
Points = tuple[float, float] | tuple[np.ndarray, np.ndarray]


def _points(t) -> Points:
    """t as two floats for a point, or as two nonempty 1-D float arrays of one
    length for a stack of points."""
    try:
        t1, t2 = (np.asarray(c, dtype=float) for c in t)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"t must be a pair (t1, t2) of floats or 1-D arrays, got {t!r}") from exc
    if t1.shape != t2.shape or t1.ndim > 1 or t1.size == 0:
        raise DomainError(
            f"t1 and t2 must be floats or 1-D arrays of one nonzero length, "
            f"got shapes {t1.shape} and {t2.shape}"
        )
    if t1.ndim == 0:
        t1, t2 = float(t1), float(t2)
        finite = math.isfinite(t1) and math.isfinite(t2)
    else:
        finite = np.isfinite(t1).all() and np.isfinite(t2).all()
    if not finite:
        raise DomainError(f"t must be finite, got {t!r}")
    return t1, t2


def _result(values) -> complex | np.ndarray:
    """A complex for one point, the array of values for a stack of points."""
    return values if isinstance(values, np.ndarray) and values.ndim else complex(values)


def _point(t: Points, i: int) -> tuple[float, float]:
    """The i-th point of t (i = 0 for one point) as a pair of floats."""
    return float(np.ravel(t[0])[i]), float(np.ravel(t[1])[i])


def _require_chart(sv: np.ndarray, rank: int, t: Points) -> None:
    """Raise NotInvertible unless, at every point of t, the leading ``rank`` of
    the descending singular values ``sv[..., :]`` of its chart map clear
    CHART_SVD_THRESHOLD; the error names the first failing point."""
    if rank == 0 or rank > sv.shape[-1]:
        raise NotInvertible(f"restriction rank {rank} is out of range")
    smallest = sv[..., rank - 1]
    low = smallest < CHART_SVD_THRESHOLD
    if low.any():
        i = int(np.argmax(low))
        raise NotInvertible(
            f"chart is singular at t = {_point(t, i)} (sv = {np.ravel(smallest)[i]:.3e})"
        )


def _chart_ratio(a1: np.ndarray, a2: np.ndarray, t: Points) -> complex | np.ndarray:
    """det_F((S_1 V V* + I - q)(S_2 V V* + I - q)^{-1}) from the r x r blocks
    A_i = X* S_i V, as det(A_1 A_2^{-1}) at each point; both blocks pass
    _require_chart.

    The callers pick X so that the identity-extended representatives are
    block lower triangular and differ only in the block A_i; the other
    blocks then cancel from the product.
    - q = V V* (patching_identity_check), X = V: in the basis [V, W] of
      ran(base) + ker(base) the representative has the blocks V* S_i V and
      W* S_i V on ran(base), and the identity on ker(base).  For S_i V = P_i V
      the singular values of V* P_i V are the squares of those of P_i V.
    - q = P (transition_det), X = Q with Q R a thin QR of S_2 V: when rank
      P = r, ran(Q) = ran(P) contains ran(S_1 V), and from ran(base) +
      ker(base) to ran(P) + ker(P) the representative has the blocks
      Q* S_i V on ran(base) to ran(P), (I - P) on ran(base) to ker(P) and
      (I - P) on ker(base).  A_1 = Q* S_1 V and A_2 = R carry the singular
      values of S_1 V and S_2 V.
    The quotient det(A_1) / det(A_2) would be cheaper, but then the three
    quotients of g_12 g_23 g_31 telescope and the cocycle case holds by
    construction for any determinant; through the product, formed by an
    r x r solve, it rests on the multiplicativity of det.
    """
    for a in (a1, a2):
        _require_chart(np.linalg.svd(a, compute_uv=False), a.shape[-1], t)
    return _result(np.linalg.det(np.linalg.solve(a2.mT, a1.mT).mT))


def _direction_axis(direction) -> int:
    """0 for "t1" or the integer 0, 1 for "t2" or 1; a bool or a float is no direction."""
    if isinstance(direction, str) and direction in ("t1", "t2"):
        return ("t1", "t2").index(direction)
    integer = isinstance(direction, numbers.Integral) and not isinstance(direction, bool)
    if integer and direction in (0, 1):
        return int(direction)
    raise DomainError(f"direction must be 't1', 't2', 0 or 1, got {direction!r}")


def _chart_base(w: ModeWindow, base: ModeOperator) -> np.ndarray:
    """Orthonormal basis V (d x r) of ran(base) on the window, once per public call.

    V holds the eigenvectors of the base block with eigenvalue above 1/2.  The
    base is checked to be a projection to PROJECTION_TOL, so its eigenvalues
    lie that close to 0 or 1 and this is the rank decision of window_rank.
    The boolean index copies the columns, so the d x d factor is freed
    before the chart work starts.
    """
    _require_single(base, "a chart's base")
    if not base.is_projection():
        raise DomainError("base must be a projection")
    eigenvalues, vectors = np.linalg.eigh(base.embed_to(w).entries)
    return vectors[:, eigenvalues > 0.5]


def _family_blocks(
    fam: ProjectionFamily, t1: float | np.ndarray, t2: float | np.ndarray
) -> np.ndarray:
    """The family's block function, unwrapped and unchecked, at each point of
    1-D arrays t1, t2 as a (k, d, d) stack, or at one point (floats t1, t2)
    as its d x d block itself."""
    if isinstance(t1, np.ndarray):
        return np.array([_block(fam, a, b) for a, b in zip(t1.tolist(), t2.tolist())])
    return _block(fam, t1, t2)


def _block(fam: ProjectionFamily, t1: float, t2: float) -> np.ndarray:
    """The family's block at one point; a block function returning a stack is
    refused, and any error of the block function other than a DetlineError
    becomes an EvaluationError naming this point alone."""
    try:
        block = np.asarray(fam._map(t1, t2))
    except DetlineError:
        raise
    except Exception as exc:  # name the member of a stack that failed
        raise EvaluationError(f"family evaluation failed at ({t1}, {t2}): {exc}") from exc
    if block.ndim == 3:
        raise DomainError(f"a family value takes one operator, got a stack of {len(block)}")
    return block


def _projections_at(fam: ProjectionFamily, t: Points, v: np.ndarray | None = None) -> np.ndarray:
    """Window blocks of fam at the points t (see _family_blocks), checked once
    per public call to be projections and, given a basis V of ran(base), to
    have the rank of base, without which no chart map is invertible (the rank
    is constant near each point).  An error names the first failing point."""
    op = ModeOperator(fam.window, _family_blocks(fam, *t), TAIL_APS)
    if not op.is_projection():
        members = op.entries.reshape(-1, *op.entries.shape[-2:])
        bad = [not ModeOperator(fam.window, m, TAIL_APS).is_projection() for m in members]
        raise DomainError(f"family value at {_point(t, bad.index(True))} is not a projection")
    if v is not None:
        rank_p = np.trace(op.entries, axis1=-2, axis2=-1).real
        off = np.rint(rank_p) != v.shape[1]
        if off.any():
            i = int(np.argmax(off))
            raise NotInvertible(
                f"chart is singular at t = {_point(t, i)} "
                f"(rank P = {np.ravel(rank_p)[i]:.0f} != rank base)"
            )
    return op.entries


def _chart_sigma(w: ModeWindow, perturbation: ModeOperator | None) -> np.ndarray | None:
    """Window block of a chart perturbation (None for the identity chart)."""
    if perturbation is None:
        return None
    _require_single(perturbation, "a chart perturbation")
    sig = perturbation.embed_to(w)
    if max(abs(sig.tail[0]), abs(sig.tail[1])) > ROUNDING_TOL:
        raise NotDetClass("chart perturbations must be window supported (zero tails)")
    return sig.entries


def _chart_maps(p: np.ndarray, v: np.ndarray, *sigs: np.ndarray | None) -> list[np.ndarray]:
    """Thin blocks (P + P sigma P) V of the chart maps on ran(base), one per
    chart sigma (PV for the identity chart, sigma = None), at each point of
    the family values P; PV is formed once for all of them."""
    pv = p @ v
    return [pv if sig is None else pv + p @ (sig @ pv) for sig in sigs]


def _chart_derivative(d_member: np.ndarray, v: np.ndarray, sig: np.ndarray | None) -> np.ndarray:
    """d(SV) from the stencil of the chart's member: the chart map SV, or in
    the identity chart the family value P, whose stencil gives (dP) V by one
    product."""
    return d_member @ v if sig is None else d_member


def _each(field: Callable[..., Any]) -> Callable[[np.ndarray, np.ndarray], Iterator[Any]]:
    """field(t1, t2) as an fd_apply field evaluated one stencil sample at a
    time: t1, t2 are Python floats for one point and 1-D arrays for a stack.
    A field over the stacked samples would hold all of them at once: one
    curvature_rkw at n_max = 100 peaked at 25.6 MB that way, and at 3.6 MB
    one sample at a time."""

    def lazy(t1: np.ndarray, t2: np.ndarray) -> Iterator[Any]:
        return map(field, t1.tolist(), t2.tolist()) if t1.ndim == 1 else map(field, t1, t2)

    return lazy


def _chart_stencil(
    fam: ProjectionFamily, v: np.ndarray, sig: np.ndarray | None, t: Points, axis: int
) -> np.ndarray:
    """d(SV) along axis at t for one chart, from its own stencil over the
    family's blocks."""

    def member(t1, t2) -> np.ndarray:
        p = _family_blocks(fam, t1, t2)
        return p if sig is None else _chart_maps(p, v, sig)[0]

    return _chart_derivative(fd_apply(_each(member), t, _D1, axis), v, sig)


def connection_form(
    fam: ProjectionFamily,
    base: ModeOperator,
    t: Points,
    direction="t1",
    perturbation: ModeOperator | None = None,
) -> complex | np.ndarray:
    """Connection 1-form component Tr(S^{-1} P (dS) base) over ran(base).

    S is the Fredholm family (P + P sigma P) base : ran(base) -> ran(P) of the
    chart labelled by the window-supported perturbation sigma (identity chart
    for sigma = None).  The ambient connection is the flat derivative in the
    fixed mode basis, realised entrywise by the stencil; the compression
    P (dS) base is the induced hom-bundle derivative, and the trace over
    ran(base) is computed with the pseudo-inverse standing in for the
    inverse of the restricted map.  t = (t1, t2) holds floats, or 1-D arrays
    of one length for a complex array of values, one per point.
    """
    axis = _direction_axis(direction)
    pts = _points(t)
    v = _chart_base(fam.window, base)
    sig = _chart_sigma(fam.window, perturbation)
    return _omega(fam, v, sig, axis, pts, _projections_at(fam, pts, v))


def _omega(
    fam: ProjectionFamily,
    v: np.ndarray,
    sig: np.ndarray | None,
    axis: int,
    t: Points,
    p: np.ndarray,
) -> complex | np.ndarray:
    """connection_form along axis at the points t from the family values p
    there: the chart map SV, with d(SV) from the chart's own stencil."""
    (s_v,) = _chart_maps(p, v, sig)
    return _connection_form(s_v, partial(_chart_stencil, fam, v, sig, t, axis), p, t)


def _connection_form(
    s_v: np.ndarray, ds: Callable[[], np.ndarray], p: np.ndarray, t: Points
) -> complex | np.ndarray:
    """connection_form from the chart map SV at the family values p = P(t) and
    its stencil derivative d(SV) = ds(), V a basis of ran(base).

    With base = V V*, Tr(S^+ P dS base) equals Tr((SV)^+ P d(SV)) on the thin
    block SV, whose singular values are the nonzero ones of S: one thin SVD
    serves both the chart guard and the pseudo-inverse (with pinv's relative
    cut-off).  The chart guard runs before ds is called, so a chart singular
    at t raises NotInvertible before any stencil sample is taken.  The caller
    takes SV and d(SV) from its own evaluation of the family, which a
    patching check shares with its transition determinant.
    """
    u, sv, vh = np.linalg.svd(s_v, full_matrices=False)
    _require_chart(sv, s_v.shape[-1], t)
    d_sv = ds()
    kept = sv > RANK_SVD_THRESHOLD * sv[..., :1]
    s_pinv = (vh.conj().mT / np.where(kept, sv, np.inf)[..., None, :]) @ u.conj().mT
    return _result(np.trace(s_pinv @ p @ d_sv, axis1=-2, axis2=-1))


def tr_p_dp_dp(fam: ProjectionFamily, t: Points) -> complex | np.ndarray:
    """Curvature density Tr(P [d1 P, d2 P]) of the family, by stencil derivatives,
    at a point or at each point of equal-length arrays t1, t2."""
    pts = _points(t)
    p = _projections_at(fam, pts)
    blocks = _each(partial(_family_blocks, fam))
    d1, d2 = fd_apply(blocks, pts, _D1, 0), fd_apply(blocks, pts, _D1, 1)
    return _result(np.trace(p @ (d1 @ d2 - d2 @ d1), axis1=-2, axis2=-1))


def curvature_rkw(
    fam: ProjectionFamily,
    base: ModeOperator,
    t: Points,
    perturbation: ModeOperator | None = None,
) -> complex | np.ndarray:
    """Curvature two-form d omega = d1 omega_2 - d2 omega_1 at a parameter point,
    or at each point of equal-length arrays t1, t2.

    Each derivative is the stencil of connection_form's own values at the
    samples around t, which take their d(SV) from a stencil at the same step
    DEFAULT_FD_STEP.  The outer stencil divides the rounding of the inner
    one, eps / h, by h once more, so a finer inner step would lose digits.
    """
    pts = _points(t)
    v = _chart_base(fam.window, base)
    sig = _chart_sigma(fam.window, perturbation)
    _projections_at(fam, pts, v)  # the stencil points around t are not checked

    def omega(axis: int) -> Callable[..., Iterator[complex | np.ndarray]]:
        def at(t1, t2) -> complex | np.ndarray:
            return _omega(fam, v, sig, axis, (t1, t2), _family_blocks(fam, t1, t2))

        return _each(at)

    return _result(fd_apply(omega(1), pts, _D1, 0) - fd_apply(omega(0), pts, _D1, 1))


def transition_det(
    fam: ProjectionFamily,
    base: ModeOperator,
    t: Points,
    sigma1: ModeOperator | None,
    sigma2: ModeOperator | None,
) -> complex | np.ndarray:
    """Transition function between two perturbation charts of one family, at a
    point or at each point of equal-length arrays t1, t2.

    Both charts trivialize the determinant line of S(P) over the locus where
    their perturbed Fredholm families are invertible; the transition function
    is the Fredholm determinant of S_1 S_2^{-1} on ran(P), computed through
    the identity-extended representatives S_i + (I - P).
    """
    pts = _points(t)
    w = fam.window
    v = _chart_base(w, base)
    sig1, sig2 = _chart_sigma(w, sigma1), _chart_sigma(w, sigma2)
    p = _projections_at(fam, pts, v)
    return _result(_transition_det(*_chart_maps(p, v, sig1, sig2), pts))


def _transition_det(s1_v: np.ndarray, s2_v: np.ndarray, t: Points) -> complex | np.ndarray:
    """det_F((S_1 + I - P)(S_2 + I - P)^{-1}) on the r x r blocks Q* S_i V from
    the chart maps S_i V, for family values P of the rank of base."""
    q, r = np.linalg.qr(s2_v)
    return _chart_ratio(q.conj().mT @ s1_v, r, t)


def perturbation_patching_check(
    fam: ProjectionFamily,
    base: ModeOperator,
    sigma1: ModeOperator | None,
    sigma2: ModeOperator | None,
    t: Points,
    direction="t1",
) -> tuple[complex, complex] | tuple[np.ndarray, np.ndarray]:
    """Patching identity between two perturbation charts of one family.

    Returns (lhs, rhs) with lhs the logarithmic derivative of the transition
    determinant and rhs the difference of the chart connection forms; the two
    agree up to finite-difference error.  For equal-length arrays t1, t2 both
    are complex arrays, one value per point.

    One stencil pass evaluates the family and PV once per sample and forms
    both chart maps, the transition determinant g and both charts' stencil
    members from them; the lhs is the stencil of g over g(t), and each
    connection form takes its d(SV) from that pass.  Each route keeps its
    own factorisations: the connection forms their SVDs, g its QR, guards,
    solve and det.
    """
    axis = _direction_axis(direction)
    pts = _points(t)
    w = fam.window
    v = _chart_base(w, base)
    sigs = (_chart_sigma(w, sigma1), _chart_sigma(w, sigma2))
    p = _projections_at(fam, pts, v)

    def sample(t1, t2) -> tuple:
        p_at = _family_blocks(fam, t1, t2)
        maps = _chart_maps(p_at, v, *sigs)
        members = (p_at if sig is None else m for m, sig in zip(maps, sigs))
        return (_transition_det(*maps, (t1, t2)), *members)

    dg, *d_members = fd_apply(_each(sample), pts, _D1, axis)
    maps = _chart_maps(p, v, *sigs)
    lhs = dg / _transition_det(*maps, pts)
    omega1, omega2 = (
        _connection_form(m, partial(_chart_derivative, dm, v, sig), p, pts)
        for m, dm, sig in zip(maps, d_members, sigs)
    )
    return _result(lhs), _result(omega1 - omega2)


def patching_identity_check(
    fam1: ProjectionFamily,
    fam2: ProjectionFamily,
    base: ModeOperator,
    t: Points,
    direction="t1",
) -> tuple[complex, complex] | tuple[np.ndarray, np.ndarray]:
    """Patching identity between the identity charts of two projection families.

    The transition function is the determinant-line ratio of the identity
    extensions S_i + (I - base); it patches the two trivializations whenever
    the families are charts of one line bundle (for instance conjugate by a
    constant unitary commuting with base).  Returns (lhs, rhs) with lhs the
    logarithmic derivative of that ratio and rhs = omega_1 - omega_2; for
    equal-length arrays t1, t2 both are complex arrays, one value per point.
    As in perturbation_patching_check, one stencil pass evaluates both
    families once per sample for the ratio and both connection forms.
    """
    axis = _direction_axis(direction)
    pts = _points(t)
    if fam1.window.n_max != fam2.window.n_max:
        raise NotCommensurable("families must share one mode window")
    v = _chart_base(fam1.window, base)
    vh = v.conj().T
    p1, p2 = _projections_at(fam1, pts, v), _projections_at(fam2, pts, v)

    def ratio(p1_v: np.ndarray, p2_v: np.ndarray, at: Points) -> complex | np.ndarray:
        return _chart_ratio(vh @ p1_v, vh @ p2_v, at)

    def sample(t1, t2) -> tuple:
        pa, pb = _family_blocks(fam1, t1, t2), _family_blocks(fam2, t1, t2)
        return ratio(pa @ v, pb @ v, (t1, t2)), pa, pb

    d_ratio, dp1, dp2 = fd_apply(_each(sample), pts, _D1, axis)
    p1_v, p2_v = p1 @ v, p2 @ v
    lhs = d_ratio / ratio(p1_v, p2_v, pts)
    omega1 = _connection_form(p1_v, partial(np.matmul, dp1, v), p1, pts)
    rhs = omega1 - _connection_form(p2_v, partial(np.matmul, dp2, v), p2, pts)
    return _result(lhs), _result(rhs)
