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
once per public call.  A coordinate base, such as a spectral cut
Pi_{>=k}, has V = I[:, cols], so every product with V is a gather of
columns or rows; any other base takes V from one eigh of its block.  Chart
maps are the thin d x r blocks (P + P sigma P) V, and the chart layer
solves against the r x r blocks Y S V of Y = V* P = (P V)*, the rows
``cols`` of P on a coordinate base and one product on any other.  Y = Y P,
and ran(SV) = ran(P) when SV has rank r = rank P, so a connection form's
(SV)^+ P is (Y SV)^{-1} Y, and a transition determinant, which does not
depend on the basis of ran(P) its blocks are taken in, is
det((Y S_1 V)(Y S_2 V)^{-1}).  A public call makes no QR, no d x d
decomposition on a coordinate base and one, that eigh, on any other.  A
connection form inverts its r x r block; a transition ratio inverts its two
r x r blocks in one stacked call.  The chart guard (smallest singular value
at least CHART_SVD_THRESHOLD) and the pseudo-inverse's cut-off are the SVD
rule's on the chart maps SV.  Since |Y|_2 <= 1, s_min(SV) >= s_min(Y SV),
so the norms of SV and of the inverse certify both where they can; a call
with any point the bound leaves open runs that rule itself on the chart
maps, by an SVD, so every decision and message is the rule's.

Every connection form is read from one chart object (_Chart), built from
the checked family values P at t (on the dense path of curvature_rkw, from
the family's block at each outer stencil sample): it holds the chart's
certified inverse, or pinv(SV) P where the SVD rule decides, and for a
declared family the pieces on the support J.  connection_form,
curvature_rkw on either path and both patching checks' connection forms,
on either path, take the same chart and, for a declared family, the one
declared formula (_Chart.member), so a patching check's right-hand side
is the difference of the two public connection forms to the last bit.  A
patching check's transition ratio takes its own stencil of the family, and
the connection forms of a family that declares no derivatives each take
theirs, so every route keeps its own samples.  A one-point check reads the
block function 5 times (perturbation_patching_check) or 10
(patching_identity_check) for declared families, and 13 or 18 for families
that declare nothing.

A family may declare the rows and columns S it moves, a closed form of its
S x S block and the t-derivatives D' of that block (rotated_family does;
see ProjectionFamily), its value being a fixed block off S x S.  Every
chart entry point then reads d P = I_S D' I_S* from the declaration: a
connection form takes one exact derivative where a stencil took four
samples (_Chart.member), tr_p_dp_dp is Tr(P_SS [D'_1, D'_2]) at any rank,
and a patching check's connection forms read D' at t.  What keeps a
stencil is the outer derivative of curvature_rkw and each patching check's
transition ratio, so every check of the chart layer sets a stencil route
against a declared one; a family that declares nothing takes every
derivative from stencils.

Stencil samples are low-rank updates of the chart at t where that is
cheaper.  curvature_rkw and perturbation_patching_check take J = S and
read each stencil sample's P_s[J, J] from the declared block, one stack
per sample, with no d x d sample.  Every sample's Y_s, S_s V and
A_s = Y_s S_s V is an update of the chart at t of rank at most |J| per
term, formed from V_J = V[J, :] and gathers of the chart at t (_Chart): an
outer curvature_rkw sample inverts A_s = A + U W by Woodbury from the
certified inverse at t, once the norm bound s_min(A_s) >= 1 / |A^{-1}|_F -
sum |U_b|_F |W_b|_F clears the certificate's floor, and traces A_s^{-1}
against the declared member Y_s d(S_s V), an r x r block formed from D'
and the move there, with no r x d block; perturbation_patching_check takes
one move D per sample for both of its charts and differentiates g(s) / g(t)
= det(I + W_1 A_1^{-1} U_1) / det(I + W_2 A_2^{-1} U_2), with the same
bound on each sample's chart guard, and its forms are the charts' own
connection forms at t.  A sample then costs its declared block and O(r |J|
(r + |J|)).  A non-finite entry of that block, or a block that is no
(k, |S|, |S|) stack, is refused where it is read (_declared), and the
dense path then decides the call.  On the update path both routes of a
patching check, the ratio and the connection forms, read each chart's one
certified inverse at t.  numpy inverts each member of a stack on its own,
so these are the numbers a second, stacked inversion of the two blocks
returns, and that inversion's certificate, whose floor 2
CHART_SVD_THRESHOLD is never above a chart's, settles wherever the
charts' do.  On the dense path the ratio takes its own stacked inverse and
det, and each connection form its chart's inverse.

Each call takes one path for all of its values, decided from the
declaration before any sample is taken.  The update path runs from the
rank _LOW_RANK_CROSSOVER on, for a family that declares a support of at
most two rows, and only to its end: where a norm bound leaves a chart at
t or a sample open, a sample raises or a stencil is not finite, it raises
a DetlineError and the whole call runs the dense path, which forms every
sample's chart algebra and decides every value, chart guard and message.
Below the crossover, on every window of verify all, and for a family that
declares nothing, such as every ProjectionFamily(window, map_fn), the
dense path runs from the start.  connection_form, which takes no sample
of a declared family, and patching_identity_check, which no workload runs
above the crossover, always take the dense path.

Its six entry points (``connection_form``, ``tr_p_dp_dp``, ``curvature_rkw``,
``transition_det`` and the two patching checks) take t = (t1, t2) with real
scalars, for a complex value, or with 1-D arrays of one length, for a
complex array of values, one per point (a pair of them for the patching
checks).  Every call runs on a stack: t becomes two 1-D float arrays, and
a leading axis of length k, 1 for a scalar point, runs through the family
values, chart maps, r x r blocks, inverses and dets, so each is one
batched numpy call; only the public return makes a scalar point's value a
complex.  A one-point stack of family values is a view of the family's
block, not a copy.  A chart's dense stencil member is the chart map, SV
(PV in the identity chart, a gather on a coordinate base), an array the
stencil owns, so fd_apply's sums reuse its buffers; a member whose sample
has a non-finite entry is NaN throughout, where a gather dropped that
entry too (_nan_unless_finite; a patching check's ratio samples follow the
same rule).  A declared block or derivative that is no finite (k, |S|, |S|)
stack is refused, naming a point (_declared).  Projections are checked
once per public call: the base, and the family values at all points t as
one stack, each required to have the rank of base; an error names the
first failing point.  is_projection
forms its products on the rows and columns a value moves alone, so a
coordinate base leaves its tails to check and a rotated_family value its
2 x 2 block.
The fixed stencils around t read the family's block function directly, or on
the update path its declared block, unwrapped and not checked to be
projections; a value that is no d x d block of numbers is refused with
DomainError naming its point, a non-finite sample enters the result
``fd_apply`` refuses, and an error of the block function names the one point
where it was raised.
"""

from __future__ import annotations

import cmath
import numbers
from dataclasses import dataclass
from functools import cached_property, partial
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
    _array,
    _number,
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


@dataclass(frozen=True)
class ModeWindow:
    """Symmetric Fourier mode window {-n_max, ..., n_max}."""

    n_max: int

    def __post_init__(self) -> None:
        if _number(self.n_max, numbers.Integral, "n_max must be an integer") < 1:
            raise DomainError(f"n_max must be >= 1, got {self.n_max}")

    @property
    def dim(self) -> int:
        return 2 * self.n_max + 1

    def modes(self) -> range:
        return range(-self.n_max, self.n_max + 1)

    def index(self, mode: int) -> int:
        if abs(_number(mode, numbers.Integral, "a mode must be an integer")) > self.n_max:
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
    ``DomainError`` on a stack.  Entries that are not numbers, and tails
    that are not a pair of numbers, by ``errors._array`` (entries may be
    bools, read as 0 and 1; tails may not), raise ``DomainError``, as does
    a scalar multiple that is no finite number by ``errors._number``.
    """

    window: ModeWindow
    entries: np.ndarray
    tail: tuple[complex, complex]

    def __post_init__(self) -> None:
        m = np.asarray(_array(self.entries, "biufc", "entries must be numbers"), dtype=complex)
        tail = _array(self.tail, "iufc", "tails must be a pair of numbers")
        if tail.shape != (2,):
            raise DomainError(f"tails must be a pair of numbers, got {self.tail!r}")
        d = self.window.dim
        if m.shape[-2:] != (d, d) or m.ndim > 3 or m.size == 0:
            raise DomainError(f"entries must be {d}x{d} or a nonempty stack of them, got {m.shape}")
        if not np.isfinite(m).all():
            raise DomainError("entries must be finite")
        tail = (complex(tail[0]), complex(tail[1]))
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
        s = complex(_number(scalar, numbers.Complex, "a scalar multiple must be a number"))
        if not cmath.isfinite(s):
            raise DomainError(f"a scalar multiple must be finite, got {scalar!r}")
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
        stack, every member.

        Both are checked on the principal block of the moved rows alone
        (``_moved_rows``; on a stack, those of any member): i is moved
        unless row i and column i hold no nonzero entry off the diagonal and
        m[i, i] is exactly 0 or 1.  The reduction is exact.  In row and
        column i of an index that is not moved, every term of M - M^H and of
        M M - M is an exact 0 or 1 times a finite entry (a ModeOperator
        refuses any other), so those rows and columns are exactly 0 and both
        maxima lie in the moved block.  A block moves no row exactly when it
        is a coordinate block (``_coordinate_ones``), which leaves the tail
        rule alone; a dense block moves every index and takes the full
        product.  One pass over the entries decides both.
        """
        m, tol = self.entries, PROJECTION_TOL
        j = _moved_rows(m)
        if j.size:
            m = m[..., j[:, None], j]
            hermitian = np.max(np.abs(m - m.conj().mT), initial=0.0) <= tol
            if not (hermitian and np.max(np.abs(m @ m - m), initial=0.0) <= tol):
                return False
        return all(abs(t * t - t) <= tol and abs(t.imag) <= tol for t in self.tail)

    def window_rank(self) -> int | np.ndarray:
        """Number of singular values above RANK_SVD_THRESHOLD; an int array on a stack.

        The singular values of a coordinate block (``_coordinate_ones``) are
        its 0/1 diagonal, so its rank is the count of ones, taken without an
        SVD; any other block, or a stack with any member that is not one,
        takes the SVD.
        """
        ones = _coordinate_ones(self.entries)
        if ones is None:
            sv = np.linalg.svd(self.entries, compute_uv=False)
            ranks = np.sum(sv > RANK_SVD_THRESHOLD, axis=-1)
        else:
            ranks = np.count_nonzero(ones, axis=-1)
        return ranks if self.entries.ndim == 3 else int(ranks)


def _coordinate_ones(m: np.ndarray) -> np.ndarray | None:
    """The ones of the diagonal of m as a boolean mask when m, a d x d block or
    a stack of them, is a coordinate projection member by member, else None.

    A coordinate block has no nonzero entry off the diagonal and every
    diagonal entry exactly 0 or 1, such as the spectral cuts Pi_{>=k}: it is
    exactly Hermitian and idempotent, its singular values and eigenvalues
    are its diagonal, and I[:, ones] is an orthonormal basis of its range.
    The test is exact, so a block that differs from one by any rounding
    is no coordinate block.  Its nonzero real and imaginary parts include
    the real parts of the ones, so it has no other nonzero entry exactly
    when the two counts agree (counted on the float view of m, which is
    faster than on the complex entries).
    """
    ones = np.diagonal(m, axis1=-2, axis2=-1) == 1
    parts = np.ascontiguousarray(m).view(float) != 0
    return ones if np.count_nonzero(parts) == np.count_nonzero(ones) else None


def _moved_rows(m: np.ndarray) -> np.ndarray:
    """The sorted indices of the rows and columns that m, a d x d block or a
    stack of them, moves in any member: i is moved unless row i and column i
    hold no nonzero entry off the diagonal and m[i, i] is exactly 0 or 1
    (see is_projection).  None is moved exactly when m is a coordinate
    block, which takes one pass over the entries."""
    d = m.shape[-1]
    off = np.ascontiguousarray(m).view(float) != 0
    ones = np.diagonal(m, axis1=-2, axis2=-1) == 1
    if np.count_nonzero(off) == np.count_nonzero(ones):  # the test of _coordinate_ones
        return np.arange(0)
    # the nonzero real and imaginary parts less the real parts of the ones;
    # the real part of m[i, i] is flat entry i (2 d + 2) of a member
    off.reshape(off.shape[:-2] + (-1,))[..., :: 2 * d + 2] ^= ones
    cols = off.any(axis=-2).reshape(ones.shape + (2,)).any(axis=-1)
    return np.flatnonzero((off.any(axis=-1) | cols).reshape(-1, d).any(axis=0))


def _require_single(op: ModeOperator, what: str) -> None:
    """Raise DomainError when an entry point that takes one operator gets a stack."""
    if op.entries.ndim != 2:
        raise DomainError(f"{what} takes one operator, got a stack of {len(op.entries)}")


@dataclass(frozen=True)
class _Declaration:
    """What a family declares of the modes it moves (see ProjectionFamily):
    the sorted window indices S, a closed form of its S x S block and the
    t-derivatives of that block, each from 1-D float arrays t1, t2 of k
    points (and an axis) to a (k, |S|, |S|) complex stack."""

    support: tuple[int, ...]
    block: Callable[[np.ndarray, np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray, np.ndarray, int], np.ndarray]


class ProjectionFamily:
    """A smooth two-parameter family of APS-type projections.

    Evaluating at (t1, t2) in the unit square yields a ModeOperator that is
    meant to be idempotent and Hermitian, with tail identity above the window
    and zero below, and whose difference from the value at t = 0 stays window
    supported.  A call does not check this; a coordinate that is not one
    finite real number raises DomainError, by the rule of the chart layer's
    points.  ``map_fn`` takes two floats and returns one d x d block; each
    public entry point that takes a family calls it at each of its own
    points t and checks those values once, as one stack, and the stencils
    around t call it unwrapped and unchecked.

    A family may declare the modes it moves, as rotated_family does, in one
    private ``_declaration`` (a _Declaration): the sorted window indices S,
    a closed form of its S x S block, its value being a fixed block off
    S x S, and the t-derivatives of that block.  Every chart entry point
    then reads d P = I_S (d B) I_S* from that declaration instead of a
    stencil, and the update path reads its stencil samples from the block
    alone; both are checked where they are read (_declared).  A family that
    declares nothing, such as every ``ProjectionFamily(window, map_fn)``,
    takes its derivatives from stencils on the dense path.
    """

    _declaration: _Declaration | None = None

    def __init__(self, window: ModeWindow, map_fn: Callable[[float, float], np.ndarray]):
        self.window = window
        self._map = map_fn

    def __call__(self, t1: float, t2: float) -> ModeOperator:
        (t1, t2), one = _points((t1, t2))
        if not one:
            raise DomainError(f"a family value takes one point, got shape {t1.shape}")
        return ModeOperator(self.window, self._map(float(t1[0]), float(t2[0])), TAIL_APS)


def spectral_projection(w: ModeWindow, k: int) -> ModeOperator:
    """The spectral projection onto modes n >= k (diagonal on the window)."""
    if abs(_number(k, numbers.Integral, "the cut must be an integer")) > w.n_max:
        raise WindowOverflow(f"cut {k} outside window [-{w.n_max}, {w.n_max}]")
    diag = np.array([1.0 if mode >= k else 0.0 for mode in w.modes()], dtype=complex)
    return ModeOperator(w, np.diag(diag), TAIL_APS)


def rotated_family(w: ModeWindow, modes: tuple[int, int]) -> ProjectionFamily:
    """Rotation family P(t) = U(t) Pi_{>=0} U(t)* mixing one negative and one
    non-negative mode.

    U(t) rotates span{e_m1, e_m2} by the angle pi t1 / 2 with relative phase
    exp(2 pi i t2) and fixes every other mode, so P(0, t2) = Pi_{>=0} and the
    difference P(t) - Pi_{>=0} is supported in the 2x2 block on (m1, m2).
    That block is the projection onto U e_m2 = (-conj(phase) sin, cos), in
    closed form; the family declares it with its support S = (m1, m2) and
    its derivatives (see ProjectionFamily), and its value is a copy of
    Pi_{>=0} with the block written in, from the same closed form at two
    floats.  With theta = pi t1 / 2, the block is [[s^2, -conj(phase) s c],
    [-phase s c, c^2]] (s = sin theta, c = cos theta), so d1 of it is
    (pi / 2) [[sin 2 theta, -conj(phase) cos 2 theta], [-phase cos 2 theta,
    -sin 2 theta]] and d2 of it is 2 pi i s c [[0, conj(phase)], [-phase, 0]].
    """
    try:
        m1, m2 = modes
    except (TypeError, ValueError) as exc:
        raise DomainError(f"modes must be a pair (m1, m2), got {modes!r}") from exc
    i, j = w.index(m1), w.index(m2)
    if not (m1 < 0 <= m2):
        raise DomainError(f"need m1 < 0 <= m2, got ({m1}, {m2})")
    base = spectral_projection(w, 0).entries

    def entries(t1, t2) -> tuple:
        # the block's entries in row order, at floats or at 1-D arrays
        theta, phase = np.pi * t1 / 2.0, np.exp(2j * np.pi * t2)
        sin, cos = np.sin(theta), np.cos(theta)
        return sin * sin, -np.conj(phase) * sin * cos, -phase * sin * cos, cos * cos

    def derivative(t1: np.ndarray, t2: np.ndarray, axis: int) -> np.ndarray:
        # [[a, -conj(phase) b], [-phase conj(b), -a]], Hermitian as d P is
        theta, phase = np.pi * t1 / 2.0, np.exp(2j * np.pi * t2)
        if axis == 0:
            a, b = np.pi / 2.0 * np.sin(2.0 * theta), np.pi / 2.0 * np.cos(2.0 * theta)
        else:
            a, b = 0.0 * theta, -2j * np.pi * np.sin(theta) * np.cos(theta)
        entries = (a, -np.conj(phase) * b, -phase * np.conj(b), -a)
        return np.stack(entries, axis=-1).reshape(-1, 2, 2)

    def block(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
        return np.stack(entries(t1, t2), axis=-1).reshape(-1, 2, 2)

    def value(t1: float, t2: float) -> np.ndarray:
        p = base.copy()
        p[i, i], p[i, j], p[j, i], p[j, j] = entries(t1, t2)
        return p

    fam = ProjectionFamily(w, value)
    fam._declaration = _Declaration((i, j), block, derivative)
    return fam


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
    if not 0.0 < _number(a, numbers.Real, "offset a must be a real number") < 1.0:
        raise DomainError(f"offset a must be a real number in (0, 1), got {a!r}")
    if abs(_number(flip_mode, numbers.Integral, "a flip mode must be an integer")) > window.n_max:
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


# Parameter points of the chart layer: a pair of 1-D float arrays of one
# length, one entry per point (see the module docstring).
Points = tuple[np.ndarray, np.ndarray]


def _points(t) -> tuple[Points, bool]:
    """t as two nonempty 1-D float arrays of one length, and whether the
    caller passed one point as two scalars, which the public return makes a
    complex.  Each coordinate must be real by ``errors._array``; anything
    else raises DomainError before it is converted."""
    try:
        t1, t2 = (_array(c, "iuf", "t must be real numbers") for c in t)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"t must be a pair (t1, t2) of floats or 1-D arrays, got {t!r}") from exc
    if t1.shape != t2.shape or t1.ndim > 1 or t1.size == 0:
        raise DomainError(
            f"t1 and t2 must be floats or 1-D arrays of one nonzero length, "
            f"got shapes {t1.shape} and {t2.shape}"
        )
    pts = np.array(t1, dtype=float, ndmin=1), np.array(t2, dtype=float, ndmin=1)
    if not (np.isfinite(pts[0]).all() and np.isfinite(pts[1]).all()):
        raise DomainError(f"t must be finite, got {t!r}")
    return pts, t1.ndim == 0


def _result(values: np.ndarray, one: bool) -> complex | np.ndarray:
    """A public return: a complex for one point passed as scalars, else the
    array of values, one per point."""
    return complex(values[0]) if one else values


def _point(t: Points, i: int) -> tuple[float, float]:
    """The i-th point of t as a pair of floats."""
    return float(t[0][i]), float(t[1][i])


def _require_chart(sv: np.ndarray, t: Points) -> None:
    """Raise NotInvertible unless, at every point of t, the descending singular
    values ``sv[..., :]`` of its chart map, one per column, clear
    CHART_SVD_THRESHOLD; the error names the first failing point."""
    if sv.shape[-1] == 0:
        raise NotInvertible("restriction rank 0 is out of range")
    smallest = sv[..., -1]
    low = smallest < CHART_SVD_THRESHOLD
    if low.any():
        i = int(np.argmax(low))
        raise NotInvertible(
            f"chart is singular at t = {_point(t, i)} (sv = {smallest[i]:.3e})"
        )


def _certified_inverse(
    a: np.ndarray, cut: float, m: np.ndarray | None = None
) -> np.ndarray | None:
    """The inverses of a stack of r x r blocks A = Y M when a norm bound
    settles, for every member, the SVD rule's chart guard and pseudo-inverse
    cut-off on M, else None.

    M is a d x r chart map and Y an r x d block with |Y|_2 <= 1, such as
    V* P; by default M = A and Y = I.  The singular values satisfy
    s_min(M) >= s_min(A) >= 1 / |A^{-1}|_F and s_max(M) <= |M|_F, so
    _bounded's test with no update terms proves that M passes _require_chart
    and that every singular value of M lies above cut s_max(M).
    An inverse that raises LinAlgError, a non-finite norm or an empty block
    certifies nothing, and the caller then runs the SVD rule itself.
    """
    if a.shape[-1] == 0:
        return None
    try:
        inverse = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return None
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN norm fails the test
        return inverse if _bounded(inverse, cut, _frobenius(a if m is None else m)) else None


def _bounded(inverse: np.ndarray, cut: float, norm: Any, spread: Any = 0) -> bool:
    """Whether s_min(A + E) >= floor = 2 max(CHART_SVD_THRESHOLD, cut |M|_F)
    follows, at every member, from the inverse of A, a bound ``norm`` on
    |M|_F and a bound ``spread`` on |E|_2: s_min(A + E) >= s_min(A) - |E|_2
    and s_min(A) >= 1 / |A^{-1}|_F.  The factor 2 absorbs the rounding of A
    and its inverse.  With no E it is the certificate of A itself (floor + 0
    is exactly floor).  A NaN or infinite norm settles nothing; every caller
    holds np.errstate(over="ignore", invalid="ignore"), so that such a norm
    raises no warning."""
    floor = 2.0 * np.maximum(CHART_SVD_THRESHOLD, cut * norm)
    return bool(((floor + spread) * _frobenius(inverse) <= 1.0).all())


def _frobenius(m: np.ndarray) -> np.ndarray:
    """|M|_F of each member of a stack, without forming the |M_ij|^2."""
    flat = m.reshape(*m.shape[:-2], -1)
    return np.sqrt(np.vecdot(flat, flat).real)


def _chart_ratio(
    a1: np.ndarray, a2: np.ndarray, t: Points, maps: tuple[np.ndarray, ...] | None = None
) -> np.ndarray:
    """det_F((S_1 V V* + I - q)(S_2 V V* + I - q)^{-1}) from the r x r blocks
    A_i = Y S_i V, as det(A_1 A_2^{-1}) at each point; the chart maps ``maps``
    (by default the blocks themselves) pass _require_chart.

    One stacked inverse of A_1 and A_2 settles both chart guards by
    _certified_inverse at every point, and det(A_1 A_2^{-1}) is then taken
    from it.  When any member is left open, the whole call runs the SVD
    rule: the singular values of each chart map, _require_chart, and an
    r x r solve of the blocks, so every decision and message is that rule's.

    The callers pick Y so that the identity-extended representatives are
    block lower triangular and differ only in the block A_i; the other
    blocks then cancel from the product.
    - q = V V* (patching_identity_check), Y = V*: in the basis [V, W] of
      ran(base) + ker(base) the representative has the blocks V* S_i V and
      W* S_i V on ran(base), and the identity on ker(base).  For S_i V = P_i V
      the singular values of V* P_i V are the squares of those of P_i V, and
      the blocks are their own chart maps.
    - q = P (transition_det), Y = V* P: when rank P = r, any orthonormal
      basis X of ran(P) contains ran(S_i V), and from ran(base) + ker(base)
      to ran(P) + ker(P) the representative has the blocks X* S_i V on
      ran(base) to ran(P), (I - P) on ran(base) to ker(P) and (I - P) on
      ker(base).  Y = (V* X) X*, so Y S_i V = G X* S_i V with G = V* X, and
      det(A_1 A_2^{-1}) = det(G X* S_1 V (X* S_2 V)^{-1} G^{-1}) does not
      depend on X.  G is invertible whenever the chart maps are: S_i V =
      P (I + sigma_i) P V has rank at most that of P V = X G*.  The blocks
      bound the singular values of the chart maps S_i V from below, and the
      SVD rule runs on the maps.
    The quotient det(A_1) / det(A_2) would be cheaper, but then the three
    quotients of g_12 g_23 g_31 telescope and the cocycle case holds by
    construction for any determinant; through the product it rests on the
    multiplicativity of det.
    """
    inverses = _certified_inverse(np.stack([a1, a2]), 0.0)
    if inverses is not None:
        return np.linalg.det(a1 @ inverses[1])
    for m in (a1, a2) if maps is None else maps:
        _require_chart(np.linalg.svd(m, compute_uv=False), t)
    return np.linalg.det(np.linalg.solve(a2.mT, a1.mT).mT)


def _direction_axis(direction) -> int:
    """0 for "t1" or the integer 0, 1 for "t2" or 1; a bool or a float is no direction."""
    if isinstance(direction, str) and direction in ("t1", "t2"):
        return ("t1", "t2").index(direction)
    if _number(direction, numbers.Integral, "direction must be 't1', 't2', 0 or 1") not in (0, 1):
        raise DomainError(f"direction must be 't1', 't2', 0 or 1, got {direction!r}")
    return int(direction)


@dataclass(frozen=True)
class _Basis:
    """An orthonormal basis V (d x r) of ran(base), and the products of the
    chart layer with it: M V (``right``) and V* M (``left``), for a block
    or a stack M.

    Exactly one field is set: ``v``, the matrix V, or ``cols`` when
    V = I[:, cols], which is then never formed.  With ``cols`` the products
    are gathers of the columns or rows ``cols`` of M by np.take: they hold
    exactly the values of the products with the 0/1 matrix V (each entry is
    one product with 1 plus zeros), in a C-ordered array.  M[..., cols]
    would return an F-ordered one, and einsum, whose summation order
    follows the strides, would then round apart.  A gather drops the
    columns it does not select, where a product spreads a non-finite entry
    of them into every column, so a stencil member gathered from a sample
    with a non-finite entry is marked NaN (_nan_unless_finite) for
    fd_apply's finiteness check.
    """

    v: np.ndarray | None = None
    cols: np.ndarray | None = None

    @property
    def rank(self) -> int:
        return len(self.cols) if self.v is None else self.v.shape[1]

    @cached_property
    def _vh(self) -> np.ndarray:
        return self.v.conj().T

    def right(self, m: np.ndarray) -> np.ndarray:
        return m.take(self.cols, axis=-1) if self.v is None else m @ self.v

    def left(self, m: np.ndarray) -> np.ndarray:
        return m.take(self.cols, axis=-2) if self.v is None else self._vh @ m

    def rows(self, j: np.ndarray) -> np.ndarray:
        """V[j, :], the rows j of V as an m x r array (0/1 on a coordinate base)."""
        return (j[:, None] == self.cols).astype(float) if self.v is None else self.v[j]


def _chart_base(w: ModeWindow, base: ModeOperator) -> _Basis:
    """Orthonormal basis V (d x r) of ran(base) on the window, once per public call.

    Every base is checked by is_projection, which on a coordinate block
    (``_coordinate_ones``), such as a spectral cut, checks its tails alone.
    A coordinate block on the window has the basis I[:, cols], cols the
    indices of its ones, and needs no decomposition.  On any other block V
    holds the eigenvectors of its block with eigenvalue above 1/2: its
    eigenvalues lie within PROJECTION_TOL of 0 or 1, and this is the rank
    decision of window_rank.  The boolean index copies the columns, so the
    d x d factor is freed before the chart work starts.  For a cut Pi_{>=k}
    eigh returns the columns I[:, cols] themselves, in that order; for a
    coordinate projection that is not a monotone cut it may order them
    differently, and values computed through the two bases then differ by
    rounding.
    """
    _require_single(base, "a chart's base")
    if not base.is_projection():
        raise DomainError("base must be a projection")
    block = base.embed_to(w).entries  # the tails fill any new diagonal entries
    ones = _coordinate_ones(block)
    if ones is None:
        eigenvalues, vectors = np.linalg.eigh(block)
        return _Basis(v=vectors[:, eigenvalues > 0.5])
    return _Basis(cols=np.flatnonzero(ones))


def _family_blocks(fam: ProjectionFamily, t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """The family's block function, unwrapped and unchecked, at each point of
    the 1-D arrays t1, t2, as a (k, d, d) stack; one point's stack is a view
    of the block the function returned, not a copy."""
    blocks = [_block(fam, a, b) for a, b in zip(t1.tolist(), t2.tolist())]
    return blocks[0][None] if len(blocks) == 1 else np.array(blocks)


def _block(fam: ProjectionFamily, t1: float, t2: float) -> np.ndarray:
    """The family's block at one point; a block function returning a stack, or
    anything but a d x d block of numbers, is refused with DomainError, and
    any error of the block function other than a DetlineError becomes an
    EvaluationError naming this point alone."""
    try:
        block = np.asarray(fam._map(t1, t2))
    except DetlineError:
        raise
    except Exception as exc:  # name the member of a stack that failed
        raise EvaluationError(f"family evaluation failed at ({t1}, {t2}): {exc}") from exc
    d = fam.window.dim
    if block.shape != (d, d) or block.dtype.kind not in "biufc":
        if block.ndim == 3:
            raise DomainError(f"a family value takes one operator, got a stack of {len(block)}")
        raise DomainError(
            f"family value at ({t1}, {t2}) is no {d}x{d} block of numbers, "
            f"got {block.dtype} of shape {block.shape}"
        )
    return block


def _declared(fam: ProjectionFamily, t: Points, axis: int | None = None) -> np.ndarray:
    """The S x S block a family declares (see ProjectionFamily) at the points
    t, or for an axis its derivative along it, a (k, |S|, |S|) stack; a
    value of another shape raises DomainError and a non-finite one
    EvaluationError, each naming a point (the first that is not finite)."""
    declaration, k = fam._declaration, len(t[0])
    n, what = len(declaration.support), "declared block" if axis is None else "declared derivative"
    d = np.asarray(declaration.block(*t) if axis is None else declaration.derivative(*t, axis))
    if d.shape != (k, n, n) or d.dtype.kind not in "biufc":
        raise DomainError(
            f"{what} at {_point(t, 0)} is no stack of {k} {n}x{n} blocks, "
            f"got {d.dtype} of shape {d.shape}"
        )
    finite = np.isfinite(d).all(axis=(-2, -1))
    if not finite.all():
        raise EvaluationError(f"{what} is not finite at {_point(t, int(np.argmin(finite)))}")
    return d


def _projections_at(fam: ProjectionFamily, t: Points, basis: _Basis | None = None) -> np.ndarray:
    """Window blocks of fam at the points t (see _family_blocks), checked once
    per public call to be projections and, given the basis of ran(base), to
    have the rank of base, without which no chart map is invertible (the rank
    is constant near each point).  An error names the first failing point."""
    op = ModeOperator(fam.window, _family_blocks(fam, *t), TAIL_APS)
    if not op.is_projection():
        bad = [not ModeOperator(fam.window, m, TAIL_APS).is_projection() for m in op.entries]
        raise DomainError(f"family value at {_point(t, bad.index(True))} is not a projection")
    if basis is not None:
        rank_p = np.trace(op.entries, axis1=-2, axis2=-1).real
        off = np.rint(rank_p) != basis.rank
        if off.any():
            i = int(np.argmax(off))
            raise NotInvertible(
                f"chart is singular at t = {_point(t, i)} "
                f"(rank P = {rank_p[i]:.0f} != rank base)"
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


def _chart_maps(p: np.ndarray, basis: _Basis, *sigs: np.ndarray | None) -> list[np.ndarray]:
    """Thin blocks (P + P sigma P) V of the chart maps on ran(base), one per
    chart sigma (PV for the identity chart, sigma = None), at each point of
    the family values P; PV is formed once for all of them."""
    pv = basis.right(p)
    return [pv if sig is None else pv + p @ (sig @ pv) for sig in sigs]


def _nan_unless_finite(member: np.ndarray, sample: np.ndarray) -> np.ndarray:
    """A stencil member formed from ``sample`` (a family block or a move D),
    NaN throughout when the sample has a non-finite entry, so that fd_apply
    refuses the stencil even where a gather dropped that entry."""
    return member if np.isfinite(sample).all() else member * np.nan


def _chart_member(
    fam: ProjectionFamily, basis: _Basis, sig: np.ndarray | None, t1, t2
) -> np.ndarray:
    """The dense path's stencil member at the sample (t1, t2): the chart map
    SV of the family's blocks there (see _nan_unless_finite), an array the
    stencil owns, so fd_apply's sums reuse its buffers."""
    p_s = _family_blocks(fam, t1, t2)
    return _nan_unless_finite(_chart_maps(p_s, basis, sig)[0], p_s)


def _each(field: Callable[..., Any]) -> Callable[[np.ndarray, np.ndarray], Iterator[Any]]:
    """field(t1, t2) as an fd_apply field evaluated one stencil sample at a
    time, t1 and t2 the sample's 1-D arrays of points.  A field over the
    stacked samples would hold all of them at once: one curvature_rkw at
    n_max = 100 on the dense path, with stencil derivatives, peaked at 2.32
    MB traced that way, and at 2.07 MB, its projection check at t, one
    sample at a time (on the update path, whose samples are r x r blocks,
    at 2.07 MB either way)."""
    return partial(map, field)


# The update path runs from this rank r of base on, for a family that
# declares a support J of at most two rows (_Chart); the dense path runs
# otherwise.  In-process on rotated_family (|J| = 2) at t = (0.3, 0.2), one
# BLAS thread, median ms updated vs dense (BENCH_31.json, "crossover"): the
# identity-chart curvature_rkw reads 1.40 vs 1.36 at r = 26, 1.50 vs 1.67
# at r = 32 and 1.82 vs 2.94 at r = 44, and perturbation_patching_check
# 1.39 vs 1.85, 1.46 vs 2.42 and 1.92 vs 4.63, so every entry point breaks
# even near r = 28.  The constant stays 40 because no workload runs a
# window of rank 28 to 39, where the dense path is the slower one; lowering
# it would change which path the tests at those ranks take.  No larger J
# was measured.
_LOW_RANK_CROSSOVER = 40


class _Open(DetlineError):
    """The update path cannot settle a call: r is below the crossover, the
    family declares no support of at most two rows, or a norm bound leaves
    a chart at t or a sample open.  Like every DetlineError on the update
    path, a sample's own error included, it hands the whole call to the
    dense path; fd_apply passes it through unchanged, and no entry point
    lets it out."""


def _capacitance(
    us: list[np.ndarray], ws: list[np.ndarray], inverse: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U, W A^{-1} and the capacitance K = I + W A^{-1} U of A + U W, with
    det(A + U W) = det(A) det(K) and
    (A + U W)^{-1} = A^{-1} - A^{-1} U K^{-1} W A^{-1} (Woodbury)."""
    u, w = np.concatenate(us, axis=-1), np.concatenate(ws, axis=-2)
    w_inverse = w @ inverse
    return u, w_inverse, np.eye(u.shape[-1]) + w_inverse @ u


class _Chart:
    """One chart at t, built from the family values P there: the certified
    inverse of A = Y SV, with SV the chart map and Y = V* P
    (_certified_inverse, None where a point is left open), and, for a family
    that declares its support J (see ProjectionFamily), the pieces on J from
    which every declared connection form (``member``) and every stencil
    sample's Y, SV and A on the update path are formed; SV and Y themselves
    are not held.  The dense path builds one at t for its connection forms,
    and curvature_rkw one at each outer stencil sample.

    With base = V V*, Tr(S^+ P dS base) equals Tr((SV)^+ P d(SV)) on the
    thin block SV, whose singular values are the nonzero ones of S.  When SV
    has rank r = rank P, ran(SV) = ran(P), and since Y = Y P both (SV)^+ P
    and A^{-1} Y vanish on ker(P) and invert SV on ran(P): they are equal,
    and a form traces A^{-1} against Y d(SV).  When any point is left open,
    the whole chart runs the SVD rule instead: one thin SVD of SV serves the
    chart guard and the pseudo-inverse with pinv's cut-off, so every
    decision and message is that rule's, and a form is the plain trace of
    pinv(SV) P d(SV).  The dense path settles the guard here, before any
    stencil sample is taken; the update path (``update``) raises _Open
    here instead, before any SVD, as it does below _LOW_RANK_CROSSOVER and
    for a family that declares no support of at most two rows: the rows a
    family of projections that moves at all moves at least (a lone diagonal
    entry of a projection is 0 or 1), and the only |J| measured.  The chart
    does not check P: at t _projections_at has, and curvature_rkw marks the
    form of an outer sample whose P has a non-finite entry NaN
    (_nan_unless_finite).

    A sample P_s = P + I_J D I_J*, D = P_s[J, J] - P[J, J] read from the
    declared block (``delta``), moves Y, SV and A by terms of rank at most
    |J|.  With V_J = V[J, :], Z = D V_J and X = Z + D ((sigma P V)[J, :] +
    sigma[J, J] Z) (X = Z in the identity chart):
    - Y_s = V* P_s = Y + V_J* D I_J*;
    - S_s V - S V = I_J X + (P sigma)[:, J] Z, whose rows J are
      X + (P sigma)[J, J] Z;
    - A_s - A = Y_J X + G Z + V_J* D (S_s V)[J, :], with Y_J = Y[:, J] and
      G = Y (P sigma)[:, J]: a sum U W of rank at most 3 |J| (2 |J| in the
      identity chart).
    These are exact expansions of the products, with no use of P^2 = P, so a
    sample costs O(r |J| (r + |J|)) after its declared block.
    """

    def __init__(
        self, fam: ProjectionFamily, p: np.ndarray, basis: _Basis, sig, t: Points, update=False
    ):
        declaration = fam._declaration
        if update and (
            basis.rank < _LOW_RANK_CROSSOVER or declaration is None or len(declaration.support) > 2
        ):
            raise _Open
        self.fam, self.basis, self.sig, self.t = fam, basis, sig, t
        (s_v,) = _chart_maps(p, basis, sig)
        self.inverse = _certified_inverse(basis.left(p) @ s_v, RANK_SVD_THRESHOLD, s_v)
        if self.inverse is not None:
            left = basis.left  # Y = V* P, traced against the inverse
        elif update:
            raise _Open
        else:  # pinv(SV) P, traced plainly
            u, sv, vh = np.linalg.svd(s_v, full_matrices=False)
            _require_chart(sv, t)
            kept = sv > RANK_SVD_THRESHOLD * sv[..., :1]
            pinv = (vh.conj().mT / np.where(kept, sv, np.inf)[..., None, :]) @ u.conj().mT
            left = partial(np.matmul, pinv)
        if declaration is None:  # the r x d block (SV)^+ P, the one array held through a stencil
            self.rows = left(p) if self.inverse is None else self.inverse @ left(p)
            return
        j = np.array(declaration.support)
        self.v_j, self.y_j = basis.rows(j), left(np.take(p, j, axis=-1))
        if sig is not None:
            p_sig_j = p @ np.take(sig, j, axis=-1)
            self.g = left(p @ p_sig_j)
            self.sig_p_v_j = np.take(sig, j, axis=-2) @ basis.right(p)
        if update:  # the pieces of a sample's move
            self.v_jh, self.p_jj = self.v_j.conj().T, p[..., j[:, None], j]
            self.sv_j, self.sv_norm = np.take(s_v, j, axis=-2), _frobenius(s_v)
            if sig is not None:
                self.p_sig_jj, self.p_sig_norm = np.take(p_sig_j, j, axis=-2), _frobenius(p_sig_j)
                self.sig_jj = sig[np.ix_(j, j)]

    def form(self, axis: int) -> np.ndarray:
        """connection_form along axis at the chart's own points: the declared
        member (``member``) traced against the inverse, or plainly under the
        SVD rule; for a family that declares nothing, Tr((SV)^+ P d(SV))
        with d(SV) the form's own stencil of the chart maps (_chart_member)."""
        if self.fam._declaration is None:
            member = partial(_chart_member, self.fam, self.basis, self.sig)
            return _connection_form(self.rows, fd_apply(_each(member), self.t, _D1, axis))
        if self.inverse is None:
            return np.trace(self.member(_declared(self.fam, self.t, axis)), axis1=-2, axis2=-1)
        return _connection_form(self.inverse, self.member(_declared(self.fam, self.t, axis)))

    def member(self, d1: np.ndarray, d: np.ndarray | None = None) -> np.ndarray:
        """Y_s d(S_s V), the r x r member of the declared connection form at
        the sample of move d (the chart's own point for d = None), from the
        declared derivative d1 of the block there.  With Z' = d1 V_J and X' =
        Z' + d1 ((sigma P V)[J, :] + sigma[J, J] D V_J) + D sigma[J, J] Z'
        (X' = Z' in the identity chart), d(S_s V) = I_J X' + (P sigma)[:, J]
        Z' and the member is Y_J X' + G Z' + V_J* D (X' + (P sigma)[J, J]
        Z'); under the SVD rule pinv(SV) P stands in for Y."""
        z = d1 @ self.v_j
        if self.sig is None:
            return self.y_j @ z if d is None else self.y_j @ z + self.v_jh @ (d @ z)
        if d is None:  # D = 0: X' = Z' + d1 (sigma P V)[J, :]
            return self.y_j @ (z + d1 @ self.sig_p_v_j) + self.g @ z
        x = z + d1 @ (self.sig_p_v_j + self.sig_jj @ (d @ self.v_j)) + d @ (self.sig_jj @ z)
        return self.y_j @ x + self.g @ z + self.v_jh @ (d @ (x + self.p_sig_jj @ z))

    def delta(self, t1, t2) -> np.ndarray:
        """D = P_s[J, J] - P[J, J] at the sample (t1, t2), from the declared block."""
        return _declared(self.fam, (t1, t2)) - self.p_jj

    def factors(self, d: np.ndarray) -> tuple[list, list, Any, Any]:
        """The blocks U_b, W_b of A_s - A = sum U_b W_b; sum |U_b|_F |W_b|_F, at
        least |A_s - A|_2; and |SV|_F + |X|_F + |(P sigma)[:, J]|_F |Z|_F, at
        least |S_s V|_F.  The callers take them under _bounded's np.errstate."""
        z = d @ self.v_j
        x = z if self.sig is None else z + d @ (self.sig_p_v_j + self.sig_jj @ z)
        rows = x if self.sig is None else x + self.p_sig_jj @ z
        us, ws = [self.y_j, self.v_jh @ d], [x, self.sv_j + rows]
        sv_norm = self.sv_norm + _frobenius(x)
        if self.sig is not None:
            us.append(self.g)
            ws.append(z)
            sv_norm = sv_norm + self.p_sig_norm * _frobenius(z)
        spread = sum(_frobenius(u) * _frobenius(w) for u, w in zip(us, ws))
        return us, ws, spread, sv_norm

    def updated_form(self, axis: int, t1, t2) -> Any:
        """The connection form along axis at the sample (t1, t2), an outer
        curvature_rkw sample on the update path: Tr(A_s^{-1} Y_s d(S_s V))
        from the declared derivative there (``member``), with A_s^{-1} the
        Woodbury update of the inverse at the chart's own point.  Raises
        _Open where _bounded, at the cut RANK_SVD_THRESHOLD of the chart at
        t, leaves the sample open."""
        d_s = self.delta(t1, t2)
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN norm settles nothing
            us, ws, spread, sv_norm = self.factors(d_s)
            if not _bounded(self.inverse, RANK_SVD_THRESHOLD, sv_norm, spread):
                raise _Open
        u, w_inverse, k = _capacitance(us, ws, self.inverse)
        inverse = self.inverse - (self.inverse @ u) @ np.linalg.solve(k, w_inverse)
        return _connection_form(inverse, self.member(_declared(self.fam, (t1, t2), axis), d_s))

    def ratio_factor(self, d: np.ndarray) -> np.ndarray:
        """det(A_s) / det(A) at the sample of move d, from the chart's certified
        inverse of A; raises _Open where _bounded leaves the sample's chart
        guard open (the certificate of _chart_ratio: cut 0, so its floor is
        2 CHART_SVD_THRESHOLD and reads no norm)."""
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN norm settles nothing
            us, ws, spread, _ = self.factors(d)
            if not _bounded(self.inverse, 0.0, 0.0, spread):
                raise _Open
        return np.linalg.det(_capacitance(us, ws, self.inverse)[2])


def connection_form(
    fam: ProjectionFamily,
    base: ModeOperator,
    t: tuple[float, float] | Points,
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
    inverse of the restricted map (see _Chart).  t = (t1, t2) holds floats,
    or 1-D arrays of one length for a complex array of values, one per point.
    """
    axis = _direction_axis(direction)
    pts, one = _points(t)
    basis = _chart_base(fam.window, base)
    sig = _chart_sigma(fam.window, perturbation)
    p = _projections_at(fam, pts, basis)
    return _result(_Chart(fam, p, basis, sig, pts).form(axis), one)


def _connection_form(s_pinv_p: np.ndarray, d_sv: np.ndarray) -> np.ndarray:
    """The connection form Tr((SV)^+ P d(SV)) from the r x d block (SV)^+ P and
    the stencil derivative d(SV), or Tr(A^{-1} M) from the inverse of A = Y SV
    and a declared member M (_Chart), summed elementwise."""
    return np.einsum("...ij,...ji->...", s_pinv_p, d_sv)


def tr_p_dp_dp(fam: ProjectionFamily, t: tuple[float, float] | Points) -> complex | np.ndarray:
    """Curvature density Tr(P [d1 P, d2 P]) of the family at a point or at
    each point of equal-length arrays t1, t2.

    Where the family declares that it moves only the rows and columns J, and
    the derivatives D'_1, D'_2 of its J x J block (see ProjectionFamily),
    d1 P and d2 P vanish off J x J, so Tr(P [d1 P, d2 P]) is exactly
    Tr(P_JJ [D'_1, D'_2]), at any rank.  A family that declares nothing
    takes d1 P and d2 P from stencils of its d x d blocks."""
    pts, one = _points(t)
    p = _projections_at(fam, pts)
    if fam._declaration is None:
        blocks = _each(partial(_family_blocks, fam))
        d1, d2 = fd_apply(blocks, pts, _D1, 0), fd_apply(blocks, pts, _D1, 1)
    else:
        j = np.array(fam._declaration.support)
        p = p[..., j[:, None], j]
        d1, d2 = _declared(fam, pts, 0), _declared(fam, pts, 1)
    return _result(np.trace(p @ (d1 @ d2 - d2 @ d1), axis1=-2, axis2=-1), one)


def _curl(form: Callable[[int, Any, Any], Any], t: Points) -> np.ndarray:
    """d1 omega_2 - d2 omega_1 at t, omega_axis at each outer sample s being
    form(axis, *s)."""

    def omega(axis: int) -> Callable[..., Iterator]:
        return _each(partial(form, axis))

    return fd_apply(omega(1), t, _D1, 0) - fd_apply(omega(0), t, _D1, 1)


def curvature_rkw(
    fam: ProjectionFamily,
    base: ModeOperator,
    t: tuple[float, float] | Points,
    perturbation: ModeOperator | None = None,
) -> complex | np.ndarray:
    """Curvature two-form d omega = d1 omega_2 - d2 omega_1 at a parameter point,
    or at each point of equal-length arrays t1, t2.

    Each derivative is the stencil of connection_form's own values at the
    samples around t.  Those take their d(SV) from the family's declared
    derivative where it declares one, so a point takes 8 samples; for a
    family that declares nothing, from a stencil at the same step
    DEFAULT_FD_STEP, 8 x 4 samples.  The outer stencil divides the rounding
    of an inner one, eps / h, by h once more, so a finer inner step would
    lose digits.  On the dense path each outer sample builds its own chart
    (_Chart.form); on the update path each outer sample's form inverts its
    block by Woodbury from the inverse of the chart at t
    (_Chart.updated_form), and a call with any outer sample whose bound is
    left open runs on the dense path, whose SVD rule decides.
    """
    pts, one = _points(t)
    basis = _chart_base(fam.window, base)
    sig = _chart_sigma(fam.window, perturbation)
    p = _projections_at(fam, pts, basis)  # the stencil points around t are not checked
    try:
        chart = _Chart(fam, p, basis, sig, pts, update=True)
        p = None  # not held through the stencils
        return _result(_curl(chart.updated_form, pts), one)
    except DetlineError:  # the dense path decides every value, chart guard and message
        p = None  # its forms read the family at their own samples

    def form(axis: int, t1, t2) -> np.ndarray:  # fd_apply refuses a NaN form
        p_s = _family_blocks(fam, t1, t2)
        return _nan_unless_finite(_Chart(fam, p_s, basis, sig, (t1, t2)).form(axis), p_s)

    return _result(_curl(form, pts), one)


def transition_det(
    fam: ProjectionFamily,
    base: ModeOperator,
    t: tuple[float, float] | Points,
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
    pts, one = _points(t)
    w = fam.window
    basis = _chart_base(w, base)
    sig1, sig2 = _chart_sigma(w, sigma1), _chart_sigma(w, sigma2)
    p = _projections_at(fam, pts, basis)
    s1_v, s2_v = _chart_maps(p, basis, sig1, sig2)
    return _result(_transition_det(s1_v, s2_v, basis.left(p), pts), one)


def _transition_det(s1_v: np.ndarray, s2_v: np.ndarray, y: np.ndarray, t: Points) -> np.ndarray:
    """det_F((S_1 + I - P)(S_2 + I - P)^{-1}) on the r x r blocks Y S_i V from
    the chart maps S_i V and Y = V* P, for family values P of the rank of base
    (see _chart_ratio); the SVD rule, where it runs, decides on S_i V."""
    a1, a2 = y @ s1_v, y @ s2_v
    del y  # the r x d block is not held through the ratio
    return _chart_ratio(a1, a2, t, (s1_v, s2_v))


def perturbation_patching_check(
    fam: ProjectionFamily,
    base: ModeOperator,
    sigma1: ModeOperator | None,
    sigma2: ModeOperator | None,
    t: tuple[float, float] | Points,
    direction="t1",
) -> tuple[complex, complex] | tuple[np.ndarray, np.ndarray]:
    """Patching identity between two perturbation charts of one family.

    Returns (lhs, rhs) with lhs the logarithmic derivative of the transition
    determinant and rhs the difference of the chart connection forms; the two
    agree up to finite-difference error.  For equal-length arrays t1, t2 both
    are complex arrays, one value per point.

    The lhs is the stencil of the transition determinant g over g(t), each
    sample evaluating the family and PV once and forming both chart maps and
    g from them.  Each connection form is the chart's own at t (_Chart.form),
    as connection_form takes it, on either path, so rhs is the difference of
    the two public connection forms to the last bit: from the family's
    declared derivative at t, or for a family that declares nothing from its
    own stencil of its chart map, so a one-point call reads the block
    function 5 times for a declared family and 13 for one that declares
    nothing.  On the update path (see the module docstring) both charts take
    one move D per sample, and the stencil takes g(s) / g(t) as the quotient
    of the two charts' capacitance dets; both routes read each chart's one
    certified inverse at t, the numbers a stacked inversion of the two blocks
    would return.  On the dense path g takes its own stacked inverse and det.
    """
    axis = _direction_axis(direction)
    pts, one = _points(t)
    w = fam.window
    basis = _chart_base(w, base)
    sigs = (_chart_sigma(w, sigma1), _chart_sigma(w, sigma2))
    p = _projections_at(fam, pts, basis)
    try:
        chart1, chart2 = (_Chart(fam, p, basis, sig, pts, update=True) for sig in sigs)
        p = None  # not held through the stencils

        def updated(t1, t2) -> np.ndarray:
            d = chart1.delta(t1, t2)
            return chart1.ratio_factor(d) / chart2.ratio_factor(d)

        lhs = fd_apply(_each(updated), pts, _D1, axis)
        return _result(lhs, one), _result(chart1.form(axis) - chart2.form(axis), one)
    except DetlineError:  # the dense path decides every value, chart guard and message
        if p is None:  # released for the update stencils: read the checked value at t again
            p = np.asarray(_family_blocks(fam, *pts), dtype=complex)

    def ratio(t1, t2) -> np.ndarray:
        p_at = _family_blocks(fam, t1, t2)
        maps, y = _chart_maps(p_at, basis, *sigs), basis.left(p_at)
        finite = np.isfinite(p_at).all()  # as _nan_unless_finite, read before the release
        del p_at  # the d x d sample is not held through the ratio
        g = _transition_det(*maps, y, (t1, t2))
        return g if finite else g * np.nan

    dg = fd_apply(_each(ratio), pts, _D1, axis)
    lhs = dg / _transition_det(*_chart_maps(p, basis, *sigs), basis.left(p), pts)
    omega1, omega2 = (_Chart(fam, p, basis, sig, pts).form(axis) for sig in sigs)
    return _result(lhs, one), _result(omega1 - omega2, one)


def patching_identity_check(
    fam1: ProjectionFamily,
    fam2: ProjectionFamily,
    base: ModeOperator,
    t: tuple[float, float] | Points,
    direction="t1",
) -> tuple[complex, complex] | tuple[np.ndarray, np.ndarray]:
    """Patching identity between the identity charts of two projection families.

    The transition function is the determinant-line ratio of the identity
    extensions S_i + (I - base); it patches the two trivializations whenever
    the families are charts of one line bundle (for instance conjugate by a
    constant unitary commuting with base).  Returns (lhs, rhs) with lhs the
    logarithmic derivative of that ratio and rhs = omega_1 - omega_2; for
    equal-length arrays t1, t2 both are complex arrays, one value per point.
    The ratio's stencil evaluates both families once per sample, and as in
    perturbation_patching_check the connection form of a family that
    declares no derivatives takes its own stencil: a one-point call reads
    the block functions 10 times for two declared families, 14 for one and
    18 for none.
    """
    axis = _direction_axis(direction)
    pts, one = _points(t)
    if fam1.window.n_max != fam2.window.n_max:
        raise NotCommensurable("families must share one mode window")
    basis = _chart_base(fam1.window, base)
    p1, p2 = _projections_at(fam1, pts, basis), _projections_at(fam2, pts, basis)

    def ratio(t1, t2) -> np.ndarray:
        pv1, pv2 = (_chart_member(fam, basis, None, t1, t2) for fam in (fam1, fam2))
        return _chart_ratio(basis.left(pv1), basis.left(pv2), (t1, t2))

    d_ratio = fd_apply(_each(ratio), pts, _D1, axis)
    pv1, pv2 = basis.right(p1), basis.right(p2)
    lhs = d_ratio / _chart_ratio(basis.left(pv1), basis.left(pv2), pts)
    omega1, omega2 = (
        _Chart(fam, p, basis, None, pts).form(axis) for fam, p in ((fam1, p1), (fam2, p2))
    )
    return _result(lhs, one), _result(omega1 - omega2, one)
