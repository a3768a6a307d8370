"""Exception types shared by all detline modules, and the one rule for what
counts as a number.

Every public entry point returns a value within its documented tolerance or
raises a ``DetlineError``.  An argument a caller passes in is checked by one
of two private guards, and a refusal raises ``DomainError`` naming the
argument:

* ``_number(value, kind, what)``: a scalar of a ``numbers`` kind
  (``numbers.Integral``, ``numbers.Real`` or ``numbers.Complex``).  A bool is
  no number, though Python counts it an integer; nor are a numpy bool, a
  string, None or an array.
* ``_array(value, kinds, what)``: ``np.asarray(value)`` whose dtype kind
  lies in ``kinds``, numpy's letters ("b" bool, "i" and "u" integers, "f"
  floats, "c" complex).  Ragged nesting, strings, None and object arrays are
  no array of numbers.  Bools are read as 0 and 1 only in the entries of
  ``ModeOperator`` and ``BoundaryProjection2`` and in the vector
  ``BoundaryProjection2.apply`` takes; ``DetPoint``'s is_zero is a bool.

Ranges, shapes and finiteness are each entry point's own checks.  Values
that a user callable returns (field samples, family blocks) are checked
where they are read and raise ``EvaluationError`` or name their point.
"""

import numpy as np


class DetlineError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DetlineError):
    """An argument lies outside the documented domain of an operation."""


def _number(value, kind: type, what: str):
    """value when it is a number of the ``numbers`` kind (a bool is none),
    else DomainError "<what>, got <value>"."""
    if isinstance(value, kind) and not isinstance(value, bool):
        return value
    raise DomainError(f"{what}, got {value!r}")


def _array(value, kinds: str, what: str) -> np.ndarray:
    """np.asarray(value) when its dtype kind is one of ``kinds``, else
    DomainError "<what>, got <value>"; ragged nesting is refused too."""
    try:
        array = np.asarray(value)
    except (TypeError, ValueError) as exc:  # numpy's "inhomogeneous shape"
        raise DomainError(f"{what}, got {value!r}: {exc}") from exc
    if array.dtype.kind not in kinds:
        raise DomainError(f"{what}, got {value!r}")
    return array


class PoleAtOne(DetlineError):
    """The Hurwitz zeta function was requested at (or too close to) s = 1."""


class EvaluationError(DetlineError):
    """A user-supplied scalar field could not be evaluated at a stencil point."""


class DegenerateSpectrum(DetlineError):
    """The boundary condition admits a zero mode (spectral offset alpha = 0)."""


class WindowOverflow(DetlineError):
    """A requested mode index falls outside the Fourier mode window."""


class NotDetClass(DetlineError):
    """Operator is not of determinant class (identity plus window-supported)."""


class NotCommensurable(DetlineError):
    """Two operators do not differ by a window-supported perturbation."""


class NotInvertible(DetlineError):
    """A chart condition failed: the restricted operator is numerically singular."""


class DivisionByZeroPoint(DetlineError):
    """Ratio against the zero point of a determinant line."""
