"""Input contract of the public entry points: every numeric argument of the
exports of detline/__init__.py refuses what is no number with a DetlineError.

Each slot below is one numeric argument of one export (a coordinate of a
pair counts as one), with a valid value and a call that puts another value
in its place.  Every slot is fed a ragged list, a string, None, a bool, an
object array, NaN and inf, each shaped like the valid value where a shape
applies.  Each call must raise a DetlineError, never a bare numpy or Python
exception and never a value, except the pairs in ACCEPTED, which the library
documents that it takes.
"""

import math

import numpy as np
import pytest

import detline
from detline import DetlineError

W = detline.ModeWindow(2)
PI0 = detline.spectral_projection(W, 0)
ROTATED = detline.rotated_family(W, (-1, 0))
P_HALF = detline.projection_from_chart(0.5)
LAPLACIAN = detline.FdStencil(kind="laplacian-2d")
D1 = detline.FdStencil(kind="first-derivative")


def field(x, y):
    return x * x + y


def at_t1(call):
    """A slot for the first coordinate of a chart point t = (t1, 0.4)."""
    return lambda v: call((v, 0.4)), 0.3


# slot -> (call taking the value, a valid value)
SLOTS = {
    "FdStencil.step": (lambda v: detline.FdStencil(step=v), 1e-3),
    # HurwitzParams holds s; hurwitz_zeta checks it against the validated region
    "HurwitzParams.s": (lambda v: detline.hurwitz_zeta(detline.HurwitzParams(v, 0.5)), 0.5),
    "HurwitzParams.a": (lambda v: detline.hurwitz_zeta(detline.HurwitzParams(0.5, v)), 0.5),
    "hurwitz_zeta_ds0.a": (detline.hurwitz_zeta_ds0, np.array([0.25, 0.5])),
    "fd_apply.at[0]": (lambda v: detline.fd_apply(field, (v, 0.2), LAPLACIAN), 0.1),
    "fd_apply.at[1]": (lambda v: detline.fd_apply(field, (0.1, v), LAPLACIAN), 0.2),
    "fd_apply.axis": (lambda v: detline.fd_apply(field, (0.1, 0.2), D1, v), 1),
    "BoundaryProjection2.entries": (
        lambda v: detline.BoundaryProjection2(v, 0.5),
        P_HALF.entries,
    ),
    "BoundaryProjection2.chart": (lambda v: detline.BoundaryProjection2(P_HALF.entries, v), 0.5),
    "BoundaryProjection2.apply": (P_HALF.apply, np.array([1.0, 0.5])),
    "SpectralDatum.alpha": (lambda v: detline.SpectralDatum(v, 1j), 0.25),
    "SpectralDatum.z": (lambda v: detline.SpectralDatum(0.25, v), 1j),
    **{
        f"{name}.z": (getattr(detline, name), np.array([0.5, 1j]))
        for name in (
            "alpha_of",
            "kahler_form_2x2",
            "quillen_curvature_fd",
            "s_of_p",
            "zeta_det_closed",
            "zeta_det_spectral",
        )
    },
    "projection_from_chart.z": (detline.projection_from_chart, 0.5),
    "adjoint_projection.z": (detline.adjoint_projection, 0.5),
    "metric_patching_check.z": (lambda v: detline.metric_patching_check(v, 0.5), 1j),
    "metric_patching_check.w": (lambda v: detline.metric_patching_check(0.5, v), 1j),
    "zeta_det_from_alpha.alpha": (detline.zeta_det_from_alpha, np.array([0.25, 0.5])),
    "ModeWindow.n_max": (detline.ModeWindow, 2),
    "ModeWindow.index": (W.index, 1),
    "ModeOperator.entries": (lambda v: detline.ModeOperator(W, v, (1, 0)), PI0.entries),
    "ModeOperator.tail": (lambda v: detline.ModeOperator(W, PI0.entries, v), (1.0, 0.0)),
    "ModeOperator.__mul__": (lambda v: PI0 * v, 2.0),
    "ProjectionFamily.__call__.t1": (lambda v: ROTATED(v, 0.4), 0.3),
    "ProjectionFamily.__call__.t2": (lambda v: ROTATED(0.3, v), 0.4),
    "connection_form.t1": at_t1(lambda t: detline.connection_form(ROTATED, PI0, t)),
    "connection_form.direction": (
        lambda v: detline.connection_form(ROTATED, PI0, (0.3, 0.4), v),
        1,
    ),
    "tr_p_dp_dp.t1": at_t1(lambda t: detline.tr_p_dp_dp(ROTATED, t)),
    "curvature_rkw.t1": at_t1(lambda t: detline.curvature_rkw(ROTATED, PI0, t)),
    "transition_det.t1": at_t1(lambda t: detline.transition_det(ROTATED, PI0, t, None, None)),
    "perturbation_patching_check.t1": at_t1(
        lambda t: detline.perturbation_patching_check(ROTATED, PI0, None, None, t)
    ),
    "perturbation_patching_check.direction": (
        lambda v: detline.perturbation_patching_check(ROTATED, PI0, None, None, (0.3, 0.4), v),
        1,
    ),
    "patching_identity_check.t1": at_t1(
        lambda t: detline.patching_identity_check(ROTATED, ROTATED, PI0, t)
    ),
    "patching_identity_check.direction": (
        lambda v: detline.patching_identity_check(ROTATED, ROTATED, PI0, (0.3, 0.4), v),
        1,
    ),
    "eta_invariant_spectral.a": (detline.eta_invariant_spectral, np.array([0.25, 0.5])),
    "eta_finite_rank_check.a": (lambda v: detline.eta_finite_rank_check(v, 1, W), 0.3),
    "eta_finite_rank_check.flip_mode": (
        lambda v: detline.eta_finite_rank_check(0.3, v, W),
        1,
    ),
    "rotated_family.modes[0]": (lambda v: detline.rotated_family(W, (v, 0)), -1),
    "rotated_family.modes[1]": (lambda v: detline.rotated_family(W, (-1, v)), 0),
    "spectral_projection.k": (lambda v: detline.spectral_projection(W, v), 0),
    "DetPoint.scale": (lambda v: detline.DetPoint(PI0, v, False), 2.0),
    "DetPoint.is_zero": (lambda v: detline.DetPoint(PI0, 1.0, v), False),
    "DetPoint.scaled": (detline.DetPoint(PI0, 1.0, False).scaled, 2.0),
    "RationalSeries.coeffs": (lambda v: detline.RationalSeries(v, 2), (1, 2, 3)),
    "RationalSeries.coeffs[0]": (lambda v: detline.RationalSeries((v, 2, 3), 2), 1),
    "RationalSeries.cap": (lambda v: detline.RationalSeries((1, 2, 3), v), 2),
    "RationalSeries.from_list.values": (lambda v: detline.RationalSeries.from_list(v, 2), (1, 2)),
    "RationalSeries.from_list.values[0]": (
        lambda v: detline.RationalSeries.from_list([v, 2], 2),
        1,
    ),
    "RationalSeries.from_list.cap": (lambda v: detline.RationalSeries.from_list([1], v), 2),
    "RationalSeries.one.cap": (detline.RationalSeries.one, 2),
    "exp_series.m": (lambda v: detline.exp_series(v, 2), 0.5),
    "exp_series.cap": (lambda v: detline.exp_series(1, v), 2),
    "todd_series.cap": (detline.todd_series, 2),
    "grr_c1_coefficient.m": (detline.grr_c1_coefficient, 2),
    **{
        f"GridSpec.{name}": (lambda v, name=name: detline.GridSpec(**{name: v}), value)
        for name, value in (("re_min", -0.5), ("re_max", 0.5), ("im_min", -0.5), ("im_max", 0.5))
    },
    "GridSpec.n": (lambda v: detline.GridSpec(n=v), 5),
    "GridSpec.exclusion": (lambda v: detline.GridSpec(exclusion=v), ((-1 + 0j, 0.2),)),
    "GridSpec.exclusion centre": (lambda v: detline.GridSpec(exclusion=((v, 0.2),)), -1 + 0j),
    "GridSpec.exclusion radius": (lambda v: detline.GridSpec(exclusion=((-1 + 0j, v),)), 0.2),
    "GridSpec.excluded": (detline.GridSpec().excluded, np.array([0.5, -1.1])),
    "run_suite.seed": (lambda v: detline.run_suite("chern", v), 7),
    "ReportDocument.seed": (lambda v: detline.ReportDocument("chern", v, [], "", ""), 7),
}

# (slot, input) pairs the library documents that it accepts, with the reason
ACCEPTED = {
    ("ModeOperator.entries", "bool"): "entries read a bool as 0 or 1",
    ("BoundaryProjection2.chart", "None"): "None is the point at infinity",
    ("BoundaryProjection2.apply", "bool"): "the vector reads a bool as 0 or 1, as the entries do",
    ("DetPoint.is_zero", "bool"): "is_zero is a bool",
    ("RationalSeries.coeffs", "object"): "exact rationals: numpy holds Fractions only as objects",
    ("RationalSeries.from_list.values", "object"): "exact rationals, as for the constructor",
}


def bad_inputs(valid) -> dict:
    """The seven inputs that are no number, shaped like valid where they can be."""
    shape = np.shape(valid)
    return {
        "ragged": [[0.25, 0.5], [0.25]],
        "string": "0.25",
        "None": None,
        "bool": np.full(shape, True) if shape else True,
        "object": np.array(valid, dtype=object),
        "nan": np.full(shape, math.nan) if shape else math.nan,
        "inf": np.full(shape, math.inf) if shape else math.inf,
    }


CASES = [
    pytest.param(slot, kind, id=f"{slot}-{kind}")
    for slot, (_, valid) in SLOTS.items()
    for kind in bad_inputs(valid)
]


def test_every_export_taking_a_number_has_a_slot():
    # a new export with a numeric argument needs a slot here; the exports
    # named take no number, only operators, families, points or parameters
    takes_no_number = {
        "calderon_projection_interval",
        "projection_at_infinity",
        "hurwitz_zeta",
        "fredholm_det",
        "relative_eta",
        "relative_index",
        "det_point",
        "ratio",
        "tensor_split",
        "range_map_index",
        "curvature_grid",
    }
    exports = {
        name
        for name, value in vars(detline).items()
        if callable(value) and not name.startswith("_")
        if not (isinstance(value, type) and issubclass(value, Exception))
    }
    covered = {slot.split(".")[0] for slot in SLOTS}
    assert covered <= exports
    assert exports - takes_no_number - covered == set()


@pytest.mark.parametrize("slot", SLOTS)
def test_every_slot_takes_its_valid_value(slot):
    # so a refusal below is the input's doing, not the setup's
    call, valid = SLOTS[slot]
    call(valid)


@pytest.mark.parametrize("slot, kind", CASES)
def test_every_numeric_argument_refuses_what_is_no_number(slot, kind):
    call, valid = SLOTS[slot]
    value = bad_inputs(valid)[kind]
    if (slot, kind) in ACCEPTED:
        call(value)
        return
    with pytest.raises(DetlineError):
        call(value)


@pytest.mark.parametrize(
    "call",
    [
        lambda: detline.BoundaryProjection2([[1, 0], [0]], None),
        lambda: detline.projection_at_infinity().apply([[1], [0, 1]]),
        lambda: detline.hurwitz_zeta_ds0([[0.1, 0.2], [0.3]]),
        lambda: detline.eta_invariant_spectral([[0.1, 0.2], [0.3]]),
        lambda: detline.zeta_det_from_alpha([[0.1, 0.2], [0.3]]),
        lambda: detline.DetPoint(PI0, [[1.0, 2.0], [3.0]], False),
        lambda: detline.DetPoint(PI0, 1.0, [[True, False], [True]]),
        lambda: detline.RationalSeries(None, 2),
        lambda: detline.RationalSeries.from_list(None, 2),
    ],
    ids=[
        "BoundaryProjection2",
        "BoundaryProjection2.apply",
        "hurwitz_zeta_ds0",
        "eta_invariant_spectral",
        "zeta_det_from_alpha",
        "DetPoint.scale",
        "DetPoint.is_zero",
        "RationalSeries",
        "RationalSeries.from_list",
    ],
)
def test_inputs_that_escaped_as_bare_errors_raise_domain_error(call):
    # each ended in numpy's ValueError ("inhomogeneous shape") or a TypeError
    with pytest.raises(detline.DomainError):
        call()


def test_the_bools_the_library_accepted_keep_their_values():
    eye = np.eye(W.dim, dtype=bool)
    assert np.array_equal(detline.ModeOperator(W, eye, (1, 1)).entries, np.eye(W.dim))
    entries = np.array([[True, False], [False, False]])
    assert np.array_equal(detline.BoundaryProjection2(entries, 0.0).entries, [[1, 0], [0, 0]])
