"""Zeta determinants, determinant lines, and boundary-projection curvature
on exactly solvable low-dimensional models.

Modules
-------
specfun        Hurwitz zeta continuation and finite-difference stencils.
interval_cp1   The interval operator i d/dx with projective boundary charts.
grassmannian   Truncated Fourier-mode boundary projections: eta invariants,
               connection forms, curvature, transition determinants.
det_line       Abstract determinant-line points, ratios, multiplicativity.
chern_series   Exact-rational truncated series and the pushforward coefficient.
report         Verification suites, reports, and the curvature grid emitter.
"""

from .errors import (
    DegenerateSpectrum,
    DetlineError,
    DivisionByZeroPoint,
    DomainError,
    EvaluationError,
    NotCommensurable,
    NotDetClass,
    NotInvertible,
    PoleAtOne,
    WindowOverflow,
)
from .specfun import fd_apply, hurwitz_zeta, hurwitz_zeta_ds0
from .interval_cp1 import (
    BoundaryProjection2,
    adjoint_projection,
    alpha_of,
    calderon_projection_interval,
    kahler_form_2x2,
    metric_patching_check,
    projection_at_infinity,
    projection_from_chart,
    quillen_curvature_fd,
    s_of_p,
    zeta_det_closed,
    zeta_det_from_alpha,
    zeta_det_spectral,
)
from .grassmannian import (
    ModeOperator,
    ModeWindow,
    ProjectionFamily,
    connection_form,
    curvature_rkw,
    eta_finite_rank_check,
    eta_invariant_spectral,
    fredholm_det,
    patching_identity_check,
    perturbation_patching_check,
    relative_eta,
    relative_index,
    rotated_family,
    spectral_projection,
    transition_det,
    tr_p_dp_dp,
)
from .det_line import DetPoint, det_point, range_map_index, ratio, tensor_split
from .chern_series import RationalSeries, exp_series, grr_c1_coefficient, todd_series
from .report import GridSpec, ReportDocument, curvature_grid, run_suite

__version__ = "0.1.0"
