"""The tolerance policy: every tolerance and rank threshold of the library and
its one stencil step, each defined once with the reason for its value.

Every identity is checked by making two routes agree, so these values decide
what counts as "agree" and what counts as "singular".  Two checks share a
name only when they share a value and a kind of check.  The modules that use
a public name re-export it (``grassmannian.RANK_SVD_THRESHOLD``,
``interval_cp1.TOL_CURVATURE``, ``specfun.DEFAULT_FD_STEP``, ``report.TOL_*``).
The row tolerances of report's suites are case-table data kept with their rows.
"""

# Decisions inside the library.
ROUNDING_TOL = 1e-12  # exact up to rounding on O(1) numbers: 2x2 projections, tails, Im Tr(P dP dP)
PROJECTION_TOL = 1e-10  # Hermitian idempotent window blocks: d x d products of O(1) entries
RANK_SVD_THRESHOLD = 1e-8  # singular values above it count towards a window rank
CHART_SVD_THRESHOLD = 1e-6  # smallest singular value of a chart map read as invertible
SINGULAR_TOL = 1e-10  # smallest sv / max(1, largest) of a nonzero determinant-line point
DEGENERACY_TOL = 1e-10  # |u - 1| = 2 sin(pi alpha) below it: the interval problem has a zero mode
POLE_DISTANCE = 1e-12  # distance from s = 1 at which hurwitz_zeta reports the pole
LOG_GAMMA_TOL = 1e-10  # hurwitz_zeta_ds0 vs log Gamma(a) - log(2 pi)/2; the kernel errs by 1.4e-15

# The step of every stencil the library takes, nested ones (curvature_rkw)
# included; FdStencil(step=...) still sets another for direct callers of fd_apply.
DEFAULT_FD_STEP = 1e-3  # order-4 truncation h^4 vs rounding eps / h^k

# Report tolerances, one per identity; the suites and the acceptance tests share them.
TOL_ZETA_DET = 1e-8  # spectral determinant, det = 4 |S(P)|^2, metric patching ratio
TOL_CURVATURE = 1e-4  # FD curvature vs Kahler density and Tr(P dP dP), and its truncation bound
TOL_ETA = 1e-10  # eta invariant on the offset grid and under finite-rank flips
TOL_CONNECTION_PATCHING = 1e-5  # log-derivative of a transition determinant vs omega_1 - omega_2
TOL_CONNECTION_CURVATURE = 1e-3  # d omega vs Tr(P [d1 P, d2 P])
TOL_COCYCLE = 1e-10  # product of transition determinants around a triple overlap vs 1
TOL_DET_LINE = 1e-10  # equivalence, transitivity and multiplicativity of points
