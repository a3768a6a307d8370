"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line with the observed figure and the
tolerance it was held to (run with ``pytest -s`` to see them), then asserts.
The identities are measured by the same ``detline.report`` functions that
drive ``detline verify``, which return the two routes of each identity;
``report.worst``, the comparator ``detline verify`` reduces them with, folds
them here too, so a NaN in any sample fails its criterion.  They are held to
the same tolerance constants; each criterion fixes its own sample set, seed,
window and runtime budget:

  1. spectral zeta determinant vs closed form, 1e-8 relative, 21x21 grid, < 10 s
  2. finite-difference curvature vs Kahler density, 1e-4 relative, 25 points, < 30 s
  3. curvature = Tr(P dP dP) coefficient, 1e-4 relative, same grid
  4. metric patching ratios, 1e-8, 50 random pairs; det = 4 |S|^2 on the grid
  5. relative eta/index family, exact integers and 1e-10
  6. connection patching 1e-5, curvature identity 1e-3, cocycle 1e-10
  7. determinant-line algebra on 100 random instances, 1e-10 and exact integers
  8. pushforward coefficient, exact rational arithmetic
"""

import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from detline import chern_series, report
from detline import grassmannian as gr
from detline import interval_cp1 as cp1

GRID = report.chart_grid(-2, 2, 21)
CURVATURE_GRID = report.chart_grid(-0.5, 0.5, 5)


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance criterion {number}: {detail}")


def test_criterion_1_zeta_determinant_grid():
    budget_s = 10.0
    tol = report.TOL_ZETA_DET
    start = time.monotonic()
    worst = report.worst(report.zeta_det_error(GRID))
    spots = report.worst(
        report.Routes([cp1.zeta_det_spectral(z) for z in (0j, 1, 1j)], [2.0, 4.0, 2.0])
    )
    elapsed = time.monotonic() - start
    ok = worst < tol and spots < 4.0 * tol and elapsed < budget_s
    _report(
        1,
        ok,
        f"max rel err {worst:.2e} (tol {tol:.0e}), spot errs {spots:.2e}, "
        f"runtime {elapsed:.2f}s (< {budget_s:.0f}s)",
    )
    assert ok


def test_criterion_2_curvature_equals_kahler_form():
    budget_s = 30.0
    tol = report.TOL_CURVATURE
    start = time.monotonic()
    worst = report.worst(report.curvature_errors(CURVATURE_GRID)[0])
    at_origin = cp1.quillen_curvature_fd(0j)
    elapsed = time.monotonic() - start
    ok = worst < tol and abs(at_origin - 1.0) < tol and elapsed < budget_s
    _report(
        2,
        ok,
        f"max rel err {worst:.2e} at 25 grid points (tol {tol:.0e}), value at origin "
        f"{at_origin:.6f}, runtime {elapsed:.2f}s (< {budget_s:.0f}s)",
    )
    assert ok


def test_criterion_3_curvature_equals_projection_density():
    tol = report.TOL_CURVATURE
    worst = report.worst(report.curvature_errors(CURVATURE_GRID)[1])
    ok = worst < tol
    _report(3, ok, f"max |curvature_fd - Tr(P dP dP)| / k = {worst:.2e} (tol {tol:.0e})")
    assert ok


def test_criterion_4_metric_patching():
    tol = report.TOL_ZETA_DET
    rng = np.random.default_rng(42)
    pairs = []
    while len(pairs) < 50:
        z, w = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(2))
        if min(abs(z + 1), abs(w + 1)) >= cp1.EXCLUSION_RADIUS:
            pairs.append((z, w))
    worst_ratio = report.worst(report.metric_patching_error(pairs))
    worst_model = report.worst(report.model_identity_error(GRID))
    ok = worst_ratio < tol and worst_model < tol
    _report(
        4,
        ok,
        f"50 random ratio pairs: max rel err {worst_ratio:.2e}; det = 4|S(P)|^2 on grid: "
        f"max rel err {worst_model:.2e} (tol {tol:.0e})",
    )
    assert ok


def test_criterion_5_relative_eta_and_index():
    tol = report.TOL_ETA
    window = gr.ModeWindow(6)
    eta_err, index_err = map(report.worst, report.spectral_cut_errors(window))
    worst_flip = report.worst(report.eta_flip_error(np.random.default_rng(43), window))
    worst_eta = report.worst(
        report.eta_offset_error([round(a, 2) for a in np.arange(0.05, 0.951, 0.05)])
    )
    ok = eta_err == index_err == 0.0 and worst_flip < tol and worst_eta < tol
    _report(
        5,
        ok,
        f"eta(-2k) exact: {eta_err == 0.0}; sign-consistent index: {index_err == 0.0}; "
        f"20 finite-rank checks max err {worst_flip:.2e} (tol {tol:.0e}); "
        f"eta(a)=1-2a max err {worst_eta:.2e} (tol {tol:.0e})",
    )
    assert ok


def test_criterion_6_connection_patching_and_curvature():
    window = gr.ModeWindow(5)
    pi0 = gr.spectral_projection(window, 0)
    fam1 = gr.rotated_family(window, (-1, 0))
    fam2 = gr.rotated_family(window, (-1, 1))
    rng = np.random.default_rng(44)
    shape = (window.dim, window.dim)
    noise = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(3))
    s1, s2, s3 = (gr.ModeOperator(window, 0.3 * m, gr.TAIL_ZERO) for m in noise)
    # ten sample points: four on the two-family overlap, six on perturbation charts
    worst_patch = report.worst(
        report.family_patching_error(
            fam1, fam2, pi0,
            [((0.25, 0.2), "t1"), ((0.4, 0.7), "t2"), ((0.6, 0.4), "t1"), ((0.35, 0.9), "t2")],
        ),
        report.chart_patching_error(
            fam1, pi0, s1, s2,
            [(t, d) for t in ((0.2, 0.3), (0.45, 0.7), (0.6, 0.15)) for d in ("t1", "t2")],
        ),
    )
    worst_curv = report.worst(
        report.connection_curvature_error(fam1, pi0, [(0.3, 0.25), (0.5, 0.5), (0.7, 0.8)], None)
    )
    cocycle_err = report.worst(report.cocycle_error(fam1, pi0, (0.44, 0.31), s1, s2, s3))
    patch_tol = report.TOL_CONNECTION_PATCHING
    curv_tol = report.TOL_CONNECTION_CURVATURE
    ok = worst_patch < patch_tol and worst_curv < curv_tol and cocycle_err < report.TOL_COCYCLE
    _report(
        6,
        ok,
        f"patching max err {worst_patch:.2e} at 10 points (tol {patch_tol:.0e}); "
        f"d omega vs Tr(P[d1P,d2P]) max err {worst_curv:.2e} (tol {curv_tol:.0e}); "
        f"cocycle err {cocycle_err:.2e} (tol {report.TOL_COCYCLE:.0e})",
    )
    assert ok


def test_criterion_7_determinant_line_algebra():
    window = gr.ModeWindow(3)
    rng = np.random.default_rng(45)

    def det_classes(count):
        return (report.random_det_class(rng, window, 0.3) for _ in range(count))

    def partial(x, y, rank):
        return gr.ModeOperator(window, x[:, :rank] @ y[:, :rank].conj().T, gr.TAIL_ZERO)

    routes = []
    index_ok = True
    for _ in range(100):
        routes += [
            report.equivalence_error(*det_classes(2), 1.0 + 0j),
            report.transitivity_error(*det_classes(3)),
            report.multiplicativity_error(*det_classes(4)),
        ]
        r0, r1, r2 = sorted(int(x) for x in rng.integers(1, window.dim, size=3))
        u, v, w = (report.random_window_unitary(rng, window.dim) for _ in range(3))
        # ran dom -> ran mid -> ran cod through two partial isometries
        dom, mid, cod = partial(u, u, r2), partial(v, v, r1), partial(w, w, r0)
        index_ok &= report.index_is_additive(partial(v, u, r0), partial(w, v, r0), dom, mid, cod)

    worst = report.worst(*routes)
    ok = worst < report.TOL_DET_LINE and index_ok
    _report(
        7,
        ok,
        f"equivalence/transitivity/multiplicativity over 100 instances: max err "
        f"{worst:.2e} (tol {report.TOL_DET_LINE:.0e}); index additivity exact: {index_ok}",
    )
    assert ok


def test_criterion_8_pushforward_coefficient():
    coefficient_ok = report.grr_coefficient_exact(range(-10, 11))
    linear_ok = all(
        (chern_series.exp_series(m, 4) * chern_series.todd_series(4))[1]
        == Fraction(m) + Fraction(1, 2)
        for m in range(-10, 11)
    )
    ok = coefficient_ok and linear_ok
    _report(
        8,
        ok,
        f"degree-two coefficient exact for m in -10..10: {coefficient_ok}; "
        f"degree-one coefficient m + 1/2 exact: {linear_ok}",
    )
    assert ok


# ---------------------------------------------------------------------------
# a NaN in one sample after the first must fail its criterion: Python's max
# keeps its running value against a NaN, and folded by it these three passed


def _nan_at_second(x):
    x = np.array(x, copy=True)
    x[1] = math.nan
    return x


@pytest.mark.parametrize(
    "criterion, module, name, poison",
    [
        (
            test_criterion_1_zeta_determinant_grid,
            cp1,
            "zeta_det_spectral",
            # the second of the spot values z = 0, 1, i
            lambda n, det, z: math.nan if np.ndim(z) == 0 and z == 1 else det,
        ),
        (
            test_criterion_6_connection_patching_and_curvature,
            gr,
            "perturbation_patching_check",
            # the second point of the first direction's stack
            lambda n, sides, *args: (_nan_at_second(sides[0]), sides[1]) if n == 1 else sides,
        ),
        (
            test_criterion_7_determinant_line_algebra,
            report,
            "multiplicativity_error",
            # the second of the 100 instances
            lambda n, routes, *args: dataclasses.replace(routes, a=math.nan) if n == 2 else routes,
        ),
    ],
    ids=["criterion-1-spot-values", "criterion-6-chart-patching", "criterion-7-multiplicativity"],
)
def test_a_nan_after_the_first_sample_fails_its_criterion(
    monkeypatch, criterion, module, name, poison
):
    original = getattr(module, name)
    poisoned = []

    def planted(*args):
        out = original(*args)
        planted_out = poison(len(poisoned) + 1, out, *args)
        poisoned.append(planted_out is not out)
        return planted_out

    monkeypatch.setattr(module, name, planted)
    with pytest.raises(AssertionError):
        criterion()
    assert sum(poisoned) == 1
