"""Mode-window operator tests: spectral projections, eta invariants,
Fredholm determinants, connection forms, curvature and patching."""

import math
import re
import tracemalloc
from contextlib import contextmanager
from functools import partial
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detline import grassmannian as gr
from detline import report
from detline.errors import (
    DetlineError,
    DomainError,
    EvaluationError,
    NotCommensurable,
    NotDetClass,
    NotInvertible,
    WindowOverflow,
)
from detline.specfun import FdStencil, fd_apply
from detline.tolerances import DEFAULT_FD_STEP, PROJECTION_TOL

RNG = np.random.default_rng(20240811)
W = gr.ModeWindow(4)
PI0 = gr.spectral_projection(W, 0)


def random_unitary(dim, rng=RNG):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def one_point(t):
    """t as the chart layer holds every point: a pair of 1-D float arrays."""
    return tuple(np.array(c, dtype=float, ndmin=1) for c in t)


def window_sigma(scale=0.25, rng=RNG):
    m = scale * (rng.standard_normal((W.dim, W.dim)) + 1j * rng.standard_normal((W.dim, W.dim)))
    return gr.ModeOperator(W, m, gr.TAIL_ZERO)


# ---------------------------------------------------------------------------
# operators and spectral projections


def test_spectral_projection_diagonals():
    w2 = gr.ModeWindow(2)
    assert np.allclose(np.diag(gr.spectral_projection(w2, 0).entries), [0, 0, 1, 1, 1])
    assert np.allclose(np.diag(gr.spectral_projection(w2, 1).entries), [0, 0, 0, 1, 1])
    with pytest.raises(WindowOverflow):
        gr.spectral_projection(w2, 3)


def test_spectral_projection_semigroup():
    for j in (-2, 0, 3):
        for k in (-1, 2):
            composed = gr.spectral_projection(W, j) @ gr.spectral_projection(W, k)
            assert np.allclose(
                composed.entries, gr.spectral_projection(W, max(j, k)).entries, atol=1e-14
            )
            assert composed.tail == gr.spectral_projection(W, max(j, k)).tail


def test_window_embedding_preserves_tails():
    big = gr.ModeWindow(7)
    embedded = PI0.embed_to(big)
    assert embedded.is_projection()
    diag = np.diag(embedded.entries)
    assert diag[big.index(6)] == 1.0 and diag[big.index(-6)] == 0.0


def test_zero_tail_absorbs_composition():
    sigma = window_sigma()
    assert (sigma @ PI0).tail == (0j, 0j)
    assert (PI0 @ sigma).tail == (0j, 0j)
    assert (gr.ModeOperator.identity(W) @ sigma).tail == (0j, 0j)


def test_trace_requires_zero_tails():
    with pytest.raises(NotCommensurable):
        PI0.trace()
    assert (PI0 - PI0).trace() == 0


# ---------------------------------------------------------------------------
# rotated family


def test_rotated_family_endpoints():
    fam = gr.rotated_family(W, (-1, 0))
    assert np.allclose(fam(0.0, 0.77).entries, PI0.entries, atol=1e-14)
    swapped = fam(1.0, 0.0).entries
    expected = PI0.entries.copy()
    expected[W.index(-1), W.index(-1)] = 1.0
    expected[W.index(0), W.index(0)] = 0.0
    assert np.allclose(swapped, expected, atol=1e-14)


def test_rotated_family_rank_constant():
    fam = gr.rotated_family(W, (-2, 1))
    ranks = {fam(t1, t2).window_rank() for t1 in (0.0, 0.3, 0.8) for t2 in (0.1, 0.9)}
    assert ranks == {W.n_max + 1}


def test_rotated_family_closed_form_matches_dense_conjugation():
    # the closed-form 2x2 block equals U Pi_{>=0} U* built densely
    w6 = gr.ModeWindow(6)
    i, j = w6.index(-2), w6.index(3)
    fam = gr.rotated_family(w6, (-2, 3))
    pi0 = gr.spectral_projection(w6, 0).entries
    for t1, t2 in ((0.0, 0.0), (0.13, 0.71), (0.5, 0.25), (0.88, 0.4), (1.0, 0.97)):
        theta, phase = np.pi * t1 / 2.0, np.exp(2j * np.pi * t2)
        u = np.eye(w6.dim, dtype=complex)
        u[i, i] = u[j, j] = np.cos(theta)
        u[i, j] = -np.conj(phase) * np.sin(theta)
        u[j, i] = phase * np.sin(theta)
        assert np.max(np.abs(fam(t1, t2).entries - u @ pi0 @ u.conj().T)) < 1e-14


def test_rotated_family_validates_modes():
    with pytest.raises(DomainError):
        gr.rotated_family(W, (1, 2))
    with pytest.raises(WindowOverflow):
        gr.rotated_family(W, (-9, 0))
    # a tuple of another length and None ended in a bare ValueError or TypeError
    for modes in ((1,), (-1, 0, 1), None, 3):
        with pytest.raises(DomainError, match="modes must be a pair"):
            gr.rotated_family(W, modes)
    with pytest.raises(DomainError, match="must be an integer"):
        gr.rotated_family(W, ("-1", "0"))


@pytest.mark.parametrize(
    "call",
    [
        lambda: gr.ModeWindow(2.5),
        lambda: gr.ModeWindow(3.0),
        lambda: gr.ModeWindow(True),
        lambda: gr.ModeWindow(3).index(1.0),
        lambda: gr.ModeWindow(3).index(np.float64(-2.0)),
        lambda: gr.spectral_projection(W, 2.5),
        lambda: gr.rotated_family(W, (-1.5, 0)),
        lambda: gr.eta_finite_rank_check(0.3, 0.5, W),
        lambda: gr.eta_finite_rank_check(0.3, "0", W),
    ],
    ids=[
        "window-2.5",
        "window-3.0",
        "window-bool",
        "index-float",
        "index-numpy-float",
        "spectral_projection",
        "rotated_family",
        "eta_finite_rank_check",
        "eta_finite_rank_check-string",
    ],
)
def test_modes_must_be_integers(call):
    # ModeWindow(2.5) had dim 6.0, index(1.0) returned 4.0, a cut of 2.5
    # silently cut at 3, and the last two ended in numpy's IndexError
    with pytest.raises(DomainError, match="must be an integer"):
        call()


def test_modes_accept_numpy_integers():
    w = gr.ModeWindow(np.int64(3))
    assert w.dim == 7 and w.index(np.int32(-3)) == 0
    assert np.array_equal(
        gr.spectral_projection(w, np.int64(1)).entries, gr.spectral_projection(w, 1).entries
    )


# ---------------------------------------------------------------------------
# Fredholm determinants


def test_fredholm_det_identity_and_rank_one():
    assert gr.fredholm_det(gr.ModeOperator.identity(W)) == pytest.approx(1.0)
    bump = np.zeros((W.dim, W.dim), dtype=complex)
    bump[W.index(0), W.index(0)] = 1.0
    op = gr.ModeOperator(W, np.eye(W.dim) + bump, gr.TAIL_IDENTITY)
    assert gr.fredholm_det(op) == pytest.approx(2.0)


def test_fredholm_det_multiplicative():
    a = gr.ModeOperator(W, np.eye(W.dim) + 0.4 * random_unitary(W.dim), gr.TAIL_IDENTITY)
    b = gr.ModeOperator(W, np.eye(W.dim) + 0.4 * random_unitary(W.dim), gr.TAIL_IDENTITY)
    assert gr.fredholm_det(a @ b) == pytest.approx(
        gr.fredholm_det(a) * gr.fredholm_det(b), rel=1e-10
    )


def test_fredholm_det_window_stability():
    a = gr.ModeOperator(W, np.eye(W.dim) + 0.4 * random_unitary(W.dim), gr.TAIL_IDENTITY)
    big = gr.ModeWindow(2 * W.n_max)
    assert abs(gr.fredholm_det(a.embed_to(big)) - gr.fredholm_det(a)) < 1e-12


def test_fredholm_det_rejects_non_identity_tails():
    with pytest.raises(NotDetClass):
        gr.fredholm_det(PI0)


# ---------------------------------------------------------------------------
# relative eta and index


def test_relative_eta_spectral_cuts():
    assert gr.relative_eta(gr.spectral_projection(W, 1), PI0) == pytest.approx(-2.0)
    assert gr.relative_eta(PI0, PI0) == 0.0
    for k in range(-4, 5):
        assert gr.relative_eta(gr.spectral_projection(W, k), PI0) == pytest.approx(-2.0 * k)


def test_relative_eta_matches_involution_convention():
    # Tr((P - P_perp) - (Q - Q_perp)) computed directly on ambient operators
    p = gr.spectral_projection(W, 2)
    q = gr.spectral_projection(W, -1)
    ident = gr.ModeOperator.identity(W)
    involution_diff = (2 * p - ident) - (2 * q - ident)
    assert gr.relative_eta(p, q) == pytest.approx(involution_diff.trace().real)


def test_relative_eta_conjugation_invariance():
    u = random_unitary(W.dim)
    conj = gr.ModeOperator(W, u @ PI0.entries @ u.conj().T, gr.TAIL_APS)
    assert gr.relative_eta(conj, PI0) == pytest.approx(0.0, abs=1e-10)


def test_relative_eta_requires_matching_tails():
    zero_proj = gr.ModeOperator(W, PI0.entries.copy(), gr.TAIL_ZERO)
    with pytest.raises(NotCommensurable):
        gr.relative_eta(PI0, zero_proj)


def test_relative_index_examples_and_sign():
    assert gr.relative_index(gr.spectral_projection(W, 1), PI0) == -1
    assert gr.relative_index(PI0, PI0) == 0
    for k in range(-4, 5):
        idx = gr.relative_index(gr.spectral_projection(W, k), PI0)
        assert idx == -k
        eta_half = gr.relative_eta(gr.spectral_projection(W, k), PI0) / 2.0
        assert eta_half == pytest.approx(gr.RELATIVE_INDEX_SIGN * idx)


def test_relative_eta_additivity_on_conjugated_projections():
    def conj_proj(cut):
        u = random_unitary(W.dim)
        return gr.ModeOperator(W, u @ gr.spectral_projection(W, cut).entries @ u.conj().T, gr.TAIL_APS)

    p, q, r = conj_proj(1), conj_proj(0), conj_proj(-2)
    assert gr.relative_eta(p, q) + gr.relative_eta(q, p) == pytest.approx(0.0, abs=1e-10)
    assert gr.relative_eta(p, q) + gr.relative_eta(q, r) == pytest.approx(
        gr.relative_eta(p, r), abs=1e-10
    )
    half = gr.relative_eta(p, q) / 2.0
    assert abs(half - round(half)) < 1e-8


# ---------------------------------------------------------------------------
# spectral eta invariant


def test_eta_spectral_values():
    assert gr.eta_invariant_spectral(0.5) == pytest.approx(0.0, abs=1e-12)
    assert gr.eta_invariant_spectral(0.25) == pytest.approx(0.5, abs=1e-12)
    assert gr.eta_invariant_spectral(0.75) == pytest.approx(-0.5, abs=1e-12)
    for a in np.arange(0.05, 0.96, 0.05):
        assert gr.eta_invariant_spectral(float(a)) == pytest.approx(1.0 - 2.0 * a, abs=1e-10)
        assert gr.eta_invariant_spectral(float(a)) + gr.eta_invariant_spectral(
            float(1.0 - a)
        ) == pytest.approx(0.0, abs=1e-10)


def test_eta_finite_rank_zero_crossing():
    lhs, rhs = gr.eta_finite_rank_check(0.25, 0, gr.ModeWindow(5))
    assert lhs == pytest.approx(2.0, abs=1e-12)
    assert rhs == pytest.approx(2.0, abs=1e-10)


def test_eta_finite_rank_no_crossing():
    for flip in (3, -2, 1):
        lhs, rhs = gr.eta_finite_rank_check(0.3, flip, gr.ModeWindow(5))
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-10)


def test_eta_finite_rank_additivity_of_successive_flips():
    window = gr.ModeWindow(5)
    pairs = [gr.eta_finite_rank_check(0.41, flip, window) for flip in (0, 2)]
    lhs_total = sum(p[0] for p in pairs)
    rhs_total = sum(p[1] for p in pairs)
    assert lhs_total == pytest.approx(rhs_total, abs=1e-10)


def test_eta_finite_rank_window_guard():
    with pytest.raises(WindowOverflow):
        gr.eta_finite_rank_check(0.3, 9, gr.ModeWindow(4))


@pytest.mark.parametrize("a", [0.3 + 0.1j, 0.3 + 0j, "0.3", True, None])
def test_eta_refuses_an_offset_that_is_not_real(a):
    # a complex offset raised a bare TypeError, and "0.3" was read as 0.3;
    # eta_finite_rank_check("0.3", ...) raised a bare TypeError
    with pytest.raises(DomainError, match="offset a must be a real number"):
        gr.eta_invariant_spectral(a)
    with pytest.raises(DomainError, match="offset a must be a real number"):
        gr.eta_finite_rank_check(a, 0, W)


# ---------------------------------------------------------------------------
# connection forms and curvature


def test_connection_form_constant_family_vanishes():
    constant = gr.ProjectionFamily(W, lambda t1, t2: PI0.entries)
    assert abs(gr.connection_form(constant, PI0, (0.5, 0.5), "t1")) < 1e-10


def test_connection_form_vanishes_at_axis():
    fam = gr.rotated_family(W, (-1, 0))
    assert abs(gr.connection_form(fam, PI0, (0.0, 0.4), "t2")) < 1e-8
    assert abs(gr.connection_form(fam, PI0, (0.0, 0.4), "t1")) < 1e-8


def test_connection_form_conjugation_invariance():
    fam = gr.rotated_family(W, (-1, 0))
    u = random_unitary(W.dim)
    conj_fam = gr.ProjectionFamily(W, lambda t1, t2: u @ fam(t1, t2).entries @ u.conj().T)
    conj_base = gr.ModeOperator(W, u @ PI0.entries @ u.conj().T, gr.TAIL_APS)
    t = (0.35, 0.6)
    for direction in ("t1", "t2"):
        assert gr.connection_form(fam, PI0, t, direction) == pytest.approx(
            gr.connection_form(conj_fam, conj_base, t, direction), abs=1e-8
        )


def test_connection_form_chart_guard():
    fam = gr.rotated_family(W, (-1, 0))
    with pytest.raises(NotInvertible, match=r"at t = \(1\.0, 0\.2\)"):
        gr.connection_form(fam, PI0, (1.0, 0.2), "t1")
    w6 = gr.ModeWindow(6)
    fam6, base6 = gr.rotated_family(w6, (-1, 0)), gr.spectral_projection(w6, 0)
    with pytest.raises(NotInvertible, match=r"at t = \(1\.0, 0\.35\)"):
        gr.connection_form(fam6, base6, (1.0, 0.35))


@pytest.mark.parametrize(
    "base_kind, perturbed",
    [
        pytest.param("diagonal", False, id="False"),
        pytest.param("diagonal", True, id="True"),
        pytest.param("conjugated", False, id="conjugated-False"),
        pytest.param("conjugated", True, id="conjugated-True"),
        pytest.param("n_max=25", False, id="n_max=25-False"),
        pytest.param("n_max=25", True, id="n_max=25-True"),
    ],
)
def test_connection_form_matches_numpy_pinv(base_kind, perturbed):
    # the one-SVD pseudo-inverse on the thin chart block equals numpy's pinv
    # of the dense chart map with the same relative cut-off, in the identity
    # chart and in a perturbed chart; on the diagonal base the basis of
    # ran(base) is a set of coordinate columns, on the conjugated base it is
    # not.  The undeclared copy of the family takes d(SV) from the stencil,
    # as the reference does; the declared family traces the declared
    # derivative, against the reference with the exact d P
    w = gr.ModeWindow(25 if base_kind == "n_max=25" else 6)
    rng = np.random.default_rng(6)
    fam = gr.rotated_family(w, (-2, 1))
    base = gr.spectral_projection(w, 0)
    if base_kind == "conjugated":
        v = report.random_window_unitary(np.random.default_rng(8), w.dim)
        base = gr.ModeOperator(w, v @ base.entries @ v.conj().T, gr.TAIL_APS)
    shape = (w.dim, w.dim)
    sig = 0.2 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    sigma = gr.ModeOperator(w, sig, gr.TAIL_ZERO) if perturbed else None
    b = base.entries

    def s_at(t1, t2):
        p = fam(t1, t2).entries
        return (p + p @ sig @ p) @ b if perturbed else p @ b

    st = FdStencil(kind="first-derivative")
    for t in ((0.3, 0.45), (0.71, 0.12)):
        p = fam(*t).entries
        s_pinv = np.linalg.pinv(s_at(*t), rcond=gr.RANK_SVD_THRESHOLD)
        for axis in (0, 1):
            ds = fd_apply(gr._each(s_at), t, st, axis)
            expected = np.trace(s_pinv @ p @ ds @ b)
            value = gr.connection_form(undeclared(fam), base, t, axis, perturbation=sigma)
            assert abs(value - expected) < 1e-12
            dp = exact_dp(fam, t, axis)
            ds = (dp + dp @ sig @ p + p @ sig @ dp) @ b if perturbed else dp @ b
            value = gr.connection_form(fam, base, t, axis, perturbation=sigma)
            assert abs(value - np.trace(s_pinv @ p @ ds @ b)) < 1e-13


# ---------------------------------------------------------------------------
# the chart guards: a certified inverse where a norm bound settles them, the
# SVD rule elsewhere, with the rule's decisions and messages


def with_singular_values(sv, rng, rows):
    """A rows x r block whose singular values are sv (r = len(sv))."""
    return chart_with_singular_values(sv, rng, rows)[0]


def chart_with_singular_values(sv, rng, rows):
    """A rows x r chart map SV whose singular values are sv, the projection P
    onto its range and Y = U*, U an orthonormal basis of ran(P): P SV = SV,
    Y = Y P and Y SV has the singular values of SV."""
    r = len(sv)
    shape = (rows, r)
    u, _ = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return (u * sv) @ report.random_window_unitary(rng, r), u @ u.conj().T, u.conj().T


def svd_rule(*blocks, t, thin=False):
    """The message of the SVD rule's NotInvertible on the blocks in turn, or
    None when every block passes; a connection form takes the singular values
    from a thin SVD with singular vectors (thin=True), whose last bits differ."""
    try:
        for block in blocks:
            if thin:
                sv = np.linalg.svd(block, full_matrices=False)[1]
            else:
                sv = np.linalg.svd(block, compute_uv=False)
            gr._require_chart(sv, t)
    except NotInvertible as exc:
        return str(exc)
    return None


def decision(call):
    """The message of the NotInvertible that call raises, or None and its value."""
    try:
        return None, call()
    except NotInvertible as exc:
        return str(exc), None


R_CERT = 101  # the rank of a chart map on the n_max = 100 window
SPREAD = np.linspace(1.0, 2.0, R_CERT)


def spectrum(smallest, largest=2.0, k=1):
    """r singular values rising from 1 to ``largest``, the last k replaced by
    ``smallest`` to 1.01 ``smallest``."""
    sv = 1.0 + (largest - 1.0) * (SPREAD - 1.0)
    sv[-k:] = smallest * np.linspace(1.0, 1.01, k)
    return sv


CHART_SPECTRA = [
    pytest.param(spectrum(1.0), True, id="well-conditioned"),
    pytest.param(spectrum(1e-6 * (1 - 1e-3)), False, id="just-below-the-guard"),
    pytest.param(spectrum(1e-6 * (1 + 1e-3)), False, id="just-above-the-guard"),
    # every singular value near the smallest: sqrt(r) of them sum into |R^-1|_F
    pytest.param(1.5e-6 * SPREAD, False, id="uncertified-1.5e-6"),
    pytest.param(5e-6 * SPREAD, False, id="uncertified-5e-6"),
    pytest.param(spectrum(1.5e-5, k=R_CERT), False, id="uncertified-1.5e-5"),
    # the guard passes and pinv's cut-off 1e-8 s_max = 1e-5 drops the smallest
    pytest.param(spectrum(5e-6, largest=1e3), False, id="pinv-drops-a-value"),
]


def certified_form(s_v, y):
    """The inverse of the r x r block Y SV when it certifies the chart map SV."""
    return gr._certified_inverse(y @ s_v, gr.RANK_SVD_THRESHOLD, s_v)


def chart_rows(s_v, y, p, t):
    """The r x d block (SV)^+ P that a chart of a family that declares
    nothing traces its d(SV) against, the chart built at the family values p
    on a basis whose products return the chart map SV and Y = V* P as given."""
    basis = SimpleNamespace(right=lambda m: s_v, left=lambda m: y)
    return gr._Chart(gr.ProjectionFamily(W, None), p, basis, None, t).rows


@pytest.mark.parametrize("sv, certified", CHART_SPECTRA)
def test_connection_form_guard_is_the_svd_rule(sv, certified):
    # P is the projection onto ran(SV), as for every chart map
    rng = np.random.default_rng(19)
    d = 2 * R_CERT - 1
    s_v, p, y = (m[None] for m in chart_with_singular_values(sv, rng, d))
    d_sv = rng.standard_normal((1, d, R_CERT)) + 1j * rng.standard_normal((1, d, R_CERT))
    t = one_point((0.25, 0.5))
    expected = svd_rule(s_v, t=t, thin=True)
    assert (certified_form(s_v, y) is not None) == certified
    with np.errstate(all="raise"):
        message, value = decision(lambda: gr._connection_form(chart_rows(s_v, y, p, t), d_sv))
    assert message == expected
    if expected is None:
        reference = np.trace(np.linalg.pinv(s_v[0], rcond=gr.RANK_SVD_THRESHOLD) @ p[0] @ d_sv[0])
        assert abs(value[0] - reference) <= 1e-9 * abs(reference)


def test_connection_form_guard_on_an_exactly_singular_chart_map():
    # a zero column gives Y SV an exact zero pivot: inv raises LinAlgError,
    # and the SVD rule decides
    rng = np.random.default_rng(20)
    s_v, p, y = (m[None] for m in chart_with_singular_values(SPREAD, rng, 2 * R_CERT - 1))
    s_v[..., 40] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(y @ s_v)
    assert certified_form(s_v, y) is None
    t = one_point((0.25, 0.5))
    expected = svd_rule(s_v, t=t, thin=True)
    assert expected is not None
    with np.errstate(all="raise"):
        message, _ = decision(lambda: chart_rows(s_v, y, p, t))
    assert message == expected


def test_connection_form_guard_runs_before_the_stencil():
    # a chart singular at t raises before any stencil sample is taken: the
    # family is read at t alone
    w6 = gr.ModeWindow(6)
    rotated, read = gr.rotated_family(w6, (-1, 0)), []

    def value(t1, t2):
        read.append((t1, t2))
        return rotated(t1, t2).entries

    fam = gr.ProjectionFamily(w6, value)
    with pytest.raises(NotInvertible, match=r"at t = \(1\.0, 0\.35\)"):
        gr.connection_form(fam, gr.spectral_projection(w6, 0), (1.0, 0.35))
    assert read == [(1.0, 0.35)]


@pytest.mark.parametrize("refused", [False, True])
def test_connection_form_guard_on_a_stack_with_one_uncertified_member(refused):
    # one member left open sends the whole stack through the SVD rule, which
    # names the first failing point; the values are the members' own
    rng = np.random.default_rng(21)
    d = 2 * R_CERT - 1
    open_member = spectrum(1e-6 * (1 - 1e-3)) if refused else 5e-6 * SPREAD
    spectra = [spectrum(1.0), open_member, spectrum(0.5)]
    members = [chart_with_singular_values(sv, rng, d) for sv in spectra]
    s_v, p, y = (np.stack(a) for a in zip(*members))
    d_sv = rng.standard_normal((3, d, R_CERT)) + 1j * rng.standard_normal((3, d, R_CERT))
    t = (np.array([0.1, 0.2, 0.3]), np.array([0.4, 0.5, 0.6]))
    certified = [certified_form(m, ym) for m, ym in zip(s_v, y)]
    assert [c is not None for c in certified] == [True, False, True]
    assert certified_form(s_v, y) is None
    expected = svd_rule(s_v, t=t, thin=True)
    assert (expected is not None) == refused
    with np.errstate(all="raise"):
        message, values = decision(lambda: gr._connection_form(chart_rows(s_v, y, p, t), d_sv))
    assert message == expected
    if refused:
        assert "at t = (0.2, 0.5)" in message
        return
    for member, pm, value, dm in zip(s_v, p, values, d_sv):
        reference = np.trace(np.linalg.pinv(member, rcond=gr.RANK_SVD_THRESHOLD) @ pm @ dm)
        assert abs(value - reference) <= 1e-9 * abs(reference)


def tilted_chart_maps(rng, spectra, tilts):
    """Chart maps S_i V (d x r, d = 2 r + 1) with the singular values
    ``spectra`` and one range ran(P), and Y = V* P, so |Y|_2 <= 1, Y = Y P
    and P S_i V = S_i V.  The orthonormal V turns the j-th left singular
    vector u_j of S_1 V away from ran(P) by an angle running from tilts[0]
    (largest singular value) to tilts[1] (smallest): Y S_1 V has the
    singular values cos(angle_j) s_j, so Y can shrink the top of the
    spectrum and leave the bottom."""
    r = len(spectra[0])
    d = 2 * r + 1
    shape = (d, 2 * r)
    frame, _ = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    u, away = frame[:, :r], frame[:, r:]
    angles = np.linspace(*tilts, r)
    v = np.cos(angles) * u + np.sin(angles) * away
    maps = [(u * sv) @ report.random_window_unitary(rng, r) for sv in spectra]
    return maps, v.conj().T @ (u @ u.conj().T)


# log10 of the smallest singular values, about CHART_SVD_THRESHOLD = 1e-6,
# and of the largest, so that pinv's cut-off RANK_SVD_THRESHOLD s_max
# (1e-8 to 1e-4) falls below, among or above them
chart_spectra = st.tuples(
    st.integers(2, 6),
    st.integers(1, 6),
    st.floats(-7.0, -4.0),
    st.floats(0.0, 4.0),
).map(
    lambda a: np.concatenate(
        [np.logspace(a[3], 0.0, a[0]), 10.0 ** a[2] * np.linspace(1.0, 1.01, min(a[1], a[0]))]
    )
)


@given(
    spectra=st.tuples(chart_spectra, chart_spectra).filter(lambda s: len(s[0]) == len(s[1])),
    tilts=st.tuples(st.floats(0.0, 1.55), st.floats(0.0, 1.55)),
    seed=st.integers(0, 2**32 - 1),
)
@example(  # Y shrinks s_max: the cut-off must read it from S V, not from Y S V
    spectra=(np.array([1e4, 1.0, 2e-5]), np.ones(3)), tilts=(1.55, 0.0), seed=0
)
@settings(max_examples=200, deadline=None)
def test_certificate_never_passes_a_chart_map_the_svd_rule_refuses(spectra, tilts, seed):
    # the certificate reads the r x r blocks Y S V, whose singular values lie
    # below those of S V; whatever it passes, the SVD rule on S V passes, and
    # pinv's cut-off keeps every singular value of a connection form's map
    (s1_v, s2_v), y = tilted_chart_maps(np.random.default_rng(seed), spectra, tilts)
    s1_v, s2_v, y = s1_v[None], s2_v[None], y[None]
    t = one_point((0.25, 0.5))
    if gr._certified_inverse(y @ s1_v, gr.RANK_SVD_THRESHOLD, s1_v) is not None:
        assert svd_rule(s1_v, t=t, thin=True) is None
        sv = np.linalg.svd(s1_v[0], compute_uv=False)
        assert sv[-1] > gr.RANK_SVD_THRESHOLD * sv[0]
    if gr._certified_inverse(np.stack([y @ s1_v, y @ s2_v]), 0.0) is not None:
        assert svd_rule(s1_v, s2_v, t=t) is None


def test_chart_guard_refuses_a_base_of_rank_zero():
    # an empty r x r block certifies nothing: the SVD rule refuses rank 0
    w = gr.ModeWindow(3)
    zero = gr.ModeOperator(w, np.zeros((w.dim, w.dim)), gr.TAIL_APS)
    fam = gr.ProjectionFamily(w, lambda t1, t2: np.zeros((w.dim, w.dim)))
    for call in (
        lambda: gr.connection_form(fam, zero, (0.3, 0.2)),
        lambda: gr.transition_det(fam, zero, (0.3, 0.2), None, None),
        lambda: gr.perturbation_patching_check(fam, zero, None, None, (0.3, 0.2)),
        lambda: gr.patching_identity_check(fam, fam, zero, (0.3, 0.2)),
    ):
        with pytest.raises(NotInvertible, match="restriction rank 0 is out of range"):
            call()


RATIO_SPECTRA = [
    pytest.param(spectrum(1.0), spectrum(0.5), True, id="both-certified"),
    pytest.param(spectrum(1e-6 * (1 - 1e-3)), spectrum(1.0), False, id="a1-below-the-guard"),
    pytest.param(spectrum(1.0), spectrum(1e-6 * (1 - 1e-3)), False, id="a2-below-the-guard"),
    pytest.param(spectrum(1e-6 * (1 + 1e-3)), spectrum(1.0), False, id="a1-above-the-guard"),
    # ten and thirty singular values near the smallest, so the determinants
    # stay within the double range
    pytest.param(spectrum(5e-6, k=10), spectrum(1.0), False, id="a1-uncertified"),
    pytest.param(spectrum(1.0), spectrum(1e-5, k=30), False, id="a2-uncertified"),
    # no pseudo-inverse here: a large s_max leaves the ratio's guard certified
    pytest.param(spectrum(5e-6, largest=1e3), spectrum(1.0), True, id="a1-wide-spectrum"),
]


@pytest.mark.parametrize("sv1, sv2, certified", RATIO_SPECTRA)
def test_chart_ratio_guards_are_the_svd_rule(sv1, sv2, certified):
    rng = np.random.default_rng(22)
    a1, a2 = (with_singular_values(sv, rng, R_CERT)[None] for sv in (sv1, sv2))
    t = one_point((0.25, 0.5))
    assert (gr._certified_inverse(np.stack([a1, a2]), 0.0) is not None) == certified
    expected = svd_rule(a1, a2, t=t)
    with np.errstate(all="raise"):
        message, value = decision(lambda: gr._chart_ratio(a1, a2, t))
    assert message == expected
    if expected is None:
        # the determinant's relative rounding grows with the conditions
        reference = np.linalg.det(np.linalg.solve(a2.mT, a1.mT).mT)
        tol = 1e-12 * np.linalg.cond(a1) * np.linalg.cond(a2)
        assert abs(value - reference) <= tol * abs(reference)


def test_chart_ratio_guards_on_a_stack_and_an_exactly_singular_block():
    rng = np.random.default_rng(23)
    t = (np.array([0.1, 0.2, 0.3]), np.array([0.4, 0.5, 0.6]))
    a1 = np.stack([with_singular_values(spectrum(1.0), rng, R_CERT) for _ in range(3)])
    spectra = (spectrum(1.0), spectrum(5e-6, k=10), spectrum(1.0))
    a2 = np.stack([with_singular_values(sv, rng, R_CERT) for sv in spectra])
    # one uncertified member: the whole stack goes through the SVD rule
    assert gr._certified_inverse(np.stack([a1, a2]), 0.0) is None
    with np.errstate(all="raise"):
        message, values = decision(lambda: gr._chart_ratio(a1, a2, t))
    assert message is None and svd_rule(a1, a2, t=t) is None
    reference = np.linalg.det(np.linalg.solve(a2.mT, a1.mT).mT)
    assert np.all(np.abs(values - reference) <= 1e-6 * np.abs(reference))
    # an exactly singular member: inv raises LinAlgError, and the rule names it
    a2[2, :, 7] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(a2)
    expected = svd_rule(a1, a2, t=t)
    assert "at t = (0.3, 0.6)" in expected
    with np.errstate(all="raise"):
        message, _ = decision(lambda: gr._chart_ratio(a1, a2, t))
    assert message == expected


# ---------------------------------------------------------------------------
# is_projection forms its products on the rows and columns a value moves


def dense_is_projection(op):
    """is_projection by its definition: both products on the whole block."""
    m, tol = op.entries, PROJECTION_TOL
    return bool(
        np.max(np.abs(m - m.conj().mT)) <= tol
        and np.max(np.abs(m @ m - m)) <= tol
        and all(abs(t * t - t) <= tol and abs(t.imag) <= tol for t in op.tail)
    )


def random_projection(dim, rng):
    """A dense projection U Pi U* of random rank on dim modes."""
    u = random_unitary(dim, rng)[:, : rng.integers(0, dim + 1)]
    return u @ u.conj().T


def coordinate_with_a_principal_projection(dim, rng):
    """A random 0/1 diagonal with a dense projection written in on the
    principal block of a random index set (empty at times)."""
    m = np.diag(rng.integers(0, 2, dim)).astype(complex)
    rows = rng.choice(dim, size=rng.integers(0, min(dim, 4) + 1), replace=False)
    m[np.ix_(rows, rows)] = random_projection(len(rows), rng)
    return m


# (where, value, set or add) of one planted entry: tiny entries off the
# diagonal, entries no projection has on it, and errors on either side of
# PROJECTION_TOL anywhere, coordinate rows far from the moved ones included
PLANTED = [
    ("off", 1e-300, "set"),
    ("diagonal", 0.5, "set"),
    ("diagonal", 1 + 1e-11j, "set"),
    ("diagonal", 1 + 2j * PROJECTION_TOL, "set"),
    ("anywhere", -1.0, "set"),
    ("anywhere", 2.0, "set"),
    ("anywhere", PROJECTION_TOL / 2, "add"),
    ("anywhere", 2 * PROJECTION_TOL, "add"),
    ("anywhere", 2j * PROJECTION_TOL, "add"),
]


@given(
    n_max=st.integers(1, 6),
    members=st.sampled_from([None, 1, 2, 3]),
    dense=st.booleans(),
    planted=st.sampled_from([None, *PLANTED]),
    tail=st.sampled_from(
        [gr.TAIL_APS, gr.TAIL_IDENTITY, gr.TAIL_ZERO, (0.5, 0.0), (1 + 1e-11j, 0.0)]
    ),
    seed=st.integers(0, 2**32 - 1),
)
@example(  # a coordinate stack with a tail no projection has
    n_max=2, members=2, dense=False, planted=None, tail=(0.5, 0.0), seed=5
)
@example(  # a coordinate stack with an error planted in a coordinate row
    n_max=2, members=2, dense=False, planted=PLANTED[-2], tail=gr.TAIL_APS, seed=5
)
@settings(max_examples=400, deadline=None)
def test_is_projection_decides_as_the_dense_definition(n_max, members, dense, planted, tail, seed):
    rng, w = np.random.default_rng(seed), gr.ModeWindow(n_max)
    make = random_projection if dense else coordinate_with_a_principal_projection
    m = np.stack([make(w.dim, rng) for _ in range(members or 1)])
    if planted is not None:
        where, value, how = planted
        k, i, j = rng.integers(len(m)), rng.integers(w.dim), rng.integers(w.dim)
        if where == "diagonal":
            j = i
        elif where == "off":
            j = (i + rng.integers(1, w.dim)) % w.dim
        m[k, i, j] = value if how == "set" else m[k, i, j] + value
    op = gr.ModeOperator(w, m if members else m[0], tail)
    assert op.is_projection() == dense_is_projection(op)


def recorded_moves(monkeypatch):
    """The index sets _moved_rows returns from here on, in order."""
    moved, seen = gr._moved_rows, []

    def recording(m):
        rows = moved(m)
        seen.append(rows.tolist())
        return rows

    monkeypatch.setattr(gr, "_moved_rows", recording)
    return seen


@pytest.mark.parametrize("n_max", [6, 100])
def test_the_moved_rows_of_a_rotated_value_are_its_support(monkeypatch, n_max):
    # the products run on the 2 x 2 block of the two modes the family
    # rotates, on a value and on a stack of values at several points t
    w, rng = gr.ModeWindow(n_max), np.random.default_rng(n_max)
    seen = recorded_moves(monkeypatch)
    for _ in range(10):
        modes = (-int(rng.integers(1, n_max + 1)), int(rng.integers(0, n_max + 1)))
        fam = gr.rotated_family(w, modes)
        t = rng.uniform(0.05, 0.95, size=(2, 3))
        assert fam(*t[:, 0]).is_projection()
        gr._projections_at(fam, tuple(t))
        assert seen == [list(fam._declaration.support)] * 2
        seen.clear()


def test_coordinate_blocks_move_no_row(monkeypatch):
    # spectral cuts and the diagonal blocks of eta_finite_rank_check leave
    # the tail rule alone: the one pass of _moved_rows finds that they move
    # no row, and is_projection forms no product
    seen, checked = recorded_moves(monkeypatch), []
    is_projection = gr.ModeOperator.is_projection
    monkeypatch.setattr(
        gr.ModeOperator, "is_projection", lambda op: checked.append(op) or is_projection(op)
    )
    for w in (gr.ModeWindow(6), gr.ModeWindow(100)):
        for k in (-w.n_max, -1, 0, 1, w.n_max):
            assert gr.spectral_projection(w, k).is_projection()
        for flip in (-2, 0, 3):
            lhs, rhs = gr.eta_finite_rank_check(0.3, flip, w)
            assert abs(lhs - rhs) < 1e-10
    # per window five cuts, and three eta checks of two blocks each
    assert len(checked) == 2 * (5 + 3 * 2) and seen == [[]] * len(checked)
    assert all(gr._moved_rows(op.entries).size == 0 for op in checked)


def test_a_stack_checks_the_union_of_the_rows_its_members_move():
    w6 = gr.ModeWindow(6)
    fam1, fam2 = gr.rotated_family(w6, (-1, 0)), gr.rotated_family(w6, (-3, 2))
    good1, good2 = fam1(0.3, 0.2).entries, fam2(0.6, 0.7).entries
    bad1, bad2 = good1.copy(), good2.copy()
    (i, _), (j, k) = fam1._declaration.support, fam2._declaration.support
    bad1[i, i] += 1e-9  # Hermitian, not idempotent
    bad2[k, j] += 1e-9  # no longer Hermitian
    union = sorted(fam1._declaration.support + fam2._declaration.support)
    assert gr._moved_rows(np.stack([good1, good2])).tolist() == union
    for stack, projection in (
        ([good1, good2], True),
        ([good1, bad2], False),
        ([bad1, good2], False),
        ([good2, good1, bad2], False),
    ):
        op = gr.ModeOperator(w6, np.stack(stack), gr.TAIL_APS)
        assert op.is_projection() is projection is dense_is_projection(op)
    # the first failing point is named, whichever rows the members move
    values = {0.1: good1, 0.2: good2, 0.7: bad2, 0.8: bad1}
    fam = gr.ProjectionFamily(w6, lambda t1, t2: values[t1])
    t = (np.array(list(values)), np.full(4, 0.5))
    with pytest.raises(DomainError, match=r"family value at \(0\.7, 0\.5\) is not a projection"):
        gr._projections_at(fam, t)


# ---------------------------------------------------------------------------
# projections are checked once per public call, at the call's own point t


def test_rotated_family_values_are_hermitian_idempotents():
    # family evaluations are not checked one by one, so check the family here
    rng = np.random.default_rng(11)
    w6 = gr.ModeWindow(6)
    hermitian, idempotent = [], []
    for _ in range(200):
        modes = (-int(rng.integers(1, 7)), int(rng.integers(0, 7)))
        p = gr.rotated_family(w6, modes)(*rng.uniform(0.0, 1.0, size=2)).entries
        hermitian.append(np.max(np.abs(p - p.conj().T)))
        idempotent.append(np.max(np.abs(p @ p - p)))
    assert np.max(hermitian) < 1e-14 and np.max(idempotent) < 1e-14


ROTATED = gr.rotated_family(W, (-1, 0))
CHECKED_AT = (0.4, 0.3)
NOT_PROJECTION_AT_T = gr.ProjectionFamily(
    W, lambda t1, t2: (2.0 if (t1, t2) == CHECKED_AT else 1.0) * ROTATED(t1, t2).entries
)


FAMILY_ENTRY_POINTS = [
    pytest.param(lambda fam, t: gr.connection_form(fam, PI0, t), id="connection_form"),
    pytest.param(lambda fam, t: gr.curvature_rkw(fam, PI0, t), id="curvature_rkw"),
    pytest.param(lambda fam, t: gr.tr_p_dp_dp(fam, t), id="tr_p_dp_dp"),
    pytest.param(lambda fam, t: gr.transition_det(fam, PI0, t, None, None), id="transition_det"),
    pytest.param(
        lambda fam, t: gr.perturbation_patching_check(fam, PI0, None, None, t),
        id="perturbation_patching_check",
    ),
    pytest.param(
        lambda fam, t: gr.patching_identity_check(fam, ROTATED, PI0, t),
        id="patching_identity_check-fam1",
    ),
    pytest.param(
        lambda fam, t: gr.patching_identity_check(ROTATED, fam, PI0, t),
        id="patching_identity_check-fam2",
    ),
]


@pytest.mark.parametrize("entry", FAMILY_ENTRY_POINTS)
def test_family_value_that_is_no_projection_at_t_raises(entry):
    # the family is a projection at every stencil point and fails only at t
    with pytest.raises(DomainError, match=r"family value at \(0\.4, 0\.3\) is not a projection"):
        entry(NOT_PROJECTION_AT_T, CHECKED_AT)
    entry(ROTATED, CHECKED_AT)


# finite at t and at the samples below it in t1, non-finite from the stencil
# sample t1 + 2h on
NON_FINITE_AT_A_SAMPLE = gr.ProjectionFamily(
    W,
    lambda t1, t2: (math.nan if t1 > CHECKED_AT[0] + 1.5 * DEFAULT_FD_STEP else 1.0)
    * ROTATED(t1, t2).entries,
)


@pytest.mark.parametrize("entry", FAMILY_ENTRY_POINTS)
def test_family_value_that_is_not_finite_at_a_stencil_sample_raises(entry, request):
    # stencil samples are not wrapped or checked one by one: fd_apply refuses
    # the non-finite result that every sample enters, or the error it raised
    assert np.isfinite(NON_FINITE_AT_A_SAMPLE(*CHECKED_AT).entries).all()
    if "transition_det" in request.node.name:  # reads the family at t alone
        assert entry(NON_FINITE_AT_A_SAMPLE, CHECKED_AT) == entry(ROTATED, CHECKED_AT)
        return
    with pytest.raises(DetlineError):
        entry(NON_FINITE_AT_A_SAMPLE, CHECKED_AT)


def test_decomposition_and_projection_check_counts(monkeypatch):
    # per public call on the spectral cut Pi_{>=0}: no d x d decomposition,
    # since its basis is a selection of coordinate columns (one eigh of the
    # 13 x 13 base block before), and two projection checks, of the base,
    # which on a coordinate block reads its tails alone, and of the family
    # at t; tr_p_dp_dp takes no base and checks the family alone.  A
    # conjugated base takes that eigh.  Every other decomposition runs on a thin
    # 13 x 7 chart block or on an r x r = 7 x 7 block of a transition ratio.  The one
    # ModeOperator built per family is its checked value at t: stencil
    # samples read the block function unwrapped (5, 41, 9, 13 and 18
    # constructions when every sample was wrapped).
    # The rotated families declare their derivatives, so the block function
    # is read at t alone by connection_form and tr_p_dp_dp, and at t and the
    # eight outer samples by curvature_rkw (5, 41 and 9 reads when d(SV) and
    # d P were stencils); the undeclared conjugate reads it at t and at the
    # four samples of its stencil.  A patching check evaluates each family
    # once per stencil sample for its transition ratio (13 and 18 block
    # function calls when each route took its own samples).  No QR runs on
    # a chart map: every solve is against an r x r block Y S V, Y = V* P
    calls, checks, built, blocks = [], [], [], []

    def counted(name, inner):
        def call(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return inner(a, *args, **kwargs)

        return call

    for name in ("svd", "eigh", "qr", "inv", "solve", "det"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    is_projection = gr.ModeOperator.is_projection

    def counted_is_projection(op, *args, **kwargs):
        checks.append(op)
        return is_projection(op, *args, **kwargs)

    monkeypatch.setattr(gr.ModeOperator, "is_projection", counted_is_projection)
    w6 = gr.ModeWindow(6)
    fam, base = gr.rotated_family(w6, (-2, 1)), gr.spectral_projection(w6, 0)
    fam2 = gr.rotated_family(w6, (-1, 2))
    for family in (fam, fam2):
        block_function = family._map

        def counted_block(t1, t2, block_function=block_function):
            blocks.append((t1, t2))
            return block_function(t1, t2)

        family._map = counted_block
    rng = np.random.default_rng(3)
    sigma1, sigma2 = (
        gr.ModeOperator(w6, 0.1 * rng.standard_normal((w6.dim, w6.dim)), gr.TAIL_ZERO)
        for _ in range(2)
    )

    post_init = gr.ModeOperator.__post_init__

    def counted_post_init(op):
        built.append(op)
        post_init(op)

    monkeypatch.setattr(gr.ModeOperator, "__post_init__", counted_post_init)

    def counts(call):
        calls.clear()
        checks.clear()
        built.clear()
        blocks.clear()
        call()
        assert [c for c in calls if c[0] == "qr"] == []
        return {c: calls.count(c) for c in calls}, len(checks), len(built), len(blocks)

    t = (0.35, 0.6)
    # a connection form: one inverse of the r x r block Y S V, which settles
    # the chart guard and the pseudo-inverse (a thin QR of the 13 x 7 chart
    # map as well before, and a thin SVD of it before the certificate)
    form = {("inv", (1, 7, 7)): 1}
    # a transition ratio: one stacked inverse of its two r x r blocks for
    # both chart guards and one r x r det (a thin QR of S_2 V for
    # transition_det before, and two values-only SVDs of 7 x 7 blocks and a
    # solve before the certificate)
    ratio = {("inv", (2, 1, 7, 7)): 1, ("det", (1, 7, 7)): 1}
    assert counts(lambda: gr.connection_form(fam, base, t)) == (form, 2, 1, 1)
    eight = {key: 8 * n for key, n in form.items()}
    assert counts(lambda: gr.curvature_rkw(fam, base, t)) == (eight, 2, 1, 9)
    assert counts(lambda: gr.tr_p_dp_dp(fam, t)) == ({}, 1, 1, 1)
    assert counts(lambda: gr.transition_det(fam, base, t, sigma1, sigma2)) == (ratio, 2, 1, 1)
    # five ratios (four stencil points and t) and two connection forms
    five = {key: 5 * n for key, n in ratio.items()}
    two = {key: 2 * n for key, n in form.items()}
    assert counts(lambda: gr.perturbation_patching_check(fam, base, sigma1, sigma2, t)) == (
        {**five, **two},
        2,
        1,
        5,
    )
    assert counts(lambda: gr.patching_identity_check(fam, fam2, base, t)) == (
        {**five, **two},
        3,
        2,
        10,
    )
    # a base that is no coordinate projection: one eigh of its block, the
    # only d x d decomposition, and one projection check of the base (the
    # conjugated family's block function builds a ModeOperator per call)
    u = report.random_window_unitary(np.random.default_rng(8), w6.dim)
    conj_fam, conj_base = conjugated(fam, base.entries, u)
    eigh = {("eigh", (13, 13)): 1}
    assert counts(lambda: gr.connection_form(conj_fam, conj_base, t)) == (
        {**eigh, **form},
        2,
        6,
        5,
    )


def test_curvature_matches_commutator_density():
    fam = gr.rotated_family(W, (-1, 0))
    for t in ((0.5, 0.5), (0.3, 0.85)):
        domega = gr.curvature_rkw(fam, PI0, t)
        density = gr.tr_p_dp_dp(fam, t)
        assert abs(domega - density) < 1e-3
        # the density is purely imaginary for this unitary family
        assert abs(density.real) < 1e-8


def test_curvature_of_constant_family_vanishes():
    constant = gr.ProjectionFamily(W, lambda t1, t2: PI0.entries)
    assert abs(gr.curvature_rkw(constant, PI0, (0.4, 0.4))) < 1e-8


def test_curvature_chart_independence_under_perturbation():
    fam = gr.rotated_family(W, (-1, 0))
    t = (0.42, 0.58)
    base_value = gr.tr_p_dp_dp(fam, t)
    for sigma in (window_sigma(), window_sigma()):
        assert abs(gr.curvature_rkw(fam, PI0, t, perturbation=sigma) - base_value) < 1e-3


def dense_family(w, rng, cut=0):
    """P(t) = U Pi_{>=cut} U* with U = exp(i (t1 A + t2 B)) for Hermitian A, B:
    every window mode moves, at several frequencies."""

    def hermitian():
        m = 0.3 * (rng.standard_normal((w.dim, w.dim)) + 1j * rng.standard_normal((w.dim, w.dim)))
        return (m + m.conj().T) / 2

    a, b, pi0 = hermitian(), hermitian(), gr.spectral_projection(w, cut).entries

    def value(t1, t2):
        lam, vec = np.linalg.eigh(t1 * a + t2 * b)
        u = (vec * np.exp(1j * lam)) @ vec.conj().T
        return u @ pi0 @ u.conj().T

    return gr.ProjectionFamily(w, value)


@pytest.mark.parametrize("chart", ["identity", "perturbed"])
def test_curvature_on_a_dense_family_matches_the_density(chart):
    # both stencil levels of curvature_rkw run at DEFAULT_FD_STEP; an inner
    # step of 1e-5 left errors up to 9.6e-7 here, one step leaves 2.6e-11
    rng = np.random.default_rng(5)
    w = gr.ModeWindow(6)
    fam = dense_family(w, rng)
    noise = rng.standard_normal((2, w.dim, w.dim))
    sigma = gr.ModeOperator(w, 0.1 * (noise[0] + 1j * noise[1]), gr.TAIL_ZERO)
    perturbation = sigma if chart == "perturbed" else None
    base = gr.spectral_projection(w, 0)
    for t in ((0.2, 0.3), (0.5, 0.1), (0.35, 0.6), (0.7, 0.45)):
        domega = gr.curvature_rkw(fam, base, t, perturbation)
        assert abs(domega - gr.tr_p_dp_dp(fam, t)) < 1e-9


@pytest.mark.parametrize("chart", ["identity", "perturbed"])
def test_rotated_curvature_rkw_matches_the_closed_form(chart):
    # against -i pi^2 sin(pi t1): worst error 1.4e-9 over these points
    # (1.9e-8 with an inner step of 1e-5)
    sigma = window_sigma(0.1, np.random.default_rng(8)) if chart == "perturbed" else None
    fam = gr.rotated_family(W, (-2, 1))
    for t1, t2 in ((0.3, 0.2), (0.62, 0.9), (0.45, 0.5), (0.15, 0.7), (0.8, 0.35)):
        expected = -1j * np.pi**2 * np.sin(np.pi * t1)
        assert abs(gr.curvature_rkw(fam, PI0, (t1, t2), sigma) - expected) < 5e-9


def test_rotated_curvature_closed_form():
    # Bloch-sphere reduction: the commutator density of the rotated family is
    # -i pi^2 sin(pi t1), independent of t2 and of the rotated mode pair
    fam = gr.rotated_family(W, (-2, 1))
    for t1, t2 in ((0.3, 0.2), (0.62, 0.9)):
        expected = -1j * np.pi**2 * np.sin(np.pi * t1)
        assert gr.tr_p_dp_dp(fam, (t1, t2)) == pytest.approx(expected, abs=1e-8)


# ---------------------------------------------------------------------------
# patching identities


def test_patching_same_family_is_zero():
    fam = gr.rotated_family(W, (-1, 0))
    lhs, rhs = gr.patching_identity_check(fam, fam, PI0, (0.4, 0.3), "t1")
    assert abs(lhs) < 1e-10 and abs(rhs) < 1e-10


def test_patching_two_rotated_families():
    fam1 = gr.rotated_family(W, (-1, 0))
    fam2 = gr.rotated_family(W, (-1, 1))
    for t in ((0.25, 0.6), (0.55, 0.15)):
        for direction in ("t1", "t2"):
            lhs, rhs = gr.patching_identity_check(fam1, fam2, PI0, t, direction)
            assert abs(lhs - rhs) < 1e-5


def test_perturbation_patching_nontrivial():
    fam = gr.rotated_family(W, (-1, 0))
    sigma1, sigma2 = window_sigma(0.3), window_sigma(0.3)
    seen_nonzero = False
    for t in ((0.3, 0.2), (0.5, 0.75)):
        for direction in ("t1", "t2"):
            lhs, rhs = gr.perturbation_patching_check(fam, PI0, sigma1, sigma2, t, direction)
            assert abs(lhs - rhs) < 1e-5
            seen_nonzero = seen_nonzero or abs(rhs) > 1e-3
    assert seen_nonzero, "perturbation charts should produce nonzero connection differences"


def test_transition_cocycle():
    fam = gr.rotated_family(W, (-1, 0))
    sigmas = [window_sigma(0.3) for _ in range(3)]
    t = (0.37, 0.21)
    product = (
        gr.transition_det(fam, PI0, t, sigmas[0], sigmas[1])
        * gr.transition_det(fam, PI0, t, sigmas[1], sigmas[2])
        * gr.transition_det(fam, PI0, t, sigmas[2], sigmas[0])
    )
    assert abs(product - 1.0) < 1e-10


def test_transition_det_closed_form():
    # S_sigma + (I - P) factors as (I + P sigma P)(S_0 + I - P), so the
    # transition function collapses to det(I + P sigma1 P) / det(I + P sigma2 P)
    fam = gr.rotated_family(W, (-1, 0))
    sigma1, sigma2 = window_sigma(0.3), window_sigma(0.3)
    t = (0.44, 0.68)
    p = fam(*t).entries
    eye = np.eye(W.dim)

    def closed(sig):
        return np.linalg.det(eye + p @ sig.entries @ p)

    expected = closed(sigma1) / closed(sigma2)
    assert gr.transition_det(fam, PI0, t, sigma1, sigma2) == pytest.approx(expected, rel=1e-10)


def conjugated_setting(base_kind):
    # a rotated family and Pi_{>=0}, both conjugated by one constant unitary
    # for the "conjugated" base, so that ran(base) has no coordinate basis
    w = gr.ModeWindow(25 if base_kind == "n_max=25" else 6)
    fam, base = gr.rotated_family(w, (-2, 1)), gr.spectral_projection(w, 0)
    if base_kind == "conjugated":
        u = report.random_window_unitary(np.random.default_rng(8), w.dim)
        fam, base = conjugated(fam, base.entries, u)
    return w, fam, base


def conjugated(fam, base, u):
    w = fam.window
    return (
        gr.ProjectionFamily(w, lambda t1, t2: u @ fam(t1, t2).entries @ u.conj().T),
        gr.ModeOperator(w, u @ base @ u.conj().T, gr.TAIL_APS),
    )


def dense_ratio(s1, s2, q):
    # det((S_1 + I - q)(S_2 + I - q)^{-1}) on the full window
    eye = np.eye(len(q))
    return np.linalg.det((s1 + eye - q) @ np.linalg.inv(s2 + eye - q))


@pytest.mark.parametrize("base_kind", ["diagonal", "conjugated", "n_max=25"])
def test_transition_det_matches_dense_definition(base_kind):
    # the r x r route against det((S_1 + I - P)(S_2 + I - P)^{-1}) with the
    # d x d chart maps S_i = (P + P sigma_i P) base
    w, fam, base = conjugated_setting(base_kind)
    rng = np.random.default_rng(4)
    shape = (w.dim, w.dim)
    sigmas = [
        0.2 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) for _ in range(2)
    ]
    b = base.entries
    for t in ((0.3, 0.45), (0.71, 0.12)):
        p = fam(*t).entries
        s1, s2 = ((p + p @ sig @ p) @ b for sig in sigmas)
        expected = dense_ratio(s1, s2, p)
        charts = [gr.ModeOperator(w, sig, gr.TAIL_ZERO) for sig in sigmas]
        assert abs(gr.transition_det(fam, base, t, *charts) - expected) < 1e-12 * abs(expected)
        # the identity chart against a perturbation chart
        expected = dense_ratio(p @ b, s2, p)
        value = gr.transition_det(fam, base, t, None, charts[1])
        assert abs(value - expected) < 1e-12 * abs(expected)


@pytest.mark.parametrize("base_kind", ["diagonal", "conjugated", "n_max=25"])
def test_patching_identity_lhs_matches_dense_definition(base_kind):
    # d log of det((P_1 B + I - B)(P_2 B + I - B)^{-1}) by the same stencil;
    # P_2 = u P_1 u* for a unitary u near the identity that does not commute
    # with B, so the ratio moves in both directions (for two rotated families
    # it is identically 1)
    w, fam1, base = conjugated_setting(base_kind)
    rng = np.random.default_rng(9)
    h = rng.standard_normal((w.dim, w.dim)) + 1j * rng.standard_normal((w.dim, w.dim))
    eigenvalues, vectors = np.linalg.eigh(0.5 / np.sqrt(w.dim) * (h + h.conj().T))
    u = (vectors * np.exp(1j * eigenvalues)) @ vectors.conj().T
    fam2, _ = conjugated(fam1, base.entries, u)
    b = base.entries
    st = FdStencil(kind="first-derivative")

    def g(t1, t2):
        return dense_ratio(fam1(t1, t2).entries @ b, fam2(t1, t2).entries @ b, b)

    moved = 0.0
    for t in ((0.3, 0.45), (0.62, 0.2)):
        for axis in (0, 1):
            lhs, _ = gr.patching_identity_check(fam1, fam2, base, t, axis)
            expected = fd_apply(gr._each(g), t, st, axis) / g(*t)
            assert abs(lhs - expected) < 1e-10
            moved = max(moved, abs(expected))
    assert moved > 0.4


def mp_block(t1, t2):
    # rotated_family's 2 x 2 block in closed form, at mpmath's precision
    theta = mpmath.pi * mpmath.mpf(t1) / 2
    phase = mpmath.exp(2j * mpmath.pi * mpmath.mpf(t2))
    sin, cos = mpmath.sin(theta), mpmath.cos(theta)
    return [[sin * sin, -mpmath.conj(phase) * sin * cos], [-phase * sin * cos, cos * cos]]


def mp_rotated_value(w, modes, t):
    # rotated_family's closed form at 40 digits
    i, j = w.index(modes[0]), w.index(modes[1])
    p = mpmath.matrix(gr.spectral_projection(w, 0).entries.real.tolist())
    (p[i, i], p[i, j]), (p[j, i], p[j, j]) = mp_block(*t)
    return p


def mp_block_derivative(t, axis):
    """The derivative along axis of rotated_family's 2 x 2 block at t, by
    mpmath.diff of its closed form at 30 digits, rounded to complex."""
    with mpmath.workdps(30):

        def entry(k, l):
            def along(x):
                return mp_block(*(x if a == axis else c for a, c in enumerate(t)))[k][l]

            return complex(mpmath.diff(along, mpmath.mpf(t[axis])))

        return np.array([[entry(k, l) for l in range(2)] for k in range(2)])


def exact_dp(fam, t, axis):
    """d P along axis of a rotated family at t: mp_block_derivative written
    into the rows and columns the family declares, zero elsewhere."""
    dp = np.zeros((fam.window.dim,) * 2, dtype=complex)
    dp[np.ix_(*[fam._declaration.support] * 2)] = mp_block_derivative(t, axis)
    return dp


def undeclared(fam):
    """fam's block function as a family that declares nothing: every chart
    entry point takes its derivatives from stencils."""
    return gr.ProjectionFamily(fam.window, fam._map)


def test_transition_det_near_the_identity_chart_singularity():
    # at t1 = 1 - 1e-6 the chart maps keep singular values near 1.6e-6, above
    # CHART_SVD_THRESHOLD, while the identity-extended d x d representatives
    # S_i + I - P have singular values near 3e-12
    rng = np.random.default_rng(1)
    sigmas = [window_sigma(0.25, rng) for _ in range(3)]
    fam = gr.rotated_family(W, (-1, 0))
    t = (1 - 1e-6, 0.2)
    with mpmath.workdps(40):
        p = mp_rotated_value(W, (-1, 0), t)
        b, eye = mpmath.matrix(PI0.entries.real.tolist()), mpmath.eye(W.dim)

        def hat(sigma):
            sig = mpmath.matrix(sigma.entries.tolist())
            return (p + p * sig * p) * b + eye - p

        expected = complex(mpmath.det(hat(sigmas[0]) * hat(sigmas[1]) ** -1))
    assert abs(gr.transition_det(fam, PI0, t, sigmas[0], sigmas[1]) - expected) < 1e-12
    cocycle = (
        gr.transition_det(fam, PI0, t, sigmas[0], sigmas[1])
        * gr.transition_det(fam, PI0, t, sigmas[1], sigmas[2])
        * gr.transition_det(fam, PI0, t, sigmas[2], sigmas[0])
    )
    assert abs(cocycle - 1.0) < 1e-10
    for t1, shown in ((1 - 1e-8, r"0\.99999999"), (1.0, r"1\.0")):
        with pytest.raises(NotInvertible, match=rf"at t = \({shown}, 0\.2\)"):
            gr.transition_det(fam, PI0, (t1, 0.2), sigmas[0], sigmas[1])


@pytest.mark.parametrize(
    "t1, dense_tol", [(0.99, 1e-13), (0.999, 2e-11)], ids=["t1=0.99", "t1=0.999"]
)
def test_chart_layer_near_a_singular_identity_chart(t1, dense_tol):
    # the identity chart P V has the singular value cos(pi t1 / 2), 1.6e-2
    # and 1.6e-3, so Y = V* P has it too and the blocks Y S_i V of the
    # perturbation charts carry its square; the chart layer solves against
    # them without losing digits.  The dense definition rounds by about
    # eps / cos^2 itself (6.2e-14 and 9.4e-12 from the 30-digit value, and
    # every route of the chart layer agrees with it to that); the closed
    # form det(I + P sigma_1 P) / det(I + P sigma_2 P) is well conditioned
    near_a_singular_identity_chart(*conjugated_setting("n_max=25"), t1, dense_tol)


def near_a_singular_identity_chart(w, fam, base, t1, dense_tol, form_tol=1e-13):
    rng = np.random.default_rng(4)
    shape = (w.dim, w.dim)
    sigmas = [
        0.2 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) for _ in range(2)
    ]
    charts = [gr.ModeOperator(w, sig, gr.TAIL_ZERO) for sig in sigmas]
    b, eye = base.entries, np.eye(w.dim)
    t = (t1, 0.45)
    p = fam(*t).entries
    s1, s2 = ((p + p @ sig @ p) @ b for sig in sigmas)
    value = gr.transition_det(fam, base, t, *charts)
    dense = dense_ratio(s1, s2, p)
    assert abs(value - dense) <= dense_tol * abs(dense)
    closed = np.linalg.det(eye + p @ sigmas[0] @ p) / np.linalg.det(eye + p @ sigmas[1] @ p)
    assert abs(value - closed) <= 5e-14 * abs(closed)

    def s_at(t1, t2):
        p = fam(t1, t2).entries
        return (p + p @ sigmas[0] @ p) @ b

    # the stencil route on the undeclared copy, the declared route against
    # the reference with the exact d P
    st = FdStencil(kind="first-derivative")
    s_pinv = np.linalg.pinv(s_at(*t), rcond=gr.RANK_SVD_THRESHOLD)
    for axis in (0, 1):
        ds = fd_apply(gr._each(s_at), t, st, axis)
        expected = np.trace(s_pinv @ p @ ds @ b)
        value = gr.connection_form(undeclared(fam), base, t, axis, perturbation=charts[0])
        assert abs(value - expected) <= form_tol * abs(expected)
        dp = exact_dp(fam, t, axis)
        expected = np.trace(s_pinv @ p @ (dp + dp @ sigmas[0] @ p + p @ sigmas[0] @ dp) @ b)
        value = gr.connection_form(fam, base, t, axis, perturbation=charts[0])
        assert abs(value - expected) <= form_tol * abs(expected)


W6 = gr.ModeWindow(6)
ROTATED6 = gr.rotated_family(W6, (-1, 0))


@pytest.mark.parametrize(
    "entry",
    [
        lambda fam, base, t, charts: gr.connection_form(fam, base, t, perturbation=charts[0]),
        lambda fam, base, t, charts: gr.curvature_rkw(fam, base, t, perturbation=charts[0]),
        lambda fam, base, t, charts: gr.transition_det(fam, base, t, *charts),
        lambda fam, base, t, charts: gr.perturbation_patching_check(fam, base, *charts, t),
        lambda fam, base, t, charts: gr.patching_identity_check(fam, ROTATED6, base, t),
        lambda fam, base, t, charts: gr.patching_identity_check(ROTATED6, fam, base, t),
    ],
    ids=[
        "connection_form",
        "curvature_rkw",
        "transition_det",
        "perturbation_patching_check",
        "patching_identity_check-fam1",
        "patching_identity_check-fam2",
    ],
)
def test_chart_entry_points_refuse_a_family_of_other_rank(entry):
    # P = Pi_{>=-1} has one more window mode than base = Pi_{>=0}, so no
    # chart map ran(base) -> ran(P) is invertible, and the refusal names t
    # rather than a stencil point around it
    wider = gr.spectral_projection(W6, -1).entries
    constant = gr.ProjectionFamily(W6, lambda t1, t2: wider)
    base = gr.spectral_projection(W6, 0)
    rng = np.random.default_rng(5)
    shape = (W6.dim, W6.dim)
    sigma1, sigma2 = (
        gr.ModeOperator(W6, 0.25 * rng.standard_normal(shape), gr.TAIL_ZERO) for _ in range(2)
    )
    for charts in ((None, None), (sigma1, sigma2)):
        with pytest.raises(NotInvertible, match=r"at t = \(0\.3, 0\.4\)"):
            entry(constant, base, (0.3, 0.4), charts)
        entry(ROTATED6, base, (0.3, 0.4), charts)


PI0_STACK = gr.ModeOperator(W, np.stack([PI0.entries, PI0.entries]), gr.TAIL_APS)
SIGMA_STACK = gr.ModeOperator(W, np.zeros((2, W.dim, W.dim)), gr.TAIL_ZERO)
STACK_VALUED = gr.ProjectionFamily(W, lambda t1, t2: np.stack([ROTATED(t1, t2).entries] * 2))


@pytest.mark.parametrize(
    "entry",
    [
        lambda: PI0_STACK.trace(),
        lambda: gr.relative_eta(PI0_STACK, PI0),
        lambda: gr.relative_eta(PI0, PI0_STACK),
        lambda: gr.relative_index(PI0_STACK, PI0),
        lambda: gr.relative_index(PI0, PI0_STACK),
        lambda: gr.connection_form(ROTATED, PI0_STACK, CHECKED_AT),
        lambda: gr.connection_form(ROTATED, PI0, CHECKED_AT, perturbation=SIGMA_STACK),
        lambda: gr.curvature_rkw(ROTATED, PI0_STACK, CHECKED_AT),
        lambda: gr.transition_det(ROTATED, PI0_STACK, CHECKED_AT, None, None),
        lambda: gr.transition_det(ROTATED, PI0, CHECKED_AT, None, SIGMA_STACK),
        lambda: gr.perturbation_patching_check(ROTATED, PI0_STACK, None, None, CHECKED_AT),
        lambda: gr.patching_identity_check(ROTATED, ROTATED, PI0_STACK, CHECKED_AT),
        lambda: gr.tr_p_dp_dp(STACK_VALUED, CHECKED_AT),
    ],
    ids=[
        "trace",
        "relative_eta-p",
        "relative_eta-q",
        "relative_index-p",
        "relative_index-q",
        "connection_form-base",
        "connection_form-perturbation",
        "curvature_rkw-base",
        "transition_det-base",
        "transition_det-sigma",
        "perturbation_patching_check-base",
        "patching_identity_check-base",
        "tr_p_dp_dp-stack-valued-family",
    ],
)
def test_entry_points_of_one_operator_refuse_a_stack(entry):
    # a stack of two copies must neither be reduced over nor fail by shape
    with pytest.raises(DomainError, match="takes one operator, got a stack of 2"):
        entry()


def test_stack_arithmetic_is_member_by_member():
    rng = np.random.default_rng(8)
    stack = rng.standard_normal((3, W.dim, W.dim)) + 1j * rng.standard_normal((3, W.dim, W.dim))
    a = gr.ModeOperator(W, stack, (2.0, 0.5))
    b = gr.ModeOperator(W, stack[::-1].copy(), (1.0, 3.0))
    small = gr.ModeOperator(gr.ModeWindow(2), stack[:, 2:7, 2:7], (1.0, 3.0))
    for op in (a @ b, a + b, a - b, 1.5j * a, a.adjoint(), a @ small, a @ PI0, small.embed_to(W)):
        assert op.entries.shape == (3, W.dim, W.dim)
    for i in range(3):
        ai, bi = gr.ModeOperator(W, stack[i], a.tail), gr.ModeOperator(W, stack[2 - i], b.tail)
        si = gr.ModeOperator(gr.ModeWindow(2), stack[i, 2:7, 2:7], small.tail)
        pairs = [
            ((a @ b), ai @ bi),
            ((a + b), ai + bi),
            ((a - b), ai - bi),
            (1.5j * a, 1.5j * ai),
            (a.adjoint(), ai.adjoint()),
            ((a @ small), ai @ si),
            ((a @ PI0), ai @ PI0),
        ]
        for stacked, single in pairs:
            np.testing.assert_array_equal(stacked.entries[i], single.entries)
            assert stacked.tail == single.tail
    with pytest.raises(DomainError, match="do not pair"):
        a @ gr.ModeOperator(W, stack[:2], b.tail)
    with pytest.raises(DomainError, match="nonempty stack"):
        gr.ModeOperator(W, np.zeros((0, W.dim, W.dim)), gr.TAIL_ZERO)


# The pulled-back Fubini-Study form integrated over theta in [0, 3 pi / 8]
# (t1 in [0, 0.75]) and a full turn of the phase.
STOKES_EXACT = -1j * np.pi * (1.0 + 1.0 / np.sqrt(2.0))


def stokes_on(n_max):
    w = gr.ModeWindow(n_max)
    return report._stokes_pair(gr.rotated_family(w, (-1, 0)), gr.spectral_projection(w, 0))


def test_stokes_on_chart_rectangle():
    boundary, area = stokes_on(3)
    assert abs(boundary - STOKES_EXACT) < 1e-8
    assert abs(area - STOKES_EXACT) < 1e-8


def test_stokes_pair_converged_in_node_counts(monkeypatch):
    # with declared derivatives on both routes, 8 x 4 nodes meet the exact
    # value to rounding, as twice the nodes do
    boundary, area = stokes_on(3)
    monkeypatch.setattr(report, "_STOKES_N1", 2 * report._STOKES_N1)
    monkeypatch.setattr(report, "_STOKES_N2", 2 * report._STOKES_N2)
    boundary2, area2 = stokes_on(3)
    assert abs(abs(boundary2 - area2) - abs(boundary - area)) < 1e-14
    for value in (boundary, area, boundary2, area2):
        assert abs(value - STOKES_EXACT) < 1e-14


def test_stokes_pair_call_counts(monkeypatch):
    counts = {}

    def counted(name):
        inner = getattr(gr, name)

        def call(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(gr, name, call)

    counted("tr_p_dp_dp")
    counted("connection_form")
    stokes_on(6)
    # one call per direction for the four edges, one for the 8 x 4 area grid
    # (32 and 24 one-point calls before the chart layer took stacks of points)
    assert counts == {"connection_form": 2, "tr_p_dp_dp": 1}


# ---------------------------------------------------------------------------
# the chart layer on stacks of points: t = (t1, t2) with equal-length arrays

STACK_T1 = np.array([0.2, 0.35, 0.5, 0.71])
STACK_T2 = np.array([0.1, 0.45, 0.8, 0.3])


def stack_setting():
    # the rotated family, a conjugate of it by a unitary near the identity
    # that does not commute with PI0 (so the identity-chart patching ratio
    # moves), and two perturbation charts
    rng = np.random.default_rng(9)
    h = rng.standard_normal((W.dim, W.dim)) + 1j * rng.standard_normal((W.dim, W.dim))
    eigenvalues, vectors = np.linalg.eigh(0.5 / np.sqrt(W.dim) * (h + h.conj().T))
    u = (vectors * np.exp(1j * eigenvalues)) @ vectors.conj().T
    fam2, _ = conjugated(ROTATED, PI0.entries, u)
    sigmas = [
        gr.ModeOperator(W, 0.25 * report.random_window_unitary(rng, W.dim), gr.TAIL_ZERO)
        for _ in range(2)
    ]
    return fam2, sigmas


STACK_FAM2, (STACK_S1, STACK_S2) = stack_setting()

STACKED_ENTRY_POINTS = [
    pytest.param(
        lambda t, s: gr.connection_form(ROTATED, PI0, t, "t1", s), id="connection_form-t1"
    ),
    pytest.param(
        lambda t, s: gr.connection_form(ROTATED, PI0, t, "t2", s), id="connection_form-t2"
    ),
    pytest.param(lambda t, s: gr.tr_p_dp_dp(ROTATED, t), id="tr_p_dp_dp"),
    pytest.param(lambda t, s: gr.curvature_rkw(ROTATED, PI0, t, s), id="curvature_rkw"),
    pytest.param(
        lambda t, s: gr.transition_det(ROTATED, PI0, t, s, STACK_S2), id="transition_det"
    ),
    pytest.param(
        lambda t, s: gr.perturbation_patching_check(ROTATED, PI0, s, STACK_S2, t, "t1"),
        id="perturbation_patching_check-t1",
    ),
    pytest.param(
        lambda t, s: gr.perturbation_patching_check(ROTATED, PI0, s, STACK_S2, t, "t2"),
        id="perturbation_patching_check-t2",
    ),
    pytest.param(
        lambda t, s: gr.patching_identity_check(ROTATED, STACK_FAM2, PI0, t, "t1"),
        id="patching_identity_check-t1",
    ),
    pytest.param(
        lambda t, s: gr.patching_identity_check(ROTATED, STACK_FAM2, PI0, t, "t2"),
        id="patching_identity_check-t2",
    ),
]


@pytest.mark.parametrize("chart", ["identity", "perturbation"])
@pytest.mark.parametrize("entry", STACKED_ENTRY_POINTS)
def test_stacked_call_equals_the_one_point_calls(entry, chart):
    # a k-point call returns, member by member, what k one-point calls return
    # (a pair of arrays for the patching checks)
    sigma = None if chart == "identity" else STACK_S1
    stacked = entry((STACK_T1, STACK_T2), sigma)
    singles = [entry((a, b), sigma) for a, b in zip(STACK_T1, STACK_T2)]
    stacked = np.array(stacked, ndmin=2).reshape(-1, len(STACK_T1))
    singles = np.array(singles).T.reshape(stacked.shape)
    assert all(type(x) is complex for x in np.ravel(singles).tolist())
    assert stacked.dtype == complex
    np.testing.assert_array_equal(stacked, singles)


POINT_FORMS = [
    pytest.param((0.35, 0.6), id="float"),
    pytest.param((0, 1), id="int"),
    pytest.param((np.float64(0.35), np.float64(0.6)), id="np.float64"),
    pytest.param((np.array(0.35), np.array(0.6)), id="0-d-array"),
]


@pytest.mark.parametrize("t", POINT_FORMS)
@pytest.mark.parametrize("entry", STACKED_ENTRY_POINTS)
def test_a_scalar_point_returns_a_complex_and_a_1d_point_an_array(entry, t):
    # every scalar form of a point returns a complex (a pair of them for the
    # patching checks), to the last bit the value at the float point; the
    # same point as 1-D arrays of one entry returns arrays of shape (1,)
    floats = (float(t[0]), float(t[1]))

    def members(value):
        return value if isinstance(value, tuple) else (value,)

    expected = members(entry(floats, STACK_S1))
    scalar, stacked = members(entry(t, STACK_S1)), members(entry(one_point(floats), STACK_S1))
    assert len(scalar) == len(stacked) == len(expected)
    for value, reference in zip(scalar, expected):
        assert type(value) is complex and value == reference
    for value, reference in zip(stacked, expected):
        assert value.shape == (1,) and value.dtype == complex and value[0] == reference


def test_a_one_point_stack_is_a_view_of_the_family_block():
    # a one-point call reads the family's block in place: the stack of one
    # shares its memory, so it costs no copy of the d x d block
    returned = []

    def value(t1, t2):
        returned.append(ROTATED(t1, t2).entries)
        return returned[-1]

    fam = gr.ProjectionFamily(W, value)
    blocks = gr._family_blocks(fam, np.array([0.35]), np.array([0.6]))
    assert blocks.shape == (1, W.dim, W.dim) and np.shares_memory(blocks, returned[0])


def fails_at_the_third_point(make):
    # a family whose value at the third of the four stack points is replaced
    # by make(value); every other point and every stencil sample is rotated
    bad = (float(STACK_T1[2]), float(STACK_T2[2]))

    def value(t1, t2):
        p = ROTATED(t1, t2).entries
        return make(p) if (t1, t2) == bad else p

    return gr.ProjectionFamily(W, value)


@pytest.mark.parametrize("entry", FAMILY_ENTRY_POINTS)
def test_stacked_call_names_the_failing_point(entry, request):
    # the check at t runs on the whole stack, and its error names the first
    # failing member's point, in the one-point wording
    not_projection = fails_at_the_third_point(lambda p: 2.0 * p)
    at_third = r"\(0\.5, 0\.8\)"
    with pytest.raises(DomainError, match=rf"family value at {at_third} is not a projection"):
        entry(not_projection, (STACK_T1, STACK_T2))
    if "tr_p_dp_dp" in request.node.name:  # no chart, no rank decision
        return
    wider = gr.spectral_projection(W, -1).entries
    other_rank = fails_at_the_third_point(lambda p: wider)
    with pytest.raises(NotInvertible, match=rf"chart is singular at t = {at_third} \(rank P"):
        entry(other_rank, (STACK_T1, STACK_T2))


def test_stacked_chart_guard_names_the_failing_point():
    # the identity chart is singular at t1 = 1, here at the third point only
    t = (np.array([0.2, 0.4, 1.0, 0.6]), np.array([0.3, 0.3, 0.35, 0.3]))
    with pytest.raises(NotInvertible, match=r"chart is singular at t = \(1\.0, 0\.35\) \(sv"):
        gr.connection_form(ROTATED, PI0, t, "t1")
    with pytest.raises(NotInvertible, match=r"chart is singular at t = \(1\.0, 0\.35\) \(sv"):
        gr.transition_det(ROTATED, PI0, t, STACK_S1, STACK_S2)


def test_block_function_error_names_the_failing_member():
    # at t1 > 0.5 the block function raises: of the stencil samples of the
    # three points, only the second point's sample at t1 + h does, and the
    # error names that sample alone
    def value(t1, t2):
        if t1 > 0.5:
            raise ValueError("boom")
        return ROTATED(t1, t2).entries

    raising = gr.ProjectionFamily(W, value)
    t = (np.array([0.2, 0.5, 0.3]), np.array([0.1, 0.2, 0.3]))
    sample = (0.5 + DEFAULT_FD_STEP, 0.2)
    only_the_sample = rf"^family evaluation failed at {re.escape(str(sample))}: boom$"
    with pytest.raises(EvaluationError, match=only_the_sample):
        gr.connection_form(raising, PI0, t, "t1")
    # one point: the check at t reads the block function too
    with pytest.raises(EvaluationError, match=only_the_sample):
        gr.connection_form(raising, PI0, sample, "t2")


def test_singular_chart_is_reported_before_a_failing_stencil_sample():
    # the identity chart is singular at t1 = 1, and once armed the block
    # function raises at every other t1 closer to 1 than 1e-2: the chart
    # guard at the point runs before the stencil around it samples the family
    def raising_near_one(armed):
        def value(t1, t2):
            nonlocal armed
            # curvature_rkw's pass along t1 samples the lattice
            # (1 +- k h, 0.35 +- m h) without a fault; its pass along t2 then
            # visits the outer samples (1, 0.35 +- m h), where the chart is
            # singular and whose inner stencils would sample that same
            # lattice, so the block function arms there
            armed = armed or (t1 == 1.0 and t2 != 0.35)
            if armed and 0.0 < abs(t1 - 1.0) < 1e-2:
                raise ValueError("boom")
            return ROTATED(t1, t2).entries

        return gr.ProjectionFamily(W, value)

    singular = r"chart is singular at t = \(1\.0, 0\.35\d*\) \(sv"
    for t in ((1.0, 0.35), (np.array([0.2, 1.0, 0.6]), np.array([0.3, 0.35, 0.3]))):
        with pytest.raises(NotInvertible, match=singular):
            gr.connection_form(raising_near_one(True), PI0, t, "t1")
    with pytest.raises(NotInvertible, match=singular):
        gr.curvature_rkw(raising_near_one(False), PI0, (1.0, 0.35))


D1 = FdStencil(kind="first-derivative")
ROUTES_AT = [
    pytest.param((0.35, 0.6), id="one-point"),
    pytest.param((STACK_T1[:3], STACK_T2[:3]), id="three-points"),
]
# ROTATED's block function without its declaration: its connection forms
# take stencil derivatives
ROUTE_FAMILIES = [
    pytest.param(ROTATED, id="declared"),
    pytest.param(gr.ProjectionFamily(W, ROTATED._map), id="undeclared"),
]


# None stands for a rotated family on ModeWindow(100), whose check takes
# the update path
@pytest.mark.parametrize("fam", [*ROUTE_FAMILIES, pytest.param(None, id="declared-n_max=100")])
@pytest.mark.parametrize("direction", ["t1", "t2"])
@pytest.mark.parametrize("charts", ["perturbation", "identity-and-perturbation"])
@pytest.mark.parametrize("t", ROUTES_AT)
def test_perturbation_patching_is_its_public_routes_exactly(monkeypatch, t, charts, direction, fam):
    # each side is, to the last bit, its public route: the lhs the stencil of
    # transition_det over its value at t, the rhs the difference of the two
    # connection forms, declared or taken from their own stencils.  On the
    # update path the lhs is the stencil of the charts' capacitance ratios,
    # which meets the public route to the update path's tolerance, and the
    # rhs is still the difference of the public connection forms, bit for bit
    base, s1, s2 = PI0, STACK_S1, STACK_S2
    if fam is None:
        w = gr.ModeWindow(100)
        fam, base = gr.rotated_family(w, (-3, 7)), gr.spectral_projection(w, 0)
        s1, s2 = update_sigmas(w, 15)
    s1 = s1 if charts == "perturbation" else None
    check = partial(gr.perturbation_patching_check, fam, base, s1, s2, t, direction)
    update = fam.window.n_max == 100
    lhs, rhs = on_the_update_path(monkeypatch, check) if update else check()
    axis = ("t1", "t2").index(direction)

    def g(t1, t2):
        return gr.transition_det(fam, base, (t1, t2), s1, s2)

    at = one_point(t)
    routed = fd_apply(gr._each(g), at, D1, axis) / g(*at)
    if update:
        close(lhs, routed, tolerance("patching"))
    else:
        assert np.all(lhs == routed)
    omega1 = gr.connection_form(fam, base, t, direction, s1)
    omega2 = gr.connection_form(fam, base, t, direction, s2)
    assert np.all(rhs == omega1 - omega2)


@pytest.mark.parametrize("fam", ROUTE_FAMILIES)
@pytest.mark.parametrize("direction", ["t1", "t2"])
@pytest.mark.parametrize("t", ROUTES_AT)
def test_identity_patching_is_its_public_routes_exactly(t, direction, fam):
    # as above for the identity charts of two families: the lhs is the
    # stencil of the family ratio det(V* P_1 V (V* P_2 V)^{-1}) over its value
    basis = gr._chart_base(W, PI0)
    lhs, rhs = gr.patching_identity_check(fam, STACK_FAM2, PI0, t, direction)
    axis = ("t1", "t2").index(direction)

    def family_ratio(t1, t2):
        a1, a2 = (
            basis.left(basis.right(gr._family_blocks(member, t1, t2)))
            for member in (fam, STACK_FAM2)
        )
        return gr._chart_ratio(a1, a2, (t1, t2))

    at = one_point(t)
    assert np.all(lhs == fd_apply(gr._each(family_ratio), at, D1, axis) / family_ratio(*at))
    omega1 = gr.connection_form(fam, PI0, t, direction)
    omega2 = gr.connection_form(STACK_FAM2, PI0, t, direction)
    assert np.all(rhs == omega1 - omega2)


@pytest.mark.parametrize("path", ["update", "dense"])
def test_perturbation_patching_peak_memory_on_a_large_window(monkeypatch, path):
    # one check on a 201-dimensional window.  The update path takes the
    # family samples one at a time before it forms the chart maps at t,
    # 2.34 MB traced (2.68 MB with the maps formed first).  The dense path
    # releases each d x d sample before its ratio, 2.61 MB (3.26 MB when the
    # sample was held through the ratio)
    if path == "dense":
        monkeypatch.setattr(gr, "_LOW_RANK_CROSSOVER", 10**9)
    w = gr.ModeWindow(100)
    rng = np.random.default_rng(15)
    shape, scale = (w.dim, w.dim), 0.25 / math.sqrt(2 * w.dim)
    s1, s2 = (
        gr.ModeOperator(
            w, scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)), gr.TAIL_ZERO
        )
        for _ in range(2)
    )
    fam, base = gr.rotated_family(w, (-3, 7)), gr.spectral_projection(w, 0)
    tracemalloc.start()
    try:
        lhs, rhs = gr.perturbation_patching_check(fam, base, s1, s2, (0.4, 0.3), "t1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(lhs - rhs) < 1e-5
    assert peak <= {"update": 2.4e6, "dense": 2.7e6}[path], peak


@pytest.mark.parametrize("entry", ["curvature_rkw", "connection_form"])
def test_chart_peak_memory_on_a_large_window(entry):
    # on the spectral cut no d x r basis is held through the stencils, and a
    # connection form holds only its r x d block (Y S V)^{-1} Y while its
    # stencil samples: 3.57 MB traced for either call while the chart layer
    # held V = I[:, cols] from an eigh, 3.24 MB with the selected columns
    # alone while each form held P and S V as well, 2.27 MB without them
    # while its stencil members were whole d x d blocks; with the thin chart
    # maps as members, and on the update path, which curvature_rkw takes
    # here, the peak is the projection check of the family value at t, 2.07 MB
    w = gr.ModeWindow(100)
    fam, base = gr.rotated_family(w, (-3, 7)), gr.spectral_projection(w, 0)
    call, bound = {
        "curvature_rkw": (lambda: gr.curvature_rkw(fam, base, (0.4, 0.3)), 2.1e6),
        "connection_form": (lambda: gr.connection_form(fam, base, (0.4, 0.3), "t1"), 2.1e6),
    }[entry]
    tracemalloc.start()
    try:
        value = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(value)
    assert peak <= bound, peak


@pytest.mark.parametrize(
    "t",
    [
        (np.array([0.2, 0.3]), np.array([0.4, 0.5, 0.6])),
        (np.array([[0.2, 0.3]]), np.array([[0.4, 0.5]])),
        (np.array([]), np.array([])),
        (0.2, np.array([0.4])),
        (np.array([0.2, math.nan]), np.array([0.4, 0.5])),
        (math.inf, 0.3),
        (0.2 + 0.1j, 0.3),
        (0.2, 0.3, 0.4),
        ("0.3", "0.2"),
        (True, 0.2),
        (np.array([0.3]), np.array([False])),
        (None, 0.2),
        (np.array(["0.3", "0.4"]), np.array([0.2, 0.5])),
    ],
    ids=[
        "lengths",
        "2-D",
        "empty",
        "float-and-array",
        "nan",
        "inf",
        "complex",
        "triple",
        "str",
        "bool",
        "bool-array",
        "None",
        "str-array",
    ],
)
@pytest.mark.parametrize("entry", FAMILY_ENTRY_POINTS)
def test_chart_entry_points_refuse_malformed_points(entry, t):
    with pytest.raises(DomainError, match="t1 and t2 must be|t must be"):
        entry(ROTATED, t)


@pytest.mark.parametrize("direction", [True, False, 1.0, 0.0, "t3", 2, -1, None])
@pytest.mark.parametrize(
    "entry",
    [
        lambda d: gr.connection_form(ROTATED, PI0, CHECKED_AT, d),
        lambda d: gr.perturbation_patching_check(ROTATED, PI0, None, None, CHECKED_AT, d),
        lambda d: gr.patching_identity_check(ROTATED, ROTATED, PI0, CHECKED_AT, d),
    ],
    ids=["connection_form", "perturbation_patching_check", "patching_identity_check"],
)
def test_direction_is_t1_t2_or_the_integers_0_and_1(entry, direction):
    # True and 1.0 used to mean "t2", False and 0.0 "t1"
    with pytest.raises(DomainError, match="direction must be"):
        entry(direction)
    for axis, name in ((0, "t1"), (1, "t2")):
        assert entry(np.int64(axis)) == entry(axis) == entry(name)


@pytest.mark.parametrize("tail", [(math.nan, 0.0), (1 + math.nan * 1j, 1.0), (math.inf, 1.0)])
def test_mode_operator_refuses_non_finite_tails(tail):
    # a NaN tail passed every |tail - x| > tol guard: fredholm_det of the
    # identity with NaN tails returned 1, and transition_det with a
    # NaN-tailed perturbation returned a number
    w2 = gr.ModeWindow(2)
    with pytest.raises(DomainError, match="tails must be finite"):
        gr.ModeOperator(w2, np.eye(w2.dim), tail)
    with pytest.raises(DomainError, match="tails must be finite"):
        gr.ModeOperator(w2, np.zeros((3, w2.dim, w2.dim)), tail)


@pytest.mark.parametrize(
    "tail",
    [("1", "0"), (True, False), (1, 0, 0), (1.0,), None, ("a", "b"), (1, [0, 1])],
    ids=["strings", "bools", "three", "one", "None", "letters", "ragged"],
)
def test_mode_operator_refuses_tails_that_are_no_pair_of_numbers(tail):
    # strings and bools were taken as numbers, a third tail was dropped, and
    # the rest raised IndexError, TypeError or ValueError
    w2 = gr.ModeWindow(2)
    with pytest.raises(DomainError, match="numbers"):
        gr.ModeOperator(w2, np.eye(w2.dim), tail)


@pytest.mark.parametrize(
    "entries",
    ["abc", [[1, 0, 0, 0, 0]] * 4 + [[1]], np.full((5, 5), "0"), None],
    ids=["string", "ragged", "string-array", "None"],
)
def test_mode_operator_refuses_entries_that_are_not_numbers(entries):
    # a string array was parsed as numbers, the others raised ValueError or
    # TypeError
    w2 = gr.ModeWindow(2)
    with pytest.raises(DomainError, match="numbers"):
        gr.ModeOperator(w2, entries, gr.TAIL_APS)


CONSTANT = gr.ProjectionFamily(W, lambda t1, t2: PI0.entries)


@pytest.mark.parametrize("position", [0, 1], ids=["t1", "t2"])
@pytest.mark.parametrize(
    "coordinate",
    ["0.3", True, None, np.array([0.1, 0.2]), np.array([0.3]), 1j, math.nan, math.inf],
    ids=["string", "bool", "None", "array", "one-entry-array", "complex", "nan", "inf"],
)
def test_a_family_value_takes_one_finite_real_number_per_coordinate(coordinate, position):
    # by the rule of the chart layer's points; a string and a bool were
    # converted, and None, an array and a complex raised a bare TypeError
    t = [0.3, 0.2]
    t[position] = coordinate
    with pytest.raises(DomainError):
        CONSTANT(*t)
    assert np.array_equal(ROTATED(np.float64(0.3), np.int64(1)).entries, ROTATED(0.3, 1.0).entries)


def test_eta_invariant_takes_an_array_of_offsets():
    offsets = np.array([[0.05, 0.3], [0.5, 0.95]])
    eta = gr.eta_invariant_spectral(offsets)
    assert eta.shape == offsets.shape
    for a, value in zip(offsets.ravel().tolist(), eta.ravel().tolist()):
        single = gr.eta_invariant_spectral(a)
        assert type(single) is float and single == value
        assert abs(value - (1.0 - 2.0 * a)) < 1e-10
    with pytest.raises(DomainError, match=r"offset a must lie in \(0, 1\), got nan"):
        gr.eta_invariant_spectral(np.array([0.3, math.nan]))
    with pytest.raises(DomainError, match=r"got 1\.0"):
        gr.eta_invariant_spectral([0.3, 1.0])


# ---------------------------------------------------------------------------
# chart bases: a coordinate base is a selection of columns, any other base
# takes an eigh


def through_eigh(monkeypatch, call):
    """call() with every block read as no coordinate block: chart bases from
    the eigh of the base block, window ranks from the SVD."""
    with monkeypatch.context() as patch:
        patch.setattr(gr, "_coordinate_ones", lambda m: None)
        return call()


W6 = gr.ModeWindow(6)
PI6 = gr.spectral_projection(W6, 0)
CUTS = list(W6.modes())
BASIS_AT = [
    pytest.param((0.2, 0.3), id="one-point"),
    pytest.param((np.array([0.15, 0.25, 0.35]), np.array([0.3, 0.1, 0.2])), id="three-points"),
]


def cut_setting(cut):
    # two dense families of the rank of Pi_{>=cut} and two perturbation charts
    rng = np.random.default_rng(100 + cut)
    fam, fam2 = dense_family(W6, rng, cut), dense_family(W6, rng, cut)
    sigma1, sigma2 = (
        gr.ModeOperator(W6, 0.2 * report.random_window_unitary(rng, W6.dim), gr.TAIL_ZERO)
        for _ in range(2)
    )
    return gr.spectral_projection(W6, cut), fam, fam2, sigma1, sigma2


def chart_calls(base, fam, fam2, s, sigma2, t):
    # the six chart entry points, in the identity chart (s = None) or a
    # perturbation chart s
    return {
        "connection_form": lambda: gr.connection_form(fam, base, t, "t2", s),
        "tr_p_dp_dp": lambda: gr.tr_p_dp_dp(fam, t),
        "curvature_rkw": lambda: gr.curvature_rkw(fam, base, t, s),
        "transition_det": lambda: gr.transition_det(fam, base, t, s, sigma2),
        "perturbation_patching_check": lambda: gr.perturbation_patching_check(
            fam, base, s, sigma2, t, "t1"
        ),
        "patching_identity_check": lambda: gr.patching_identity_check(fam, fam2, base, t, "t2"),
    }


@pytest.mark.parametrize("chart", ["identity", "perturbation"])
@pytest.mark.parametrize("t", BASIS_AT)
@pytest.mark.parametrize("cut", CUTS)
def test_coordinate_basis_gives_the_eigh_basis_values(monkeypatch, cut, t, chart):
    # on every spectral cut eigh returns the columns I[:, cols] in order, and
    # the gathers return the products' values: every entry point returns,
    # to the last bit, what it returns through the eigh basis
    base, fam, fam2, sigma1, sigma2 = cut_setting(cut)
    basis = gr._chart_base(W6, base)
    dense = through_eigh(monkeypatch, lambda: gr._chart_base(W6, base))
    assert basis.v is None and dense.cols is None
    np.testing.assert_array_equal(np.eye(W6.dim)[:, basis.cols], dense.v)
    calls = chart_calls(base, fam, fam2, sigma1 if chart == "perturbation" else None, sigma2, t)
    for name, call in calls.items():
        value = np.array(call())
        assert np.array_equal(value, np.array(through_eigh(monkeypatch, call))), name
        assert np.isfinite(value).all() and value.dtype == complex, name


@pytest.mark.parametrize("t", BASIS_AT)
def test_gathered_blocks_are_c_contiguous(t):
    # einsum sums in an order that follows the strides, so a gathered block
    # must be laid out as the product it replaces
    basis = gr._chart_base(W6, gr.spectral_projection(W6, 0))
    p = gr._family_blocks(gr.rotated_family(W6, (-2, 1)), *one_point(t))
    for gathered in (basis.right(p), basis.left(p), basis.left(basis.right(p))):
        assert gathered.flags.c_contiguous
    assert basis.right(p).shape[-2:] == (W6.dim, basis.rank)
    assert basis.left(p).shape[-2:] == (basis.rank, W6.dim)


@pytest.mark.parametrize("n_max", [1, 6, 100])
def test_coordinate_window_rank_is_the_svd_rule(monkeypatch, n_max):
    # the singular values of a coordinate block are its 0/1 diagonal: the
    # count of ones is the SVD rule's rank, one by one and on a stack
    w = gr.ModeWindow(n_max)
    ks = sorted({-n_max, -1, 0, 1, n_max // 2, n_max})
    cuts = [gr.spectral_projection(w, k) for k in ks]
    stack = gr.ModeOperator(w, np.stack([c.entries for c in cuts]), gr.TAIL_APS)
    for op in (*cuts, stack):
        rank = op.window_rank()
        svd_rank = through_eigh(monkeypatch, op.window_rank)
        assert type(rank) is type(svd_rank) and np.array_equal(rank, svd_rank)
        assert np.asarray(rank).dtype == np.asarray(svd_rank).dtype
    assert stack.window_rank().tolist() == [n_max + 1 - k for k in ks]
    for p, q in zip(cuts, cuts[::-1]):
        index = gr.relative_index(p, q)
        assert index == through_eigh(monkeypatch, lambda: gr.relative_index(p, q))
        assert type(index) is int


BASE_ENTRY_POINTS = [
    lambda fam, base, t: gr.connection_form(fam, base, t),
    lambda fam, base, t: gr.curvature_rkw(fam, base, t),
    lambda fam, base, t: gr.transition_det(fam, base, t, None, None),
    lambda fam, base, t: gr.perturbation_patching_check(fam, base, None, None, t),
    lambda fam, base, t: gr.patching_identity_check(fam, fam, base, t),
]


def counted_decompositions(monkeypatch, call):
    """The eigh and SVD calls that call() makes, with its value."""
    made = []
    with monkeypatch.context() as patch:
        for name in ("eigh", "svd"):
            inner = getattr(np.linalg, name)

            def counted(a, *args, inner=inner, name=name, **kwargs):
                made.append(name)
                return inner(a, *args, **kwargs)

            patch.setattr(np.linalg, name, counted)
        return made, call()


@pytest.mark.parametrize(
    "changed",
    [
        pytest.param({(8, 8): 1.0 - 1e-12}, id="diagonal-1-1e-12"),
        pytest.param({(2, 7): 1e-300, (7, 2): 1e-300}, id="off-diagonal-1e-300"),
    ],
)
def test_a_base_near_a_coordinate_block_takes_the_eigh(monkeypatch, changed):
    # the test is exact: a base within rounding of a spectral cut passes
    # is_projection and takes the eigh basis and the SVD rank
    entries = PI0.entries.copy()
    for index, value in changed.items():
        entries[index] = value
    base = gr.ModeOperator(W, entries, gr.TAIL_APS)
    assert gr._coordinate_ones(base.entries) is None and base.is_projection()
    assert gr._chart_base(W, base).cols is None
    made, rank = counted_decompositions(monkeypatch, base.window_rank)
    assert made == ["svd"] and rank == PI0.window_rank()
    for entry in BASE_ENTRY_POINTS:
        made, value = counted_decompositions(monkeypatch, lambda: entry(ROTATED, base, CHECKED_AT))
        assert made == ["eigh"]
        np.testing.assert_allclose(value, entry(ROTATED, PI0, CHECKED_AT), rtol=1e-9, atol=1e-12)


def test_a_base_on_a_smaller_window_is_decided_after_its_embedding():
    # the tails fill the new diagonal entries: exact 0/1 tails keep the
    # embedded block a coordinate block, tails within rounding of 0/1 do not
    assert np.array_equal(gr._chart_base(W6, PI0).cols, gr._chart_base(W6, PI6).cols)
    near = gr.ModeOperator(W, PI0.entries, (1.0 - 1e-13, 0.0))
    assert gr._coordinate_ones(near.entries) is not None
    basis = gr._chart_base(W6, near)
    assert basis.cols is None and basis.rank == gr._chart_base(W6, PI6).rank


def test_a_coordinate_base_with_a_tail_that_is_no_projection_raises():
    # the block is a spectral cut, so only the tail rule refuses the base, and
    # with is_projection's message
    base = gr.ModeOperator(W, PI0.entries, (0.5, 0.0))
    assert gr._coordinate_ones(base.entries) is not None and not base.is_projection()
    for entry in BASE_ENTRY_POINTS:
        with pytest.raises(DomainError, match=r"^base must be a projection$"):
            entry(ROTATED, base, CHECKED_AT)


H = DEFAULT_FD_STEP
# (t1 + 2h, t2) is a sample of every stencil along t1 around CHECKED_AT and
# one of curvature_rkw's outer samples; (t1 + 2h, t2 + h) is one of
# curvature_rkw's inner samples and no sample of any other entry point
NAN_AT_STENCIL = (CHECKED_AT[0] + 2 * H, CHECKED_AT[1])
NAN_AT_INNER = (CHECKED_AT[0] + 2 * H, CHECKED_AT[1] + 1 * H)


def nan_in_an_unselected_column(at):
    # column 0 (mode -4) lies outside ran(PI0), so the gathers drop it
    def value(t1, t2):
        p = ROTATED(t1, t2).entries
        if (t1, t2) == at:
            p = p.copy()
            p[1, 0] = math.nan
        return p

    return gr.ProjectionFamily(W, value)


@pytest.mark.parametrize("at", [NAN_AT_STENCIL, NAN_AT_INNER], ids=["stencil", "inner"])
@pytest.mark.parametrize("entry", FAMILY_ENTRY_POINTS)
def test_a_nan_in_an_unselected_column_still_raises(monkeypatch, entry, at, request):
    # an identity chart's stencil member is the whole block, gathered after
    # the stencil, and an outer curvature_rkw sample's form reads the whole
    # block: the NaN reaches fd_apply's finiteness check as it does through
    # the eigh basis's products
    fam = nan_in_an_unselected_column(at)
    name = request.node.callspec.id
    sampled = "curvature_rkw" in name if at == NAN_AT_INNER else "transition_det" not in name
    if not sampled:  # transition_det reads the family at t alone
        # fam declares nothing, as the copy of ROTATED it is compared with
        assert entry(fam, CHECKED_AT) == entry(undeclared(ROTATED), CHECKED_AT)
        return
    with pytest.raises(EvaluationError):
        entry(fam, CHECKED_AT)
    with pytest.raises(EvaluationError):
        through_eigh(monkeypatch, lambda: entry(fam, CHECKED_AT))


# ---------------------------------------------------------------------------
# a family value that is no d x d block of numbers


def malformed(kind, p):
    return {
        "d x d+1": lambda: np.hstack([p, np.zeros((len(p), 1))]),
        "row": lambda: p[0],
        "scalar": lambda: p[0, 0],
        "str": lambda: "p",
    }[kind]()


@pytest.mark.parametrize("at_t", [False, True], ids=["at-a-sample", "at-t"])
@pytest.mark.parametrize("kind", ["d x d+1", "row", "scalar", "str"])
@pytest.mark.parametrize("entry", FAMILY_ENTRY_POINTS)
def test_a_family_value_that_is_no_block_of_numbers_raises(entry, kind, at_t, request):
    # a family of the right blocks at t (or only off t) and malformed
    # elsewhere: the refusal names the point, before any compare or product
    # can broadcast the value or fail on it with a raw numpy error
    def value(t1, t2):
        p = ROTATED(t1, t2).entries
        return malformed(kind, p) if ((t1, t2) == CHECKED_AT) == at_t else p

    fam = gr.ProjectionFamily(W, value)
    if not at_t and "transition_det" in request.node.name:  # reads the family at t alone
        assert entry(fam, CHECKED_AT) == entry(ROTATED, CHECKED_AT)
        return
    point = r"\(0\.4, 0\.3\)" if at_t else r"\(0\.4\d*, 0\.3\d*\)"
    with pytest.raises(DomainError, match=rf"^family value at {point} is no 9x9 block of numbers"):
        entry(fam, CHECKED_AT)


# ---------------------------------------------------------------------------
# the update path: on a window above the crossover, stencil samples that move
# only the rows and columns J are low-rank updates of the chart at t

W40 = gr.ModeWindow(40)
PI40 = gr.spectral_projection(W40, 0)
ROTATED40 = gr.rotated_family(W40, (-2, 1))
# the same modes at another rate: the identity-chart patching ratio moves
OTHER40 = gr.ProjectionFamily(W40, lambda t1, t2: ROTATED40(0.8 * t1 + 0.1, t2).entries)


def declared(w, support, block, derivative):
    """A family that declares the support S, the stacked S x S block function
    ``block`` and its derivatives ``derivative``, as rotated_family does,
    its value Pi_{>=0} off S x S and ``block`` on it."""
    base, s = gr.spectral_projection(w, 0).entries, np.ix_(support, support)

    def value(t1, t2):
        p = base.copy()
        p[s] = block(np.array([t1]), np.array([t2]))[0]
        return p

    fam = gr.ProjectionFamily(w, value)
    fam._declaration = gr._Declaration(support, block, derivative)
    return fam


def declared_conjugate(fam, base, u):
    """The conjugate u P u* of a declared family and u base u*, declared with
    every row as its support: its block is its whole value, and its
    derivative u (d P) u* with d P from fam's declaration."""
    conj_fam, conj_base = conjugated(fam, base, u)
    s, dim = np.ix_(*[fam._declaration.support] * 2), fam.window.dim

    def derivative(t1, t2, axis):
        dp = np.zeros((len(t1), dim, dim), dtype=complex)
        dp[:, s[0], s[1]] = fam._declaration.derivative(t1, t2, axis)
        return u @ dp @ u.conj().T

    def block(t1, t2):
        return np.array([conj_fam._map(a, b) for a, b in zip(t1, t2)])

    conj_fam._declaration = gr._Declaration(tuple(range(dim)), block, derivative)
    return conj_fam, conj_base


UPDATE_AT = [
    pytest.param((0.3, 0.45), id="one-point"),
    pytest.param((np.array([0.2, 0.35, 0.6]), np.array([0.1, 0.45, 0.8])), id="three-points"),
]


def update_sigmas(w=W40, seed=40):
    rng = np.random.default_rng(seed)
    return [
        gr.ModeOperator(w, 0.2 * report.random_window_unitary(rng, w.dim), gr.TAIL_ZERO)
        for _ in range(2)
    ]


def dense_path(monkeypatch, call):
    """call() with the update path switched off: every sample forms the dense chart algebra."""
    with monkeypatch.context() as patch:
        patch.setattr(gr, "_LOW_RANK_CROSSOVER", 10**9)
        return call()


@contextmanager
def path_spy(monkeypatch):
    """The path a call inside the block takes: ``held``, what each chart
    built for the update path returned (None where it raised, which hands
    the call to the dense path before any sample), ``declared``, the reads
    of a declared S x S block by a sample's move, and ``reads``, the reads
    of the family's d x d blocks: the read at t alone when the update path
    finishes the call, more when the dense path takes its own samples."""
    taken = SimpleNamespace(held=[], declared=0, reads=0)
    chart, delta, blocks = gr._Chart, gr._Chart.delta, gr._family_blocks

    def spied_chart(*args, update=False):
        if not update:
            return chart(*args)
        taken.held.append(None)
        taken.held[-1] = chart(*args, update=True)
        return taken.held[-1]

    def spied_delta(*args):
        taken.declared += 1
        return delta(*args)

    def spied_blocks(*args):
        taken.reads += 1
        return blocks(*args)

    with monkeypatch.context() as patch:
        patch.setattr(gr, "_Chart", spied_chart)
        patch.setattr(chart, "delta", spied_delta)
        patch.setattr(gr, "_family_blocks", spied_blocks)
        yield taken


def on_the_update_path(monkeypatch, call):
    """call()'s value, asserting that the update path finished it: every
    sample was read from the declared block, and the family's d x d block
    was read at t alone."""
    with path_spy(monkeypatch) as taken:
        value = call()
    assert taken.held and None not in taken.held and taken.declared, vars(taken)
    assert taken.reads == 1, vars(taken)
    return value


def handed_to_the_dense_path(monkeypatch, call):
    """call()'s value, asserting that the dense path took its own samples,
    after any chart built for the update path had opened it."""
    with path_spy(monkeypatch) as taken:
        value = call()
    assert None not in taken.held and taken.reads > 1, vars(taken)
    return value


def close(a, b, rtol):
    a, b = np.array(a), np.array(b)
    assert np.all(np.abs(a - b) <= rtol * np.maximum(np.abs(b), 1.0)), (a, b)


# the entry points with no update path: transition_det samples nothing,
# connection_form and patching_identity_check always take the dense path,
# and tr_p_dp_dp reads a declared family's derivatives at any rank
NO_UPDATE_PATH = ("transition_det", "connection_form", "patching_identity_check", "tr_p_dp_dp")


# relative agreement of two routes of one value: the patching checks' lhs
# is a stencil of a transition ratio, whose dense route rounds by about
# 1e-11 (the update route's ratio det(I + W A^{-1} U) is near 1 and rounds
# less); every other value agrees to 1e-12
def tolerance(name):
    return 1e-9 if "patching" in name else 1e-12


@pytest.mark.parametrize("chart", ["identity", "perturbation"])
@pytest.mark.parametrize("t", UPDATE_AT)
def test_the_update_path_gives_the_dense_path_values(monkeypatch, t, chart):
    s1, s2 = update_sigmas()
    calls = chart_calls(PI40, ROTATED40, OTHER40, s1 if chart == "perturbation" else None, s2, t)
    for name, call in calls.items():
        value = call() if name in NO_UPDATE_PATH else on_the_update_path(monkeypatch, call)
        close(value, dense_path(monkeypatch, call), tolerance(name))


@pytest.mark.parametrize("window", ["dense", "update"])
def test_every_chart_helper_gets_a_stack_of_points(monkeypatch, window):
    # a point passed as two floats reaches the family as two 1-D arrays of
    # one entry, on the dense path (n_max = 4) and the update path (n_max = 40)
    if window == "dense":
        base, fam, fam2, (s1, s2) = PI0, ROTATED, STACK_FAM2, (STACK_S1, STACK_S2)
    else:
        base, fam, fam2, (s1, s2) = PI40, ROTATED40, OTHER40, update_sigmas()
    blocks, seen = gr._family_blocks, []

    def stacked_only(fam, t1, t2):
        seen.append((t1, t2))
        assert all(isinstance(c, np.ndarray) and c.ndim == 1 for c in (t1, t2)), (t1, t2)
        return blocks(fam, t1, t2)

    monkeypatch.setattr(gr, "_family_blocks", stacked_only)
    for chart in (None, s1):
        for name, call in chart_calls(base, fam, fam2, chart, s2, (0.3, 0.45)).items():
            assert type(call()) in (complex, tuple), name
    assert seen


@pytest.mark.parametrize("declaration", ["declared", "undeclared"])
def test_the_update_path_against_a_conjugate_of_full_support(monkeypatch, declaration):
    # u P u* for a constant unitary u, with base and sigma conjugated by u,
    # leaves every value of the six entry points unchanged; the conjugate
    # moves every row, so it takes the dense path.  Declared with every row
    # as its support and the conjugated derivative, it checks the update
    # path and the declared routes; undeclared, it checks the stencil routes
    # of the undeclared copy of the rotated family
    u = report.random_window_unitary(np.random.default_rng(8), W40.dim)
    s1, s2 = update_sigmas()
    if declaration == "declared":
        fam, (conj_fam, conj_base) = ROTATED40, declared_conjugate(ROTATED40, PI40.entries, u)
    else:
        fam, (conj_fam, conj_base) = undeclared(ROTATED40), conjugated(ROTATED40, PI40.entries, u)
    conj_other, _ = conjugated(OTHER40, PI40.entries, u)
    conj_s1, conj_s2 = (
        gr.ModeOperator(W40, u @ s.entries @ u.conj().T, gr.TAIL_ZERO) for s in (s1, s2)
    )
    t = (0.3, 0.45)
    updated = chart_calls(PI40, fam, OTHER40, s1, s2, t)
    dense = chart_calls(conj_base, conj_fam, conj_other, conj_s1, conj_s2, t)
    for name in updated:
        if name in NO_UPDATE_PATH:
            close(updated[name](), dense[name](), tolerance(name))
            continue
        with path_spy(monkeypatch) as taken:
            value = dense[name]()
        assert taken.held == [None]
        if declaration == "declared":
            close(on_the_update_path(monkeypatch, updated[name]), value, 20 * tolerance(name))
        else:  # the undeclared copy takes the dense path too
            close(updated[name](), value, 20 * tolerance(name))


def non_coordinate_base(w, seed=3):
    # Pi_{>=0} as Q Q* for a basis Q = I[:, cols] U of its range, U a random
    # unitary: the block rounds off the 0/1 pattern, so it takes the eigh
    # basis, which is no selection of columns
    cols = np.flatnonzero(np.diag(gr.spectral_projection(w, 0).entries).real == 1)
    u = report.random_window_unitary(np.random.default_rng(seed), len(cols))
    q = np.eye(w.dim)[:, cols] @ u
    return gr.ModeOperator(w, q @ q.conj().T, gr.TAIL_APS)


@pytest.mark.parametrize("chart", ["identity", "perturbation"])
def test_the_update_path_on_an_eigh_basis(monkeypatch, chart):
    base = non_coordinate_base(W40)
    basis = gr._chart_base(W40, base)
    assert basis.cols is None and np.abs(basis.v - np.round(basis.v)).max() > 0.1
    s1, s2 = update_sigmas()
    s = s1 if chart == "perturbation" else None
    t = (0.3, 0.45)
    coordinate = chart_calls(PI40, ROTATED40, OTHER40, s, s2, t)
    eigh = chart_calls(base, ROTATED40, OTHER40, s, s2, t)
    for name in coordinate:
        if name == "tr_p_dp_dp":  # takes no base
            continue
        if name in NO_UPDATE_PATH:
            value = eigh[name]()
        else:
            value = on_the_update_path(monkeypatch, eigh[name])
        close(value, coordinate[name](), 20 * tolerance(name))


@pytest.mark.parametrize("chart", ["identity", "perturbed"])
def test_the_updated_curvature_matches_the_closed_form(monkeypatch, chart):
    # against -i pi^2 sin(pi t1), as on the dense path
    sigma = update_sigmas()[0] if chart == "perturbed" else None
    for t1, t2 in ((0.3, 0.2), (0.62, 0.9), (0.45, 0.5), (0.15, 0.7), (0.8, 0.35)):
        expected = -1j * np.pi**2 * np.sin(np.pi * t1)
        curvature = partial(gr.curvature_rkw, ROTATED40, PI40, (t1, t2), sigma)
        value = on_the_update_path(monkeypatch, curvature)
        assert abs(value - expected) < 5e-9
        assert abs(gr.tr_p_dp_dp(ROTATED40, (t1, t2)) - expected) < 5e-9


@pytest.mark.parametrize(
    "t1, dense_tol, form_tol",
    [(0.99, 1e-13, 1e-13), (0.999, 2e-11, 2e-13)],
    ids=["t1=0.99", "t1=0.999"],
)
def test_chart_layer_near_a_singular_identity_chart_on_the_update_path(
    monkeypatch, t1, dense_tol, form_tol
):
    # on a window above the crossover, as on the small one: the connection
    # form (on the dense path) against the dense pinv, the transition
    # determinant against the dense definition and the closed form; on this
    # window the reference pinv rounds by 1.65e-13 of the perturbed form at
    # t1 = 0.999.  At t1 = 0.99 the patching check along t2 finishes on the
    # update path with the dense path's values; at t1 = 0.999, where every
    # chart map is near the rank drop at t1 = 1, a sample's ratio bound is
    # left open and the whole call takes the dense path, to the last bit.
    # At t1 = 0.99 the curvature meets -i pi^2 sin(pi t1), which its
    # stencils near the singular chart at t1 = 1 meet to 1e-10 on either
    # path (at t1 = 0.999 its outer sample t1 + h is that chart)
    near_a_singular_identity_chart(W40, ROTATED40, PI40, t1, dense_tol, form_tol)
    s1, s2 = update_sigmas()
    check = partial(gr.perturbation_patching_check, ROTATED40, PI40, s1, s2, (t1, 0.45), "t2")
    if t1 == 0.999:
        close(handed_to_the_dense_path(monkeypatch, check), dense_path(monkeypatch, check), 0.0)
    else:
        close(on_the_update_path(monkeypatch, check), dense_path(monkeypatch, check), 1e-9)
        curvature = partial(gr.curvature_rkw, ROTATED40, PI40, (t1, 0.45))
        value = on_the_update_path(monkeypatch, curvature)
        assert abs(value + 1j * np.pi**2 * np.sin(np.pi * t1)) < 1e-9


@pytest.mark.parametrize("at", [NAN_AT_STENCIL, NAN_AT_INNER], ids=["stencil", "inner"])
@pytest.mark.parametrize(
    "entry",
    [
        lambda fam, t: gr.curvature_rkw(fam, PI40, t),
        lambda fam, t: gr.tr_p_dp_dp(fam, t),
        lambda fam, t: gr.perturbation_patching_check(fam, PI40, None, None, t),
        lambda fam, t: gr.patching_identity_check(fam, ROTATED40, PI40, t),
        lambda fam, t: gr.patching_identity_check(ROTATED40, fam, PI40, t),
    ],
    ids=[
        "curvature_rkw",
        "tr_p_dp_dp",
        "perturbation_patching_check",
        "patching_identity_check-fam1",
        "patching_identity_check-fam2",
    ],
)
def test_a_nan_in_an_unselected_column_still_raises_on_the_update_path(
    monkeypatch, entry, at, request
):
    # the NaN sits in the column of mode -2, outside ran(PI40), on the row of
    # mode 1: inside the declared block S x S, so the update path reads it;
    # it reaches fd_apply's finiteness check through the moves, and the
    # call then raises the dense path's error (patching_identity_check
    # takes the dense path from the start).  A NaN off S x S cannot reach
    # the update path, and test_a_nan_in_an_unselected_column_still_raises
    # covers it on the dense path.  With declared derivatives no entry point
    # samples the inner point, and tr_p_dp_dp samples nothing
    rotated = ROTATED40._declaration

    def block(t1, t2):
        b = rotated.block(t1, t2)
        b[(t1 == at[0]) & (t2 == at[1]), 1, 0] = math.nan
        return b

    fam = declared(W40, rotated.support, block, rotated.derivative)
    dense_only = "patching_identity_check" in request.node.callspec.id
    sampled = at == NAN_AT_STENCIL and "tr_p_dp_dp" not in request.node.callspec.id
    if not sampled:
        call = partial(entry, fam, CHECKED_AT)
        on_update_path = not dense_only and "tr_p_dp_dp" not in request.node.callspec.id
        value = on_the_update_path(monkeypatch, call) if on_update_path else call()
        close(value, entry(ROTATED40, CHECKED_AT), 0.0)
        return
    with path_spy(monkeypatch) as taken, pytest.raises(EvaluationError) as raised:
        entry(fam, CHECKED_AT)
    assert not taken.held if dense_only else taken.held and None not in taken.held
    with pytest.raises(EvaluationError) as dense:
        dense_path(monkeypatch, lambda: entry(fam, CHECKED_AT))
    assert str(raised.value) == str(dense.value)
    with pytest.raises(EvaluationError):
        through_eigh(monkeypatch, lambda: entry(fam, CHECKED_AT))


def test_an_outer_sample_the_bound_leaves_open_takes_the_svd_rule(monkeypatch):
    # near the singular chart at t1 = 1 the norm bound of an outer
    # curvature_rkw sample can fail where the SVD rule passes: at t1 = 0.9985
    # four of the eight outer samples are left open, so the update path
    # hands the whole call to the dense path, whose eight outer forms run
    # the rule; the value is the dense path's to the last bit and meets the
    # closed form; at t1 = 0.998 the sample t1 + 2h = 1 is singular, and the
    # refusal is the rule's, with the dense path's message
    made = []
    form = gr._Chart.form

    def counted(chart, axis):
        made.append(chart.t)
        return form(chart, axis)

    monkeypatch.setattr(gr._Chart, "form", counted)
    t = (0.9985, 0.3)
    value = handed_to_the_dense_path(monkeypatch, lambda: gr.curvature_rkw(ROTATED40, PI40, t))
    assert len(made) == 8
    expected = -1j * np.pi**2 * np.sin(np.pi * t[0])
    assert abs(value - expected) < 1e-9
    dense = dense_path(monkeypatch, lambda: gr.curvature_rkw(ROTATED40, PI40, t))
    assert value == dense
    messages = []
    for path in (handed_to_the_dense_path, dense_path):
        singular = r"chart is singular at t = \(1\.0, 0\.3\)"
        with pytest.raises(NotInvertible, match=singular) as raised:
            path(monkeypatch, lambda: gr.curvature_rkw(ROTATED40, PI40, (0.998, 0.3)))
        messages.append(str(raised.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("fault", ["raises", "row"])
@pytest.mark.parametrize("n_max", [4, 40])
def test_a_singular_outer_sample_is_reported_before_a_later_failing_one(monkeypatch, n_max, fault):
    # at t1 = 0.998 the third outer sample of curvature_rkw's pass along t1,
    # t1 + 2h = 1, is a singular chart, and the family fails at the fourth,
    # t1 - 2h: on either side of the crossover the refusal is the singular
    # chart's, since the update path hands a call whose sample fails, or is
    # left open, to the dense path, which meets the chart guard first
    w = gr.ModeWindow(n_max)
    rotated, base = gr.rotated_family(w, (-2, 1)), gr.spectral_projection(w, 0)
    t = (0.998, 0.3)
    later = (t[0] - 2 * H, t[1])

    def value(t1, t2):
        p = rotated(t1, t2).entries
        if (t1, t2) != later:
            return p
        if fault == "raises":
            raise ValueError("boom")
        return p[0]

    failing = gr.ProjectionFamily(w, value)
    singular = r"^chart is singular at t = \(1\.0, 0\.3\)"
    with pytest.raises(NotInvertible, match=singular) as raised:
        gr.curvature_rkw(failing, base, t)
    with path_spy(monkeypatch) as taken, pytest.raises(NotInvertible) as unfailing:
        gr.curvature_rkw(rotated, base, t)
    # below the crossover the dense path runs before any sample is taken;
    # above it the declared family opens the update path before the hand-over
    assert len(taken.held) == 1 and (taken.held[0] is None) == (n_max == 4)
    assert str(raised.value) == str(unfailing.value)


def test_samples_that_move_more_than_two_rows_take_the_dense_path(monkeypatch):
    # the update path is measured for |J| = 2 alone: a family that rotates
    # two pairs of modes moves four rows, and takes the dense path even at
    # r = 101, decided before any sample.  Undeclared, its block function is
    # read at t and at the four stencil samples of the ratio and of each
    # connection form (13 reads); declared with its four rows, at t and the
    # ratio's samples alone (5 reads), and its declared block is never read
    w = gr.ModeWindow(100)
    fam1, fam2 = gr.rotated_family(w, (-3, 7)), gr.rotated_family(w, (-1, 2))
    pair = np.ix_(*[[w.index(-1), w.index(2)]] * 2)
    read = []

    def value(t1, t2):
        read.append((t1, t2))
        p = fam1._map(t1, t2)
        p[pair] = fam2._map(t1, t2)[pair]
        return p

    fam, base = gr.ProjectionFamily(w, value), gr.spectral_projection(w, 0)
    s1, s2 = update_sigmas(w, 15)
    t = (0.4, 0.3)
    check = partial(gr.perturbation_patching_check, fam, base, s1, s2, t)
    with path_spy(monkeypatch) as taken:
        lhs, rhs = check()
    assert taken.held == [None] and taken.declared == 0
    assert read == [t] + 3 * [(t[0] + k * H, t[1]) for k in (1, -1, 2, -2)]
    assert abs(lhs - rhs) < 1e-5
    close((lhs, rhs), dense_path(monkeypatch, check), 0.0)

    # declared, its connection forms read the declared derivative: the lhs
    # is the same stencil of the ratio, the rhs agrees with the stencil's
    support = tuple(sorted(w.index(m) for m in (-3, 7, -1, 2)))
    pairs = [[support.index(w.index(m)) for m in pair] for pair in ((-3, 7), (-1, 2))]

    def derivative(t1, t2, axis):
        d = np.zeros((len(t1), 4, 4), dtype=complex)
        for (i, j), rotated in zip(pairs, (fam1, fam2)):
            d[:, [[i], [j]], [i, j]] = rotated._declaration.derivative(t1, t2, axis)
        return d

    fam._declaration = gr._Declaration(support, lambda t1, t2: pytest.fail("read"), derivative)
    read.clear()
    with path_spy(monkeypatch) as taken:
        declared_lhs, declared_rhs = check()
    assert taken.held == [None] and taken.declared == 0
    assert read == [t] + [(t[0] + k * H, t[1]) for k in (1, -1, 2, -2)]
    assert declared_lhs == lhs and abs(declared_rhs - rhs) < 1e-9 and abs(lhs - declared_rhs) < 1e-5


@pytest.mark.parametrize("n_max", [4, 100])
def test_rotated_family_is_its_base_with_the_declared_block_written_in(n_max):
    # bit for bit, at 240 seeded points as scalars and as one stack, t1 = 0
    # and 1 among them: the value is Pi_{>=0} off S x S, and its S x S block
    # is the one the update path reads
    w = gr.ModeWindow(n_max)
    rng = np.random.default_rng(n_max)
    modes = (-int(rng.integers(1, n_max + 1)), int(rng.integers(0, n_max + 1)))
    fam, base = gr.rotated_family(w, modes), gr.spectral_projection(w, 0).entries
    assert fam._declaration.support == tuple(w.index(m) for m in modes)
    s = np.ix_(*[fam._declaration.support] * 2)
    off = np.ones(base.shape, dtype=bool)
    off[s] = False
    t1, t2 = rng.uniform(-1.0, 2.0, 240), rng.uniform(-1.0, 2.0, 240)
    t1[:2] = 0.0, 1.0
    stack = gr._family_blocks(fam, t1, t2)
    scalars = np.array([fam(a, b).entries for a, b in zip(t1, t2)])
    read = gr._declared(fam, (t1, t2))
    one_by_one = np.concatenate([gr._declared(fam, one_point(p)) for p in zip(t1, t2)])
    for values in (stack, scalars):
        assert values[:, off].tobytes() == np.broadcast_to(base[off], (240, off.sum())).tobytes()
        assert values[:, s[0], s[1]].tobytes() == read.tobytes() == one_by_one.tobytes()


def test_the_declared_derivative_is_the_derivative_of_the_declared_block():
    # against mpmath.diff of the closed form at 200 seeded points, t1 = 0 and
    # 1 among them; on the block B, B (d B) B = 0 and (I - B) (d B) (I - B)
    # = 0, as for the derivative of any projection; and a k-point stack is
    # the k one-point stacks, bit for bit
    fam = gr.rotated_family(W, (-2, 1))
    rng = np.random.default_rng(31)
    t1, t2 = rng.uniform(0.0, 1.0, 200), rng.uniform(0.0, 1.0, 200)
    t1[:2] = 0.0, 1.0
    block = fam._declaration.block(t1, t2)
    rest = np.eye(2) - block
    for axis in (0, 1):
        derivative = fam._declaration.derivative(t1, t2, axis)
        assert derivative.shape == (200, 2, 2) and derivative.dtype == complex
        exact = np.array([mp_block_derivative(p, axis) for p in zip(t1, t2)])
        assert np.abs(derivative - exact).max() < 1e-14
        assert np.abs(block @ derivative @ block).max() < 1e-15
        assert np.abs(rest @ derivative @ rest).max() < 1e-15
        one_by_one = [fam._declaration.derivative(*one_point(p), axis) for p in zip(t1, t2)]
        assert derivative.tobytes() == np.concatenate(one_by_one).tobytes()


DECLARED_ENTRY_POINTS = [
    pytest.param(
        lambda fam, base, t, other: gr.connection_form(fam, base, t), id="connection_form"
    ),
    pytest.param(lambda fam, base, t, other: gr.tr_p_dp_dp(fam, t), id="tr_p_dp_dp"),
    pytest.param(lambda fam, base, t, other: gr.curvature_rkw(fam, base, t), id="curvature_rkw"),
    pytest.param(
        lambda fam, base, t, other: gr.perturbation_patching_check(
            fam, base, *update_sigmas(fam.window), t
        ),
        id="perturbation_patching_check",
    ),
    pytest.param(
        lambda fam, base, t, other: gr.patching_identity_check(fam, other, base, t),
        id="patching_identity_check",
    ),
]


@pytest.mark.parametrize("fault", ["nan", "shape", "nan-in-the-block", "shape-of-the-block"])
@pytest.mark.parametrize("n_max", [4, 40], ids=["dense", "update"])
@pytest.mark.parametrize("entry", DECLARED_ENTRY_POINTS)
def test_a_declared_derivative_that_is_no_finite_stack_raises(
    monkeypatch, entry, n_max, fault, request
):
    # below the crossover and above it, where the update path hands the
    # refusal to the dense path: the error names the point where the
    # derivative is read, t, or curvature_rkw's first outer sample (t1 + h,
    # t2).  The declared block is checked by the same rule, which names t
    # when the block is read there.  Only the update path's samples read it,
    # and there its refusal hands the call to the dense path, which reads
    # the family's values instead and returns its own values
    w = gr.ModeWindow(n_max)
    rotated, base = gr.rotated_family(w, (-2, 1)), gr.spectral_projection(w, 0)
    other = gr.rotated_family(w, (-1, 2))
    declaration = rotated._declaration
    part = "block" if fault.endswith("block") else "derivative"

    def faulty(*args):
        d = getattr(declaration, part)(*args)
        return d[:, 0] if fault.startswith("shape") else d * math.nan

    if part == "derivative":
        fam = declared(w, declaration.support, declaration.block, faulty)
    else:
        fam = declared(w, declaration.support, declaration.block, declaration.derivative)
        fam._declaration = gr._Declaration(declaration.support, faulty, declaration.derivative)
    outer = part == "derivative" and "curvature_rkw" in request.node.callspec.id
    point = r"\(0\.401, 0\.3\)" if outer else r"\(0\.4, 0\.3\)"
    if fault.startswith("nan"):
        error, message = EvaluationError, rf"^declared {part} is not finite at {point}$"
    else:
        shape = r"no stack of 1 2x2 blocks, got complex128 of shape \(1, 2\)$"
        error, message = DomainError, rf"^declared {part} at {point} is {shape}"
    call = partial(entry, fam, base, CHECKED_AT, other)
    if part == "block":
        with pytest.raises(error, match=message):
            gr._declared(fam, one_point(CHECKED_AT))
        sampling = ("curvature_rkw", "perturbation_patching_check")
        if n_max == 40 and any(name in request.node.callspec.id for name in sampling):
            value = handed_to_the_dense_path(monkeypatch, call)
        else:
            value = call()
        close(value, dense_path(monkeypatch, call), 0.0)
    else:
        with pytest.raises(error, match=message):
            call()
    np.testing.assert_allclose(
        entry(rotated, base, CHECKED_AT, other),
        entry(undeclared(rotated), base, CHECKED_AT, undeclared(other)),
        rtol=1e-8,
        atol=1e-8,
    )


def test_a_declared_derivative_names_the_first_point_that_is_not_finite():
    rotated = gr.rotated_family(W, (-2, 1))

    def derivative(t1, t2, axis):
        d = rotated._declaration.derivative(t1, t2, axis)
        d[t1 > 0.3] = math.nan
        return d

    fam = declared(W, rotated._declaration.support, rotated._declaration.block, derivative)
    t = (np.array([0.2, 0.4, 0.6]), np.array([0.1, 0.5, 0.9]))
    with pytest.raises(EvaluationError, match=r"not finite at \(0\.4, 0\.5\)$"):
        gr.connection_form(fam, PI0, t)
    with pytest.raises(EvaluationError, match=r"not finite at \(0\.4, 0\.5\)$"):
        gr.tr_p_dp_dp(fam, t)


def test_lapack_calls_on_the_update_path_at_n_max_100(monkeypatch):
    # on a 201-dimensional window (r = 101), with samples that move the rows
    # J of two modes: one r x r inverse per chart at t, which settles its
    # guard, and none per outer curvature_rkw sample, whose Woodbury update
    # solves against its 2|J| x 2|J| capacitance (3|J| in a perturbation
    # chart); a patching check's ratio and forms share the charts' inverses
    # at t, and the ratio takes a capacitance det per chart and sample;
    # tr_p_dp_dp makes no LAPACK call
    calls = []

    def counted(name, inner):
        def call(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return inner(a, *args, **kwargs)

        return call

    for name in ("svd", "eigh", "qr", "inv", "solve", "det"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    w = gr.ModeWindow(100)
    fam, base = gr.rotated_family(w, (-3, 7)), gr.spectral_projection(w, 0)
    s1, s2 = update_sigmas(w, 15)
    t = (0.4, 0.3)

    def counts(call):
        calls.clear()
        on_the_update_path(monkeypatch, call)
        return {c: calls.count(c) for c in calls}

    inverse = {("inv", (1, 101, 101)): 1}
    assert counts(lambda: gr.curvature_rkw(fam, base, t)) == {**inverse, ("solve", (1, 4, 4)): 8}
    assert counts(lambda: gr.curvature_rkw(fam, base, t, s1)) == {
        **inverse,
        ("solve", (1, 6, 6)): 8,
    }
    calls.clear()
    gr.tr_p_dp_dp(fam, t)  # reads the declared derivatives, on no path
    assert calls == []
    assert counts(lambda: gr.perturbation_patching_check(fam, base, s1, s2, t)) == {
        ("inv", (1, 101, 101)): 2,
        ("det", (1, 6, 6)): 8,
    }


@pytest.mark.parametrize("t", [(0.999, 0.45), (np.array([0.3, 0.999]), np.array([0.2, 0.45]))])
@pytest.mark.parametrize(
    "formed, check",
    [
        (
            "_transition_det",
            lambda t, s: gr.perturbation_patching_check(ROTATED40, PI40, None, s, t, "t2"),
        ),
        (
            "_chart_ratio",
            lambda t, s: gr.patching_identity_check(ROTATED40, OTHER40, PI40, t, "t2"),
        ),
    ],
    ids=["perturbation_patching_check", "patching_identity_check"],
)
def test_a_patching_sample_the_bound_leaves_open_takes_the_svd_rule(monkeypatch, formed, check, t):
    # at t1 = 0.999 the identity chart's block has s_min = cos^2(pi t1 / 2),
    # 2.5e-6: the certificates at t pass, while no sample's ratio bound
    # clears 2 CHART_SVD_THRESHOLD, so perturbation_patching_check hands the
    # whole call to the dense path (patching_identity_check takes it from
    # the start), which forms the ratio at the four samples and at t by the
    # SVD rule (which passes along t2) and returns its values to the last bit
    s2 = update_sigmas()[1]
    made = []
    inner = getattr(gr, formed)

    def counted(*args):
        made.append(args[-1])
        return inner(*args)

    monkeypatch.setattr(gr, formed, counted)
    value = handed_to_the_dense_path(monkeypatch, lambda: check(t, s2))
    assert len(made) == 5
    close(value, dense_path(monkeypatch, lambda: check(t, s2)), 0.0)
