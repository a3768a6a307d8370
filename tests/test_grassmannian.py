"""Mode-window operator tests: spectral projections, eta invariants,
Fredholm determinants, connection forms, curvature and patching."""

import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest

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
from detline.tolerances import DEFAULT_FD_STEP

RNG = np.random.default_rng(20240811)
W = gr.ModeWindow(4)
PI0 = gr.spectral_projection(W, 0)


def random_unitary(dim, rng=RNG):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


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
    # ran(base) is a set of coordinate columns, on the conjugated base it is not
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
        for axis in (0, 1):
            ds = fd_apply(gr._each(s_at), t, st, axis)
            s_pinv = np.linalg.pinv(s_at(*t), rcond=gr.RANK_SVD_THRESHOLD)
            expected = np.trace(s_pinv @ fam(*t).entries @ ds @ b)
            value = gr.connection_form(fam, base, t, axis, perturbation=sigma)
            assert abs(value - expected) < 1e-12


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
    # per public call: one eigh of the 13 x 13 base block, the only d x d
    # decomposition, and one projection check each for the base and the
    # family at t; every other decomposition runs on a thin 13 x 7 chart
    # block or on an r x r = 7 x 7 block of a transition ratio.  The one
    # ModeOperator built per family is its checked value at t: stencil
    # samples read the block function unwrapped (5, 41, 9, 13 and 18
    # constructions when every sample was wrapped).
    # A patching check evaluates each family once per stencil sample for
    # its transition ratio and both connection forms (13 and 18 block
    # function calls when each route took its own samples)
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
        return {c: calls.count(c) for c in calls}, len(checks), len(built), len(blocks)

    t = (0.35, 0.6)
    eigh = {("eigh", (13, 13)): 1}
    thin_svd, small_svd = ("svd", (13, 7)), ("svd", (7, 7))
    # a transition ratio: a thin QR of S_2 V (transition_det only), two r x r
    # chart guards, one r x r solve and one r x r det
    ratio = {("solve", (7, 7)): 1, ("det", (7, 7)): 1}
    assert counts(lambda: gr.connection_form(fam, base, t)) == ({**eigh, thin_svd: 1}, 2, 1, 5)
    assert counts(lambda: gr.curvature_rkw(fam, base, t)) == ({**eigh, thin_svd: 8}, 2, 1, 41)
    assert counts(lambda: gr.tr_p_dp_dp(fam, t)) == ({}, 1, 1, 9)
    assert counts(lambda: gr.transition_det(fam, base, t, sigma1, sigma2)) == (
        {**eigh, ("qr", (13, 7)): 1, small_svd: 2, **ratio},
        2,
        1,
        1,
    )
    # five ratios (four stencil points and t) and two connection forms
    five = {key: 5 * n for key, n in ratio.items()}
    assert counts(lambda: gr.perturbation_patching_check(fam, base, sigma1, sigma2, t)) == (
        {**eigh, ("qr", (13, 7)): 5, small_svd: 10, **five, thin_svd: 2},
        2,
        1,
        5,
    )
    assert counts(lambda: gr.patching_identity_check(fam, fam2, base, t)) == (
        {**eigh, small_svd: 10, **five, thin_svd: 2},
        3,
        2,
        10,
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


def dense_family(w, rng):
    """P(t) = U Pi_{>=0} U* with U = exp(i (t1 A + t2 B)) for Hermitian A, B:
    every window mode moves, at several frequencies."""

    def hermitian():
        m = 0.3 * (rng.standard_normal((w.dim, w.dim)) + 1j * rng.standard_normal((w.dim, w.dim)))
        return (m + m.conj().T) / 2

    a, b, pi0 = hermitian(), hermitian(), gr.spectral_projection(w, 0).entries

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


def mp_rotated_value(w, modes, t):
    # rotated_family's closed form at 40 digits
    theta = mpmath.pi * mpmath.mpf(t[0]) / 2
    phase = mpmath.exp(2j * mpmath.pi * mpmath.mpf(t[1]))
    sin, cos = mpmath.sin(theta), mpmath.cos(theta)
    i, j = w.index(modes[0]), w.index(modes[1])
    p = mpmath.matrix(gr.spectral_projection(w, 0).entries.real.tolist())
    p[i, i], p[j, j] = sin * sin, cos * cos
    p[i, j], p[j, i] = -mpmath.conj(phase) * sin * cos, -phase * sin * cos
    return p


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
    boundary, area = stokes_on(3)
    monkeypatch.setattr(report, "_STOKES_N1", 2 * report._STOKES_N1)
    monkeypatch.setattr(report, "_STOKES_N2", 2 * report._STOKES_N2)
    boundary2, area2 = stokes_on(3)
    assert abs(abs(boundary2 - area2) - abs(boundary - area)) < 1e-10


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

# (entry, exact): an entry that divides by a stencil quotient on the way
# (curvature_rkw's outer stencil, the patching log-derivatives) divides in
# numpy on a stack and in Python complex arithmetic on a point, which may
# round apart in the last bit; every other value is equal to the last bit
STACKED_ENTRY_POINTS = [
    pytest.param(
        lambda t, s: gr.connection_form(ROTATED, PI0, t, "t1", s), True, id="connection_form-t1"
    ),
    pytest.param(
        lambda t, s: gr.connection_form(ROTATED, PI0, t, "t2", s), True, id="connection_form-t2"
    ),
    pytest.param(lambda t, s: gr.tr_p_dp_dp(ROTATED, t), True, id="tr_p_dp_dp"),
    pytest.param(lambda t, s: gr.curvature_rkw(ROTATED, PI0, t, s), False, id="curvature_rkw"),
    pytest.param(
        lambda t, s: gr.transition_det(ROTATED, PI0, t, s, STACK_S2), True, id="transition_det"
    ),
    pytest.param(
        lambda t, s: gr.perturbation_patching_check(ROTATED, PI0, s, STACK_S2, t, "t1"),
        False,
        id="perturbation_patching_check-t1",
    ),
    pytest.param(
        lambda t, s: gr.perturbation_patching_check(ROTATED, PI0, s, STACK_S2, t, "t2"),
        False,
        id="perturbation_patching_check-t2",
    ),
    pytest.param(
        lambda t, s: gr.patching_identity_check(ROTATED, STACK_FAM2, PI0, t, "t1"),
        False,
        id="patching_identity_check-t1",
    ),
    pytest.param(
        lambda t, s: gr.patching_identity_check(ROTATED, STACK_FAM2, PI0, t, "t2"),
        False,
        id="patching_identity_check-t2",
    ),
]


@pytest.mark.parametrize("chart", ["identity", "perturbation"])
@pytest.mark.parametrize("entry, exact", STACKED_ENTRY_POINTS)
def test_stacked_call_equals_the_one_point_calls(entry, exact, chart):
    # a k-point call returns, member by member, what k one-point calls return
    # (a pair of arrays for the patching checks)
    sigma = None if chart == "identity" else STACK_S1
    stacked = entry((STACK_T1, STACK_T2), sigma)
    singles = [entry((a, b), sigma) for a, b in zip(STACK_T1, STACK_T2)]
    stacked = np.array(stacked, ndmin=2).reshape(-1, len(STACK_T1))
    singles = np.array(singles).T.reshape(stacked.shape)
    assert all(type(x) is complex for x in np.ravel(singles).tolist())
    assert stacked.dtype == complex
    if exact:
        np.testing.assert_array_equal(stacked, singles)
    assert np.all(np.abs(stacked - singles) <= 1e-15 * np.abs(singles))


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
SHARED_AT = [
    pytest.param((0.35, 0.6), id="one-point"),
    pytest.param((STACK_T1[:3], STACK_T2[:3]), id="three-points"),
]


@pytest.mark.parametrize("direction", ["t1", "t2"])
@pytest.mark.parametrize("charts", ["perturbation", "identity-and-perturbation"])
@pytest.mark.parametrize("t", SHARED_AT)
def test_perturbation_patching_shares_samples_exactly(t, charts, direction):
    # the shared stencil pass gives, to the last bit, the public routes: the
    # stencil of transition_det over its value at t, and the difference of
    # the two connection forms
    s1 = STACK_S1 if charts == "perturbation" else None
    lhs, rhs = gr.perturbation_patching_check(ROTATED, PI0, s1, STACK_S2, t, direction)
    axis = ("t1", "t2").index(direction)

    def g(t1, t2):
        return gr.transition_det(ROTATED, PI0, (t1, t2), s1, STACK_S2)

    assert np.all(lhs == fd_apply(gr._each(g), t, D1, axis) / g(*t))
    omega1 = gr.connection_form(ROTATED, PI0, t, direction, s1)
    omega2 = gr.connection_form(ROTATED, PI0, t, direction, STACK_S2)
    assert np.all(rhs == omega1 - omega2)


@pytest.mark.parametrize("direction", ["t1", "t2"])
@pytest.mark.parametrize("t", SHARED_AT)
def test_identity_patching_shares_samples_exactly(t, direction):
    # as above for the identity charts of two families: the lhs is the
    # stencil of the family ratio det(V* P_1 V (V* P_2 V)^{-1}) over its value
    v = gr._chart_base(W, PI0)
    vh = v.conj().T
    lhs, rhs = gr.patching_identity_check(ROTATED, STACK_FAM2, PI0, t, direction)
    axis = ("t1", "t2").index(direction)

    def family_ratio(t1, t2):
        p1, p2 = (gr._family_blocks(fam, t1, t2) for fam in (ROTATED, STACK_FAM2))
        return gr._chart_ratio(vh @ (p1 @ v), vh @ (p2 @ v), (t1, t2))

    assert np.all(lhs == fd_apply(gr._each(family_ratio), t, D1, axis) / family_ratio(*t))
    omega1 = gr.connection_form(ROTATED, PI0, t, direction)
    omega2 = gr.connection_form(STACK_FAM2, PI0, t, direction)
    assert np.all(rhs == omega1 - omega2)


def test_perturbation_patching_peak_memory_on_a_large_window():
    # one check on a 201-dimensional window: the shared pass holds one sample's chart maps and the two accumulated
    # members (3.73 MB traced when each route took its own samples; a cache
    # of every sample reached 5.85 MB)
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
    assert peak <= 5.0e6, peak


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
    ],
    ids=["lengths", "2-D", "empty", "float-and-array", "nan", "inf", "complex", "triple"],
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
