"""Determinant-line algebra: points, ratios, multiplicativity, index."""

import mpmath as mp
import numpy as np
import pytest

from detline import det_line
from detline import grassmannian as gr
from detline.errors import DivisionByZeroPoint, NotDetClass

RNG = np.random.default_rng(77)
W = gr.ModeWindow(3)


def random_unitary(dim):
    m = RNG.standard_normal((dim, dim)) + 1j * RNG.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def det_class(scale=0.4):
    k = scale * (RNG.standard_normal((W.dim, W.dim)) + 1j * RNG.standard_normal((W.dim, W.dim)))
    return gr.ModeOperator(W, np.eye(W.dim, dtype=complex) + k, gr.TAIL_IDENTITY)


def test_det_point_identity():
    p = det_line.det_point(gr.ModeOperator.identity(W))
    assert not p.is_zero
    assert det_line.ratio(p, p) == pytest.approx(1.0)


def test_det_point_zero_detection():
    singular = np.eye(W.dim, dtype=complex)
    singular[0, 0] = 0.0
    zero = det_line.det_point(gr.ModeOperator(W, singular, gr.TAIL_IDENTITY))
    assert zero.is_zero
    with pytest.raises(DivisionByZeroPoint):
        det_line.ratio(det_line.det_point(gr.ModeOperator.identity(W)), zero)
    # the zero point still has well-defined ratios as a numerator
    assert det_line.ratio(zero, det_line.det_point(gr.ModeOperator.identity(W))) == 0


def test_det_point_requires_identity_tails():
    with pytest.raises(NotDetClass):
        det_line.det_point(gr.spectral_projection(W, 0))


def test_rank_one_ratio():
    bump = np.zeros((W.dim, W.dim), dtype=complex)
    bump[0, 0] = 1.0
    p = det_line.det_point(gr.ModeOperator(W, np.eye(W.dim) + bump, gr.TAIL_IDENTITY))
    q = det_line.det_point(gr.ModeOperator.identity(W))
    assert det_line.ratio(p, q) == pytest.approx(2.0)


def test_equivalence_relation():
    for _ in range(25):
        s, q = det_class(), det_class()
        lam = complex(RNG.standard_normal(), RNG.standard_normal())
        left = det_line.DetPoint(s @ q, lam, False)
        right = det_line.DetPoint(s, lam * gr.fredholm_det(q), False)
        assert det_line.ratio(left, right) == pytest.approx(1.0, abs=1e-10)


def test_scalar_action():
    p = det_line.det_point(det_class())
    q = det_line.det_point(det_class())
    mu = 2.5 - 1.25j
    assert det_line.ratio(p.scaled(mu), q) == pytest.approx(
        mu * det_line.ratio(p, q), rel=1e-12
    )


def test_ratio_transitivity():
    for _ in range(25):
        p, q, r = (det_line.det_point(det_class()) for _ in range(3))
        assert det_line.ratio(p, q) * det_line.ratio(q, r) == pytest.approx(
            det_line.ratio(p, r), rel=1e-10
        )


def test_ratio_reproduces_fredholm_det():
    t1, t2 = det_class(), det_class()
    expected = np.linalg.det(t1.entries @ np.linalg.inv(t2.entries))
    assert det_line.ratio(det_line.det_point(t1), det_line.det_point(t2)) == pytest.approx(
        expected, rel=1e-12
    )


def _exact_det(m: np.ndarray) -> complex:
    with mp.workdps(40):
        return complex(mp.det(mp.matrix([[mp.mpc(x.real, x.imag) for x in row] for row in m])))


def test_ratio_matches_high_precision_determinants():
    # worst relative error over these 150 pairs: 4.1e-15 (5.7e-14 when
    # T_q^{-1} was formed explicitly)
    worst = 0.0
    for _ in range(150):
        t1, t2 = det_class(), det_class()
        exact = _exact_det(t1.entries) / _exact_det(t2.entries)
        got = det_line.ratio(det_line.det_point(t1), det_line.det_point(t2))
        worst = max(worst, abs(got - exact) / abs(exact))
    assert worst < 2e-14


def test_ratio_against_nonzero_near_singular_point():
    # smallest singular value 1e-8: above the zero-point threshold, so the
    # point is nonzero and the ratio against it is defined
    u, v = random_unitary(W.dim), random_unitary(W.dim)
    sv = np.linspace(1.5, 0.5, W.dim)
    sv[-1] = 1e-8
    near = gr.ModeOperator(W, (u * sv) @ v.conj().T, gr.TAIL_IDENTITY)
    q = det_line.det_point(near)
    assert not q.is_zero
    t = det_class()
    exact = _exact_det(t.entries) / _exact_det(near.entries)
    assert det_line.ratio(det_line.det_point(t), q) == pytest.approx(exact, rel=1e-6)


def test_normal_form_canonicalizes():
    s, q = det_class(), det_class()
    a = det_line.DetPoint(s @ q, 1.0 + 0j, False).normal_form()
    b = det_line.DetPoint(s, gr.fredholm_det(q), False).normal_form()
    assert np.allclose(a.rep.entries, np.eye(W.dim))
    assert a.scale == pytest.approx(b.scale, rel=1e-10)


def test_tensor_split_trivial_case():
    ident = gr.ModeOperator.identity(W)
    joint, (pa, pb) = det_line.tensor_split(ident, ident)
    assert det_line.ratio(joint, pa) == pytest.approx(1.0)
    assert det_line.ratio(pa, pb) == pytest.approx(1.0)


def test_tensor_split_multiplicativity():
    worst = 0.0
    for _ in range(100):
        a, b = det_class(0.3), det_class(0.3)
        a2, b2 = det_class(0.3), det_class(0.3)
        joint, (pa, pb) = det_line.tensor_split(a, b)
        lhs = det_line.ratio(det_line.det_point(a2 @ b2), joint)
        rhs = det_line.ratio(det_line.det_point(a2), pa) * det_line.ratio(
            det_line.det_point(b2), pb
        )
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    assert worst < 1e-10


def test_tensor_split_diagonal_exactness():
    d1 = gr.ModeOperator(W, np.diag(RNG.uniform(0.5, 2.0, W.dim)).astype(complex), gr.TAIL_IDENTITY)
    d2 = gr.ModeOperator(W, np.diag(RNG.uniform(0.5, 2.0, W.dim)).astype(complex), gr.TAIL_IDENTITY)
    joint, (p1, p2) = det_line.tensor_split(d1, d2)
    ident = det_line.det_point(gr.ModeOperator.identity(W))
    assert det_line.ratio(joint, ident) == pytest.approx(
        det_line.ratio(p1, ident) * det_line.ratio(p2, ident), rel=1e-12
    )


def random_partial_isometry(dom_rank, cod_rank, map_rank):
    u = random_unitary(W.dim)
    v = random_unitary(W.dim)
    dom = gr.ModeOperator(W, u[:, :dom_rank] @ u[:, :dom_rank].conj().T, gr.TAIL_ZERO)
    cod = gr.ModeOperator(W, v[:, :cod_rank] @ v[:, :cod_rank].conj().T, gr.TAIL_ZERO)
    iso = gr.ModeOperator(W, v[:, :map_rank] @ u[:, :map_rank].conj().T, gr.TAIL_ZERO)
    return iso, dom, cod


def test_range_map_index_kernel_cokernel_count():
    iso, dom, cod = random_partial_isometry(5, 3, 2)
    # dim ker = 5 - 2, dim coker = 3 - 2
    assert det_line.range_map_index(iso, dom, cod) == (5 - 2) - (3 - 2)


def test_index_additivity_under_composition():
    for _ in range(50):
        ranks = sorted(int(x) for x in RNG.integers(1, W.dim, size=3))
        r_small, r_mid, r_big = ranks
        a2, dom, mid = random_partial_isometry(r_big, r_mid, r_small)
        a1, _, cod = random_partial_isometry(r_mid, r_small, max(1, r_small - 1))
        ind_a1 = det_line.range_map_index(a1, mid, cod)
        ind_a2 = det_line.range_map_index(a2, dom, mid)
        composed = a1 @ mid @ a2
        assert det_line.range_map_index(composed, dom, cod) == ind_a1 + ind_a2
