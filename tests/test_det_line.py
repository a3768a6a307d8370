"""Determinant-line algebra: points, ratios, multiplicativity, index."""

import mpmath as mp
import numpy as np
import pytest

from detline import det_line, report
from detline import grassmannian as gr
from detline.errors import DivisionByZeroPoint, DomainError, NotDetClass

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


# ---------------------------------------------------------------------------
# stacks: entries k x d x d stand for k operators, member by member


def det_class_stack(rng, k, scale=0.4, singular=None):
    g = rng.standard_normal((k, 2, W.dim, W.dim))
    entries = np.eye(W.dim, dtype=complex) + scale * (g[:, 0] + 1j * g[:, 1])
    if singular is not None:
        entries[singular, 0, :] = 0.0  # a zero row: the member is the zero point
    return gr.ModeOperator(W, entries, gr.TAIL_IDENTITY)


def members(op):
    return [gr.ModeOperator(op.window, m, op.tail) for m in op.entries]


def assert_close(stacked, looped):
    np.testing.assert_allclose(stacked, np.array(looped), rtol=1e-15, atol=0.0)


def test_stacked_points_and_ratios_match_a_loop_over_members():
    rng = np.random.default_rng(12)
    p_op, q_op = det_class_stack(rng, 6, singular=2), det_class_stack(rng, 6)
    p, q = det_line.det_point(p_op), det_line.det_point(q_op)
    ps, qs = [det_line.det_point(m) for m in members(p_op)], [
        det_line.det_point(m) for m in members(q_op)
    ]
    assert p.is_zero.tolist() == [x.is_zero for x in ps] == [i == 2 for i in range(6)]
    assert not q.is_zero.any()
    assert_close(gr.fredholm_det(p_op), [gr.fredholm_det(m) for m in members(p_op)])
    assert_close(det_line.ratio(p, q), [det_line.ratio(a, b) for a, b in zip(ps, qs)])
    assert det_line.ratio(p, q)[2] == 0
    mu = np.linspace(0.5, 3.0, 6) * (1 - 0.5j)
    assert_close(
        det_line.ratio(p.scaled(mu), q),
        [det_line.ratio(a.scaled(m), b) for a, b, m in zip(ps, qs, mu)],
    )

    joint, (pa, pb) = det_line.tensor_split(p_op, q_op)
    for i, (a, b) in enumerate(zip(members(p_op), members(q_op))):
        joint_i, (pa_i, pb_i) = det_line.tensor_split(a, b)
        for stacked, single in ((joint, joint_i), (pa, pa_i), (pb, pb_i)):
            np.testing.assert_array_equal(stacked.rep.entries[i], single.rep.entries)
            assert stacked.scale[i] == single.scale and stacked.is_zero[i] == single.is_zero

    scales = np.exp(1j * np.arange(6))
    nf = det_line.DetPoint(p_op, scales, p.is_zero).normal_form()
    for i, member in enumerate(members(p_op)):
        nf_i = det_line.DetPoint(member, scales[i], ps[i].is_zero).normal_form()
        np.testing.assert_array_equal(nf.rep.entries[i], nf_i.rep.entries)
        assert_close(nf.scale[i], nf_i.scale)
        assert nf.is_zero[i] == nf_i.is_zero
    # the zero member is returned unchanged, the others as [I, scale det]
    np.testing.assert_array_equal(nf.rep.entries[2], p_op.entries[2])
    assert nf.scale[2] == scales[2]


def test_stacked_ranks_and_indices_match_a_loop_over_members():
    rng = np.random.default_rng(13)
    u = np.linalg.qr(rng.standard_normal((5, W.dim, W.dim)))[0].astype(complex)
    dom_ranks, cod_ranks = np.array([1, 3, 7, 4, 2]), np.array([5, 2, 1, 4, 6])

    def projections(ranks):
        mask = np.arange(W.dim) < ranks[:, None]
        return gr.ModeOperator(W, (u * mask[:, None, :]) @ u.conj().mT, gr.TAIL_ZERO)

    dom, cod = projections(dom_ranks), projections(cod_ranks)
    t_op = det_class_stack(rng, 5)
    assert dom.window_rank().tolist() == [m.window_rank() for m in members(dom)]
    assert dom.window_rank().tolist() == dom_ranks.tolist()
    index = det_line.range_map_index(t_op, dom, cod)
    triples = zip(members(t_op), members(dom), members(cod))
    assert index.tolist() == [det_line.range_map_index(t, d, c) for t, d, c in triples]
    assert index.tolist() == (dom_ranks - cod_ranks).tolist()
    # one member that is no projection fails the whole stack
    bad = gr.ModeOperator(W, np.concatenate([dom.entries[:4], 2 * dom.entries[4:]]), gr.TAIL_ZERO)
    with pytest.raises(DomainError, match="projections"):
        det_line.range_map_index(t_op, bad, cod)
    with pytest.raises(DomainError, match="do not pair"):
        det_line.range_map_index(t_op, dom, gr.ModeOperator(W, cod.entries[:4], gr.TAIL_ZERO))


def test_ratio_by_a_stack_with_a_zero_member_raises():
    rng = np.random.default_rng(14)
    p = det_line.det_point(det_class_stack(rng, 4))
    zero_in_q = det_line.det_point(det_class_stack(rng, 4, singular=3))
    with pytest.raises(DivisionByZeroPoint):
        det_line.ratio(p, zero_in_q)
    # stacks of other lengths, and scales or zero flags that do not match
    # the stack, are refused rather than broadcast
    with pytest.raises(DomainError, match="do not pair"):
        det_line.ratio(p, det_line.det_point(det_class_stack(rng, 3)))
    with pytest.raises(DomainError, match="stack of 4"):
        det_line.DetPoint(p.rep, np.ones(3), False)
    with pytest.raises(DomainError, match="stack of 4"):
        p.scaled(np.ones(3))


def test_single_operators_keep_python_scalar_results():
    t_op, s_op = det_class(), det_class()
    p, q = det_line.det_point(t_op), det_line.det_point(s_op)
    assert type(p.is_zero) is bool and type(p.scale) is complex
    det = gr.fredholm_det(t_op)
    assert type(det) is complex and det == complex(np.linalg.det(t_op.entries))
    value = det_line.ratio(p, q)
    assert type(value) is complex
    assert value == (1.0 + 0j) / (1.0 + 0j) * (det / gr.fredholm_det(s_op))
    nf = det_line.DetPoint(t_op, 2.0 + 0j, False).normal_form()
    assert type(nf.scale) is complex and nf.scale == 2.0 * det and nf.rep.entries.shape == (7, 7)
    assert type(p.scaled(2).scale) is complex
    pi0 = gr.spectral_projection(W, 0)
    rank = pi0.window_rank()
    assert type(rank) is int and rank == 4
    index = det_line.range_map_index(t_op, pi0, gr.spectral_projection(W, 2))
    assert type(index) is int and index == 2


def test_one_call_draw_equals_the_per_matrix_draws():
    # the suite's stacked rows rest on this: a (k, n, 2, d, d) draw yields the
    # k n instances of n random_det_class calls each, in order, and leaves the
    # generator where those calls leave it
    one, per_matrix = np.random.default_rng(15), np.random.default_rng(15)
    stacks = report._det_class_stacks(one, W, 20, 3, 0.3)
    singles = [[report.random_det_class(per_matrix, W, 0.3) for _ in range(3)] for _ in range(20)]
    for j, stack in enumerate(stacks):
        np.testing.assert_array_equal(stack.entries, [inst[j].entries for inst in singles])
    assert one.standard_normal() == per_matrix.standard_normal()


def test_stacked_index_additivity_matches_the_per_instance_draws():
    # reference: each chain drawn and built one partial isometry at a time
    one, per_instance = np.random.default_rng(16), np.random.default_rng(16)
    stacked = report._additive_instances(one, W, 25)
    looped = []
    for _ in range(25):
        r_small, r_mid, r_big = sorted(int(x) for x in per_instance.integers(1, W.dim, size=3))
        u1, v1, u2, v2 = (report.random_window_unitary(per_instance, W.dim) for _ in range(4))

        def partial(x, y, r):
            return gr.ModeOperator(W, x[:, :r] @ y[:, :r].conj().T, gr.TAIL_ZERO)

        looped.append(
            report.index_is_additive(
                partial(v1, u1, r_small),
                partial(v2, u2, r_small),
                partial(u1, u1, r_big),
                partial(v1, v1, r_mid),
                partial(v2, v2, r_small),
            )
        )
    assert stacked.tolist() == looped == [True] * 25
    assert one.standard_normal() == per_instance.standard_normal()


# ---------------------------------------------------------------------------
# the zero test: the slogdet bound settles most members, the SVD rule the rest


def svd_rule(stack):
    sv = np.linalg.svd(stack, compute_uv=False)
    return sv[..., -1] < det_line.SINGULAR_TOL * np.maximum(1.0, sv[..., 0])


def with_singular_values(sv):
    """U diag(sv) V* for random unitaries U, V."""
    u, v = (random_unitary(len(sv)) for _ in range(2))
    return (u * np.asarray(sv, dtype=float)) @ v.conj().T


def test_zero_test_decides_as_the_svd_rule_member_by_member():
    rng = np.random.default_rng(21)
    tol = det_line.SINGULAR_TOL
    d = W.dim
    members7 = [np.eye(d) + 0.4 * random_unitary(d), np.eye(d) * 1e-5]
    for top in (0.5, 1.0, 3.0, 1e3):
        for side in (1 - 1e-3, 1 + 1e-3):
            smallest = tol * max(1.0, top) * side
            members7.append(with_singular_values(np.geomspace(top, smallest, d)))
    singular = np.eye(d, dtype=complex)
    singular[3] = singular[5]  # two equal rows: exactly singular
    members7 += [singular, with_singular_values([2.0] * (d - 1) + [0.0]), np.zeros((d, d))]
    base = members7[0]
    members7 += [1e150 * base, 1e-150 * base, 1e150 * members7[2], 1e-150 * members7[3]]
    stack7 = np.array(members7, dtype=complex)
    ones = np.array([1, 1e-10 * (1 - 1e-3), 1e-10 * (1 + 1e-3), 0, 2e-10, -3, 1e-300, 1e300, 5e-11j])
    stack1 = ones.astype(complex).reshape(-1, 1, 1)
    g = rng.standard_normal((2, 60, 60))
    dense60 = (g[0] + 1j * g[1]) / np.sqrt(60)

    with np.errstate(all="raise"):
        for stack in (stack7, stack1):
            expected = svd_rule(stack)
            assert det_line._is_singular(stack).tolist() == expected.tolist()
            for member, decision in zip(stack, expected):
                single = det_line._is_singular(member)
                assert type(single) is bool and single == decision
        # the near-threshold members go either way, as built
        assert svd_rule(stack7)[2:10].tolist() == [True, False] * 4
        assert det_line._certified_invertible(stack7[:2]).all()
        assert not det_line._certified_invertible(stack7[2:10]).any()
        # a dense 60 x 60 member: invertible, but the bound cannot show it
        assert not det_line._certified_invertible(dense60[None])[0]
        assert not svd_rule(dense60)
        assert det_line._is_singular(dense60) is False

        points = det_line.det_point(gr.ModeOperator(W, stack7, gr.TAIL_IDENTITY))
        assert points.is_zero.tolist() == svd_rule(stack7).tolist()
        single = det_line.det_point(gr.ModeOperator(W, stack7[5], gr.TAIL_IDENTITY))
        assert type(single.is_zero) is bool and single.is_zero == svd_rule(stack7[5])


@pytest.mark.parametrize(
    "scale",
    [float("nan"), float("inf"), complex(0, float("-inf")), "2", None, True, [1, "2"]],
    ids=["nan", "inf", "complex-inf", "str", "none", "bool", "list-with-str"],
)
def test_det_point_refuses_a_scale_that_is_no_finite_number(scale):
    # a NaN scale once made ratio, scaled and normal_form return (nan+nanj)
    with pytest.raises(DomainError, match="scale"):
        det_line.DetPoint(det_class(), scale, False)
    with pytest.raises(DomainError, match="scale"):
        det_line.DetPoint(det_class_stack(np.random.default_rng(22), 2), scale, False)


@pytest.mark.parametrize("flag", ["False", 0, 1.0, None], ids=["str", "int", "float", "none"])
def test_det_point_refuses_a_zero_flag_that_is_no_bool(flag):
    with pytest.raises(DomainError, match="is_zero"):
        det_line.DetPoint(det_class(), 1.0, flag)
    with pytest.raises(DomainError, match="is_zero"):
        det_line.DetPoint(det_class_stack(np.random.default_rng(23), 2), 1.0, flag)


def test_scaled_refuses_a_factor_that_is_no_finite_number():
    p = det_line.det_point(det_class())
    stack = det_line.det_point(det_class_stack(np.random.default_rng(24), 3))
    for mu in (float("nan"), float("inf"), "2"):
        with pytest.raises(DomainError, match="scale"):
            p.scaled(mu)
        with pytest.raises(DomainError, match="scale"):
            stack.scaled(mu)
    with pytest.raises(DomainError, match="scale"):
        stack.scaled(np.array([1.0, np.nan, 2.0]))
    with pytest.raises(DomainError, match="scale"):
        p.scaled(1e200).scaled(1e200).scaled(1e200)  # overflows to an infinite scale
    with pytest.raises(DomainError, match="one scale"):
        p.scaled(np.ones(2))


def test_ratio_by_a_point_of_scale_zero_raises():
    # a zero scale on a point not flagged zero once raised a bare ZeroDivisionError
    t_op = det_class()
    p = det_line.det_point(t_op)
    with pytest.raises(DivisionByZeroPoint):
        det_line.ratio(p, det_line.DetPoint(t_op, 0.0, False))
    with pytest.raises(DivisionByZeroPoint):
        det_line.ratio(p, p.scaled(0))
    stack = det_class_stack(np.random.default_rng(25), 3)
    with pytest.raises(DivisionByZeroPoint):
        det_line.ratio(det_line.det_point(stack), det_line.DetPoint(stack, [1.0, 0.0, 2.0], False))
    # a zero scale in the numerator is the zero value, as before
    assert det_line.ratio(det_line.DetPoint(t_op, 0.0, False), p) == 0
