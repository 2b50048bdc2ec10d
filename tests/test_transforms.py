import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stieltjeskit as sk
from stieltjeskit.transforms import ep_im_identity_defect

from genutil import (
    RANDOM_KINDS,
    off_ray_points,
    psd,
    random_pair,
    random_s0,
    random_sinf,
    random_tinf,
    random_tpair,
)

I2 = np.eye(2)
SMALL_GRID = sk.GridConfig(n_upper=16, n_lower=16, n_gap=8)


# --- pinv ---


def test_pinv_identity_and_zero():
    r = sk.pinv(np.eye(3))
    assert r.rank == 3
    np.testing.assert_allclose(r.pinv, np.eye(3), rtol=1e-14)
    r0 = sk.pinv(np.zeros((2, 2)))
    assert r0.rank == 0
    assert np.array_equal(r0.pinv, np.zeros((2, 2)))


def test_pinv_diagonal_rank_deficient():
    r = sk.pinv(np.diag([2.0, 0.0]))
    assert r.rank == 1
    np.testing.assert_allclose(r.pinv, np.diag([0.5, 0.0]), atol=1e-15)


def test_pinv_subnormal_singular_value_is_cut_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # 1 / 1e-310 overflows; the cut value must not be inverted
        r = sk.pinv(np.diag([1.0, 1e-310]))
    assert r.rank == 1
    np.testing.assert_array_equal(r.pinv, np.diag([1.0, 0.0]))


@given(seed=st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_penrose_identities(seed):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(1, 6))
    rank = int(rng.integers(0, q + 1))
    A = rng.normal(size=(q, rank)) + 1j * rng.normal(size=(q, rank))
    B = rng.normal(size=(rank, q)) + 1j * rng.normal(size=(rank, q))
    M = A @ B if rank else np.zeros((q, q), dtype=complex)
    P = sk.pinv(M).pinv
    scale = 1e-11 * (1 + np.linalg.norm(M, 2))
    np.testing.assert_allclose(M @ P @ M, M, atol=scale)
    np.testing.assert_allclose(P @ M @ P, P, atol=1e-11 * (1 + np.linalg.norm(P, 2)))
    np.testing.assert_allclose((M @ P).conj().T, M @ P, atol=1e-11)
    np.testing.assert_allclose((P @ M).conj().T, P @ M, atol=1e-11)


def test_values_of_class_functions_are_ep():
    rng = np.random.default_rng(0)
    for make in RANDOM_KINDS.values():
        r = make(rng, q=3)
        endpoint = getattr(r, "alpha", None)
        if endpoint is None:
            endpoint = r.beta
        for z in off_ray_points(rng, endpoint, "either", 4):
            V = sk.evaluate(r, z)
            assert sk.is_ep(V)
            assert ep_im_identity_defect(V) <= 1e-10 * (1 + np.linalg.norm(V, 2)) ** 3


# --- pinv_map ---


def test_is_ep_examples():
    assert sk.is_ep(np.zeros((2, 2)))  # rank 0: both range projectors vanish
    assert sk.is_ep(np.diag([2.0, 0.0]))
    assert not sk.is_ep(np.array([[0.0, 1.0], [0.0, 0.0]]))  # range e1, range of M* e2


def test_pinv_map_scalar_resolvent_gives_constant_one():
    mu = sk.MatrixMeasure(1, sk.right_ray(0.0), [(0.0, np.eye(1))])
    p = sk.StieltjesPair(0.0, np.zeros((1, 1)), mu)  # F(z) = 1/(-z)
    G = sk.pinv_map(p)
    for z in (1j, -2.0, 3.0 + 1j):
        np.testing.assert_allclose(G(z), np.eye(1), rtol=1e-13)


def test_pinv_map_zero_function():
    p = sk.StieltjesPair(0.0, np.zeros((2, 2)), sk.MatrixMeasure(2, sk.right_ray(0.0), []))
    G = sk.pinv_map(p)
    assert np.array_equal(G(1j), np.zeros((2, 2)))


def test_pinv_map_invertible_constant():
    rng = np.random.default_rng(1)
    gamma = psd(rng, 2) + 0.5 * I2
    p = sk.StieltjesPair(0.0, gamma, sk.MatrixMeasure(2, sk.right_ray(0.0), []))
    G = sk.pinv_map(p)
    z = 2j
    np.testing.assert_allclose(G(z), -np.linalg.inv(gamma) / z, rtol=1e-11)
    cert = sk.certify_class(G, 0.0, "s", SMALL_GRID)
    assert cert.verdict


def test_pinv_map_output_certifies_s():
    rng = np.random.default_rng(2)
    for _ in range(5):
        p = random_pair(rng)
        G = sk.pinv_map(p)
        cert = sk.certify_class(G, p.alpha, "s", SMALL_GRID, tol_cert=1e-9)
        assert cert.verdict, [(c["name"], c["margin"]) for c in cert.conditions]


def test_pinv_map_t_side():
    rng = np.random.default_rng(3)
    g = random_tpair(rng)
    F = sk.pinv_map(g)
    cert = sk.certify_class(F, g.beta, "t", SMALL_GRID)
    assert cert.verdict


def test_pinv_map_gamma_of_output_is_pinv_of_mass():
    rng = np.random.default_rng(4)
    s = random_s0(rng, q=2)
    G = sk.pinv_map(s)
    est = sk.limit_at_infinity(G, "plain_iy")
    expected = sk.pinv(sk.total_mass(s.sigma)).pinv
    np.testing.assert_allclose(est.value, expected, atol=1e-6 * (1 + np.linalg.norm(expected)))
    # the transform leaves the bounded subclass: nonzero outputs fail s0
    assert not sk.certify_class(G, s.alpha, "s0", SMALL_GRID).verdict


def test_rank_guard_refuses_rank_jumps():
    F = sk.Evaluator(2, sk.right_ray(0.0), lambda z: np.diag([1.0, 1.0 if z.imag > 0 else 0.0]) + 0j)
    with pytest.raises(sk.RankInstability):
        sk.pinv_map(F, endpoint=0.0)
    with pytest.raises(sk.RankInstability):
        sk.neg_pinv_map(F, endpoint=0.0)


# --- neg_pinv_map ---


def test_neg_pinv_scalar_constant():
    # F = -1 is a product-form member (D=1, E=0); G = -F^+ = 1 is a plain member
    F = sk.Evaluator(1, sk.right_ray(0.0), lambda z: -np.eye(1, dtype=complex))
    G = sk.neg_pinv_map(F, endpoint=0.0)
    np.testing.assert_array_equal(G(1j), np.eye(1))
    assert sk.certify_class(G, 0.0, "s", SMALL_GRID).verdict


def test_neg_pinv_exchanges_product_and_plain_classes():
    rng = np.random.default_rng(5)
    si = random_sinf(rng, q=2)
    G = sk.neg_pinv_map(si)
    assert sk.certify_class(G, si.alpha, "s", SMALL_GRID).verdict
    p = random_pair(rng, q=2)
    H = sk.neg_pinv_map(p)
    assert sk.certify_class(H, p.alpha, "sinf", SMALL_GRID).verdict


def test_neg_pinv_linear_product_form():
    rng = np.random.default_rng(6)
    D = psd(rng, 2) + 0.5 * I2
    E = psd(rng, 2) + 0.5 * I2
    si = sk.SInfTriple(0.0, D, E, sk.MatrixMeasure(2, sk.open_right_ray(0.0), []))
    G = sk.neg_pinv_map(si)
    im_g = (G(1j) - G(1j).conj().T) / 2j
    assert np.linalg.eigvalsh(im_g)[0] >= -1e-12
    x = -2.0
    assert np.linalg.eigvalsh((G(x) + G(x).conj().T) / 2)[0] >= -1e-12


def test_neg_pinv_involutive_on_values():
    rng = np.random.default_rng(7)
    si = random_sinf(rng, q=2)
    G = sk.neg_pinv_map(si)
    back = sk.neg_pinv_map(G, endpoint=si.alpha)
    for z in off_ray_points(rng, si.alpha, "either", 5):
        V = sk.evaluate(si, z)
        np.testing.assert_allclose(back(z), V, atol=1e-9 * (1 + np.linalg.norm(V, 2)) ** 2)


# --- dual_map ---


def test_dual_of_one_atom_pair_is_left_ray_example():
    rng = np.random.default_rng(8)
    A, B = psd(rng, 2), psd(rng, 2)
    alpha, beta = 0.5, -0.5
    p = sk.StieltjesPair(alpha, A, sk.MatrixMeasure(2, sk.right_ray(alpha), [(alpha, B)]))
    g = sk.dual_map(p, beta)
    assert g.KIND == "t_pair" and g.beta == beta
    np.testing.assert_array_equal(g.gamma, A)
    assert g.mu.nodes.tolist() == [beta]
    for z in off_ray_points(rng, 0.0, "either", 10):
        lhs = sk.evaluate(g, z)
        rhs = -sk.evaluate(p, alpha + beta - np.conj(z)).conj().T
        np.testing.assert_allclose(lhs, rhs, atol=1e-13 * (1 + np.linalg.norm(rhs)))


def test_dual_zero_function():
    p = sk.StieltjesPair(0.0, np.zeros((2, 2)), sk.MatrixMeasure(2, sk.right_ray(0.0), []))
    g = sk.dual_map(p, 1.0)
    assert not g.mu.nodes.size and np.array_equal(g.gamma, np.zeros((2, 2)))


def test_dual_involution_exact_on_atoms():
    rng = np.random.default_rng(9)
    for make in (random_pair, random_s0, random_sinf):
        r = make(rng)
        beta = float(rng.uniform(-2, 2))
        back = sk.dual_map(sk.dual_map(r, beta), r.alpha)
        assert back.KIND == r.KIND
        m1 = getattr(r, "mu", None) or getattr(r, "sigma", None) or r.rho
        m2 = getattr(back, "mu", None) or getattr(back, "sigma", None) or back.rho
        np.testing.assert_array_equal(m1.nodes, m2.nodes)
        for (_, W1), (_, W2) in zip(m1.atoms, m2.atoms):
            assert np.array_equal(W1, W2)


def test_dual_pointwise_identity_all_kinds():
    rng = np.random.default_rng(10)
    for make in (random_pair, random_s0, random_sinf):
        r = make(rng)
        beta = float(rng.uniform(-2, 2))
        g = sk.dual_map(r, beta)
        for z in off_ray_points(rng, 0.0, "either", 10):
            lhs = sk.evaluate(g, z)
            rhs = -sk.evaluate(r, r.alpha + beta - np.conj(z)).conj().T
            np.testing.assert_allclose(lhs, rhs, atol=1e-13 * (1 + np.linalg.norm(rhs)))


def test_dual_parameter_maps():
    rng = np.random.default_rng(11)
    s = random_s0(rng)
    beta = 1.0
    g = sk.dual_map(s, beta)
    assert g.KIND == "t0"
    np.testing.assert_allclose(sorted(s.alpha + beta - g.sigma.nodes), sorted(s.sigma.nodes))
    si = random_sinf(rng)
    gi = sk.dual_map(si, beta)
    assert gi.KIND == "tinf_triple"
    np.testing.assert_array_equal(gi.D, si.D)
    np.testing.assert_array_equal(gi.E, si.E)


def test_dual_unsupported_kind():
    rng = np.random.default_rng(12)
    kk = sk.convert(random_pair(rng), "kk_pair")
    with pytest.raises(sk.UnsupportedKind):
        sk.dual_map(kk, 0.0)


# --- congruence arithmetic ---


def test_congruence_identity_term():
    rng = np.random.default_rng(13)
    p = random_pair(rng, q=2)
    out = sk.congruence_sum([(np.eye(2), p)])
    np.testing.assert_allclose(out.gamma, p.gamma, atol=1e-15)
    np.testing.assert_array_equal(out.mu.nodes, p.mu.nodes)


def test_congruence_convex_split_preserves_function():
    rng = np.random.default_rng(14)
    p = random_pair(rng, q=2)
    half = np.eye(2) / np.sqrt(2.0)
    out = sk.congruence_sum([(half, p), (half, p)])
    for z in off_ray_points(rng, p.alpha, "either", 5):
        V = sk.evaluate(p, z)
        np.testing.assert_allclose(sk.evaluate(out, z), V, atol=1e-13 * (1 + np.linalg.norm(V)))


def test_congruence_scalar_addition():
    one = sk.StieltjesPair(0.0, np.zeros((1, 1)), sk.MatrixMeasure(1, sk.right_ray(0.0), [(0.0, np.eye(1))]))
    const = sk.StieltjesPair(0.0, np.eye(1), sk.MatrixMeasure(1, sk.right_ray(0.0), []))
    out = sk.congruence_sum([(np.eye(1), one), (np.eye(1), const)])
    np.testing.assert_array_equal(out.gamma, np.eye(1))
    assert out.mu.nodes.tolist() == [0.0]
    z = 2j
    np.testing.assert_allclose(sk.evaluate(out, z), np.array([[1.0 + 1.0 / (0.0 - z)]]), rtol=1e-14)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_congruence_commutes_with_eval(seed):
    rng = np.random.default_rng(seed)
    alpha = float(rng.uniform(-1, 1))
    terms = []
    q_out = 2
    for _ in range(int(rng.integers(1, 4))):
        qk = int(rng.integers(1, 4))
        A = rng.normal(size=(qk, q_out)) + 1j * rng.normal(size=(qk, q_out))
        terms.append((A, random_pair(rng, q=qk, alpha=alpha)))
    out = sk.congruence_sum(terms)
    (z,) = off_ray_points(rng, alpha, "either", 1)
    direct = sum(A.conj().T @ sk.evaluate(p, z) @ A for A, p in terms)
    np.testing.assert_allclose(sk.evaluate(out, z), direct, atol=1e-13 * (1 + np.linalg.norm(direct)))


def test_congruence_alpha_mismatch():
    rng = np.random.default_rng(15)
    with pytest.raises(sk.DimensionMismatch):
        sk.congruence_sum([(I2, random_pair(rng, q=2, alpha=0.0)), (I2, random_pair(rng, q=2, alpha=1.0))])


def test_congruence_empty_terms():
    with pytest.raises(ValueError, match="need at least one term"):
        sk.congruence_sum([])


@pytest.mark.parametrize("A", [np.ones((3, 2)), np.ones(2), np.ones((1, 2, 2))])
def test_congruence_wrong_shaped_A(A):
    p = random_pair(np.random.default_rng(18), q=2)
    with pytest.raises(sk.DimensionMismatch, match=re.escape(f"A has shape {A.shape}, pair has q = 2")):
        sk.congruence_sum([(I2, p), (A, p)])


def test_congruence_different_output_sizes():
    p = random_pair(np.random.default_rng(19), q=2)
    with pytest.raises(sk.DimensionMismatch, match="terms map to different output dimensions"):
        sk.congruence_sum([(I2, p), (np.ones((2, 3)), p)])


def test_congruence_errors_come_in_order():
    rng = np.random.default_rng(20)
    p, other = random_pair(rng, q=2, alpha=0.0), random_pair(rng, q=2, alpha=1.0)
    bad_A, wide = np.ones((3, 2)), np.ones((2, 3))
    # The alphas are checked before any A; then the terms in order, each A's shape before its output size.
    with pytest.raises(sk.DimensionMismatch, match="do not share alpha"):
        sk.congruence_sum([(bad_A, p), (I2, other)])
    with pytest.raises(sk.DimensionMismatch, match="A has shape"):
        sk.congruence_sum([(I2, p), (np.ones((3, 3)), p)])
    with pytest.raises(sk.DimensionMismatch, match="different output dimensions"):
        sk.congruence_sum([(I2, p), (wide, p), (bad_A, p)])
    with pytest.raises(sk.DimensionMismatch, match="A has shape"):
        sk.congruence_sum([(I2, p), (bad_A, p), (wide, p)])


def test_shift_by_psd_and_rejection():
    rng = np.random.default_rng(16)
    p = random_pair(rng, q=2)
    shifted = sk.shift(p, I2)
    np.testing.assert_allclose(shifted.gamma, p.gamma + I2, atol=1e-15)
    with pytest.raises(sk.ShiftNotPsd):
        sk.shift(p, -(np.linalg.norm(p.gamma, 2) + 1.0) * I2)


def test_direct_sum_blocks():
    rng = np.random.default_rng(17)
    p1 = random_pair(rng, q=1, alpha=0.0)
    p2 = random_pair(rng, q=2, alpha=0.0)
    out = sk.direct_sum([p1, p2])
    assert out.q == 3
    z = 1.5j
    V = sk.evaluate(out, z)
    np.testing.assert_allclose(V[:1, :1], sk.evaluate(p1, z), atol=1e-14)
    np.testing.assert_allclose(V[1:, 1:], sk.evaluate(p2, z), atol=1e-14)
    np.testing.assert_allclose(V[:1, 1:], 0.0, atol=1e-15)


# --- transpose_map ---


def test_transpose_pointwise_identity():
    gamma = np.array([[0.0, 1j], [-1j, 0.0]]) + 2 * I2
    mu = sk.MatrixMeasure(2, sk.right_ray(0.0), [(1.0, np.array([[1.0, 0.5j], [-0.5j, 1.0]]))])
    p = sk.StieltjesPair(0.0, gamma, mu)
    pt = sk.transpose_map(p)
    for z in (2j, -1.0, 1.0 + 1j):
        np.testing.assert_array_equal(sk.evaluate(pt, z), sk.evaluate(p, z).T)


def test_transpose_fixed_point_for_real_symmetric():
    rng = np.random.default_rng(18)
    W = np.real(psd(rng, 2))
    W = 0.5 * (W + W.T)
    p = sk.StieltjesPair(0.0, np.real(psd(rng, 2)) + I2, sk.MatrixMeasure(2, sk.right_ray(0.0), [(1.0, W)]))
    pt = sk.transpose_map(p)
    np.testing.assert_allclose(pt.gamma, pt.gamma.T)
    z = 1j
    np.testing.assert_allclose(sk.evaluate(pt, z), sk.evaluate(p, z).T)


def test_transpose_all_kinds():
    rng = np.random.default_rng(19)
    for make in RANDOM_KINDS.values():
        r = make(rng, q=2)
        rt = sk.transpose_map(r)
        endpoint = getattr(r, "alpha", None)
        if endpoint is None:
            endpoint = r.beta
        for z in off_ray_points(rng, endpoint, "either", 3):
            np.testing.assert_array_equal(sk.evaluate(rt, z), sk.evaluate(r, z).T)
