import copy
import dataclasses
import json
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stieltjeskit as sk
from stieltjeskit.representations import KINDS, endpoint_side, measure_of

from genutil import (
    RANDOM_KINDS,
    off_ray_points,
    psd,
    random_kind,
    random_pair,
    random_s0,
    random_sinf,
    random_t0,
    random_tinf,
    random_tpair,
    with_far_atom,
)

I2 = np.eye(2)


def delta(q, alpha, t, W, ray=None):
    support = ray if ray is not None else sk.right_ray(alpha)
    return sk.MatrixMeasure(q, support, [(t, W)])


def e1256(alpha, A, B):
    """A + B/(alpha - z): the one-atom pair with gamma = A, mass B at alpha."""
    return sk.StieltjesPair(alpha, A, delta(A.shape[0], alpha, alpha, B))


# --- evaluation ---


def test_one_atom_pair_matches_closed_form():
    rng = np.random.default_rng(0)
    A, B = psd(rng, 2), psd(rng, 2)
    p = e1256(0.0, A, B)
    for z in (1j, -2.0 + 0.5j, -1.0):
        np.testing.assert_allclose(sk.evaluate(p, z), A - B / z, rtol=1e-14)


def test_zero_representation_is_zero_everywhere():
    zero_mu = sk.MatrixMeasure(2, sk.right_ray(0.0), [])
    p = sk.StieltjesPair(0.0, np.zeros((2, 2)), zero_mu)
    s = sk.S0Measure(0.0, zero_mu)
    for z in (1j, -3.0, 2.0 - 1j):
        assert np.array_equal(sk.evaluate(p, z), np.zeros((2, 2)))
        assert np.array_equal(sk.evaluate(s, z), np.zeros((2, 2)))


def test_unit_atom_at_one():
    p = sk.StieltjesPair(0.0, np.zeros((2, 2)), delta(2, 0.0, 1.0, I2))
    np.testing.assert_allclose(sk.evaluate(p, 1j), (1 + 1j) * I2, rtol=1e-15)


def test_pole_proximity_refused():
    p = sk.StieltjesPair(0.0, np.zeros((2, 2)), delta(2, 0.0, 1.0, I2))
    with pytest.raises(sk.PoleProximity):
        sk.evaluate(p, 5.0 + 1e-12j)
    # left of alpha is fine
    sk.evaluate(p, -1.0)


# A pair with three finite atoms of 8e307: its values overflow near the ray, not at 100i.
OVERFLOWING = sk.StieltjesPair(
    0.0, np.eye(1), sk.MatrixMeasure(1, sk.right_ray(0.0), [(t, 8e307 * np.eye(1)) for t in (1.0, 1.5, 2.0)])
)
# Each bad value an opaque evaluator gives within 10 of the origin.
BAD_VALUES = {
    "raises": lambda: 1 / 0,
    "warns": lambda: np.full((2, 2), 1e308) * 10.0,
    "returns nan": lambda: np.full((2, 2), np.nan),
}
PUBLIC_READS = {
    "F(z)": lambda F, z: F(z),
    "F.batch": lambda F, z: F.batch([100j, z, z + 1j]),
}
PAIR_READS = {
    **PUBLIC_READS,
    "sk.evaluate": lambda F, z: sk.evaluate(OVERFLOWING, z),
    "sk.eval_mulz": lambda F, z: sk.eval_mulz(OVERFLOWING, z),
}


def opaque(bad):
    return sk.Evaluator(2, sk.right_ray(0.0), lambda z: bad() if abs(z) < 10.0 else I2)


@pytest.mark.parametrize("read", list(PUBLIC_READS))
@pytest.mark.parametrize("bad", list(BAD_VALUES))
def test_a_public_read_of_an_opaque_evaluator_is_gated(read, bad):
    """F(z) and F.batch raised the evaluator's own error, or passed its warning and NaN on."""
    with pytest.raises(sk.EvaluationFailed) as exc:
        PUBLIC_READS[read](opaque(BAD_VALUES[bad]), 5j)
    assert exc.value.witness == 5j  # the first bad point of the batch
    with pytest.raises(sk.PoleProximity):  # the guard comes first
        PUBLIC_READS[read](opaque(BAD_VALUES[bad]), 1.0)


@pytest.mark.parametrize("read", list(PAIR_READS))
def test_a_public_read_of_an_overflowing_pair_is_gated(read):
    """They returned [[nan+infj]] after two RuntimeWarnings."""
    F = sk.evaluator(OVERFLOWING)
    with pytest.raises(sk.EvaluationFailed) as exc:
        PAIR_READS[read](F, 1j)
    assert exc.value.witness == 1j
    with pytest.raises(sk.PoleProximity):
        PAIR_READS[read](F, 1.0)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_conjugate_symmetry_all_kinds(seed):
    rng = np.random.default_rng(seed)
    for make in RANDOM_KINDS.values():
        r = make(rng)
        endpoint = getattr(r, "alpha", None)
        if endpoint is None:
            endpoint = r.beta
        z = complex(rng.uniform(-3, 3) + endpoint, rng.uniform(0.3, 3.0))
        F = sk.evaluate(r, z)
        Fc = sk.evaluate(r, np.conj(z))
        np.testing.assert_allclose(Fc, F.conj().T, rtol=0, atol=1e-13 * (1 + np.linalg.norm(F)))


@given(seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_herglotz_imaginary_part_psd_upper(seed):
    rng = np.random.default_rng(seed)
    for make in RANDOM_KINDS.values():
        r = make(rng)
        endpoint = getattr(r, "alpha", getattr(r, "beta", None))
        z = complex(endpoint + rng.uniform(-3, 3), rng.uniform(0.2, 3.0))
        F = sk.evaluate(r, z)
        im = (F - F.conj().T) / 2j
        lam = np.linalg.eigvalsh(im)[0]
        assert lam >= -1e-10 * (1 + np.linalg.norm(F, 2))


def test_gap_sign_conditions():
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = random_pair(rng)
        x = p.alpha - rng.uniform(0.2, 4.0)
        assert np.linalg.eigvalsh(sk.evaluate(p, x))[0] >= -1e-12
        s = random_sinf(rng)
        x = s.alpha - rng.uniform(0.2, 4.0)
        assert np.linalg.eigvalsh(-sk.evaluate(s, x))[0] >= -1e-12
        t = random_tpair(rng)
        x = t.beta + rng.uniform(0.2, 4.0)
        assert np.linalg.eigvalsh(-sk.evaluate(t, x))[0] >= -1e-12
        ti = random_tinf(rng)
        x = ti.beta + rng.uniform(0.2, 4.0)
        assert np.linalg.eigvalsh(sk.evaluate(ti, x))[0] >= -1e-12


# --- product transform and closed forms ---


def test_eval_mulz_is_scalar_multiple():
    rng = np.random.default_rng(1)
    p = random_pair(rng, alpha=0.5)
    z = 0.5 - 1.0  # alpha - 1
    np.testing.assert_allclose(sk.eval_mulz(p, z), (-1.0) * sk.evaluate(p, z), rtol=1e-15)


def test_one_atom_pair_product_transform_constant():
    B = psd(np.random.default_rng(2), 2)
    p = e1256(1.0, np.zeros((2, 2)), B)
    for z in (1j, -4.0, 2.0 + 3j):
        np.testing.assert_allclose(sk.eval_mulz(p, z), -B, atol=1e-13)


def test_im_mulz_closed_form_unit_example():
    W = psd(np.random.default_rng(3), 2)
    p = sk.StieltjesPair(0.0, np.zeros((2, 2)), delta(2, 0.0, 1.0, W))
    # at z=i: direct Im[(i)(2/(1-i))] W = W; closed form 1*(2*1/2) W = W
    direct = sk.eval_mulz(p, 1j)
    np.testing.assert_allclose((direct - direct.conj().T) / 2j, W, rtol=1e-14)
    np.testing.assert_allclose(sk.im_mulz_closed(p, 1j), W, rtol=1e-14)


def test_closed_forms_refuse_an_atom():
    p = sk.StieltjesPair(0.0, np.eye(1), delta(1, 0.0, 1.0, np.eye(1)))
    for closed_form in (sk.im_re_parts, sk.im_mulz_closed):
        with pytest.raises(sk.PoleProximity, match="excluded set"):
            closed_form(p, 1.0)


def test_closed_forms_of_an_atom_past_1e154_are_finite():
    """They formed |t - z|^2, which overflows past 1.3e154: both raised EvaluationFailed on a finite value."""
    p = sk.StieltjesPair(0.0, np.eye(1), delta(1, 0.0, 1e200, 1e-3 * np.eye(1)))
    F, Fm = sk.evaluate(p, 1j), sk.eval_mulz(p, 1j)
    np.testing.assert_allclose(F.real, [[1.001]], rtol=1e-12)
    re, im = sk.im_re_parts(p, 1j)
    np.testing.assert_allclose(re, F.real, rtol=1e-12)
    np.testing.assert_allclose(im, F.imag, rtol=1e-12)
    np.testing.assert_allclose(sk.im_mulz_closed(p, 1j), Fm.imag, rtol=1e-12)


def test_im_re_parts_real_point_has_zero_imaginary():
    rng = np.random.default_rng(4)
    p = random_pair(rng, alpha=0.0)
    re, im = sk.im_re_parts(p, -2.0)
    assert np.array_equal(im, np.zeros((p.q, p.q)))
    np.testing.assert_allclose(re, sk.evaluate(p, -2.0), rtol=1e-13)


def test_im_re_parts_constant_function():
    p = sk.StieltjesPair(0.0, I2, sk.MatrixMeasure(2, sk.right_ray(0.0), []))
    re, im = sk.im_re_parts(p, 2j)
    np.testing.assert_array_equal(re, I2)
    np.testing.assert_array_equal(im, np.zeros((2, 2)))


def test_im_re_parts_unit_atom():
    W = psd(np.random.default_rng(6), 2)
    p = sk.StieltjesPair(0.0, np.zeros((2, 2)), delta(2, 0.0, 1.0, W))
    re, im = sk.im_re_parts(p, 1j)
    np.testing.assert_allclose(im, W, rtol=1e-14)
    np.testing.assert_allclose(re, W, rtol=1e-14)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_closed_forms_match_direct_eval(seed):
    rng = np.random.default_rng(seed)
    p = random_pair(rng)
    (z,) = off_ray_points(rng, p.alpha, "right", 1)
    F = sk.evaluate(p, z)
    re, im = sk.im_re_parts(p, z)
    scale = 1e-12 * (1 + np.linalg.norm(F))
    np.testing.assert_allclose(re, (F + F.conj().T) / 2, atol=scale)
    np.testing.assert_allclose(im, (F - F.conj().T) / 2j, atol=scale)
    Fm = sk.eval_mulz(p, z)
    np.testing.assert_allclose(
        sk.im_mulz_closed(p, z), (Fm - Fm.conj().T) / 2j, atol=1e-12 * (1 + np.linalg.norm(Fm))
    )


# --- conversions ---


def _agree_on_grid(r1, r2, endpoint, rng, n=20, tol=1e-12):
    for z in off_ray_points(rng, endpoint, "either", n):
        F1, F2 = sk.evaluate(r1, z), sk.evaluate(r2, z)
        np.testing.assert_allclose(F1, F2, atol=tol * (1 + np.linalg.norm(F1)))


def test_pair_to_s0_one_atom_at_endpoint():
    B = psd(np.random.default_rng(7), 2)
    p = e1256(0.0, np.zeros((2, 2)), B)
    s = sk.convert(p, "s0")
    assert s.sigma.nodes.tolist() == [0.0]
    np.testing.assert_array_equal(s.sigma.atoms[0][1], B)
    np.testing.assert_allclose(sk.evaluate(s, 2j), sk.evaluate(p, 2j), rtol=1e-14)


def test_pair_to_kk_and_nevanlinna_unit_atom():
    rng = np.random.default_rng(8)
    gamma, W = psd(rng, 2), psd(rng, 2)
    p = sk.StieltjesPair(0.0, gamma, delta(2, 0.0, 1.0, W))
    kk = sk.convert(p, "kk_pair")
    np.testing.assert_array_equal(kk.C, gamma)
    np.testing.assert_allclose(kk.eta.atoms[0][1], W, rtol=1e-15)  # density (1+1)/(1+1) = 1
    nev = sk.convert(kk, "nevanlinna")
    np.testing.assert_allclose(nev.A, gamma + W, rtol=1e-14)
    assert np.array_equal(nev.B, np.zeros((2, 2)))
    _agree_on_grid(p, kk, 0.0, rng)
    _agree_on_grid(p, nev, 0.0, rng)


def test_sinf_to_pair_zero_measure():
    rng = np.random.default_rng(9)
    D, E = psd(rng, 2), psd(rng, 2)
    s = sk.SInfTriple(1.0, D, E, sk.MatrixMeasure(2, sk.open_right_ray(1.0), []))
    p = sk.convert(s, "stieltjes_pair")
    np.testing.assert_array_equal(p.gamma, E)
    assert p.mu.nodes.tolist() == [1.0]
    np.testing.assert_array_equal(p.mu.atoms[0][1], D)
    # the pair represents P(z) = (z - alpha)^{-1} F(z)
    for z in (1j, -2.0, 3.0 + 2j):
        np.testing.assert_allclose(sk.evaluate(s, z), (z - 1.0) * sk.evaluate(p, z), rtol=1e-13)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_round_trips_exact(seed):
    rng = np.random.default_rng(seed)

    def assert_same_pair(p1, p2):
        assert p1.alpha == p2.alpha
        np.testing.assert_allclose(p2.gamma, p1.gamma, atol=1e-13 * (1 + np.linalg.norm(p1.gamma)))
        np.testing.assert_array_equal(p1.mu.nodes, p2.mu.nodes)
        for (_, W1), (_, W2) in zip(p1.mu.atoms, p2.mu.atoms):
            np.testing.assert_allclose(W2, W1, rtol=1e-13)

    p = random_pair(rng)
    assert_same_pair(p, sk.convert(sk.convert(p, "kk_pair"), "stieltjes_pair"))

    s0 = random_s0(rng)
    p0 = sk.convert(s0, "stieltjes_pair")
    back = sk.convert(p0, "s0")
    np.testing.assert_array_equal(back.sigma.nodes, s0.sigma.nodes)
    for (_, W1), (_, W2) in zip(s0.sigma.atoms, back.sigma.atoms):
        np.testing.assert_allclose(W2, W1, rtol=1e-13)

    si = random_sinf(rng)
    si2 = sk.convert(sk.convert(si, "stieltjes_pair"), "sinf_triple")
    np.testing.assert_allclose(si2.D, si.D, rtol=0, atol=1e-14 * (1 + np.linalg.norm(si.D)))
    np.testing.assert_array_equal(si2.E, si.E)
    np.testing.assert_array_equal(si2.rho.nodes, si.rho.nodes)

    t = random_tpair(rng, gamma_rank=0)
    t0 = sk.convert(t, "t0")
    back_t = sk.convert(t0, "t_pair")
    np.testing.assert_array_equal(back_t.mu.nodes, t.mu.nodes)
    for (_, W1), (_, W2) in zip(t.mu.atoms, back_t.mu.atoms):
        np.testing.assert_allclose(W2, W1, rtol=1e-13)

    ti = random_tinf(rng)
    ti2 = sk.convert(sk.convert(ti, "t_pair"), "tinf_triple")
    np.testing.assert_allclose(ti2.D, ti.D, rtol=0, atol=1e-14 * (1 + np.linalg.norm(ti.D)))
    np.testing.assert_array_equal(ti2.rho.nodes, ti.rho.nodes)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_conversion_eval_agreement(seed):
    rng = np.random.default_rng(seed)
    p = random_pair(rng, gamma_rank=0)
    kk = sk.convert(p, "kk_pair")
    nev = sk.convert(kk, "nevanlinna")
    s0 = sk.convert(p, "s0")
    _agree_on_grid(p, kk, p.alpha, rng, n=5)
    _agree_on_grid(p, nev, p.alpha, rng, n=5)
    _agree_on_grid(p, s0, p.alpha, rng, n=5)


def test_conversion_errors():
    rng = np.random.default_rng(10)
    p = random_pair(rng, gamma_rank=None)  # full-rank gamma
    with pytest.raises(sk.IllegalConversion):
        sk.convert(p, "s0")
    with pytest.raises(sk.UnsupportedPath):
        sk.convert(p, "t_pair")
    s0 = random_s0(rng)
    with pytest.raises(sk.UnsupportedPath):
        sk.convert(s0, "kk_pair")


def test_nevanlinna_to_kk_endpoint_defaults_to_the_lowest_node():
    nu = sk.MatrixMeasure(2, sk.whole_line(), [(1.0, I2), (3.0, 2.0 * I2)])
    nev = sk.NevanlinnaTriple(8.0 * I2, np.zeros((2, 2)), nu)
    kk = sk.convert(nev, "kk_pair")
    assert kk.alpha == 1.0 and kk.eta.support == sk.right_ray(1.0)
    np.testing.assert_array_equal(kk.C, I2)  # A less the first moment 1 + 3 * 2 = 7
    with pytest.raises(sk.IllegalConversion, match="below alpha"):
        sk.convert(nev, "kk_pair", alpha=2.0)


def test_convert_to_the_own_kind_returns_the_input():
    p = random_pair(np.random.default_rng(10))
    assert sk.convert(p, "stieltjes_pair") is p


# nu on a ray of either side: F is holomorphic off the ray from the lowest
# node, the endpoint and side endpoint_side reports.
def unit_nevanlinna(ray, nodes):
    return sk.NevanlinnaTriple(np.eye(1), np.zeros((1, 1)), sk.MatrixMeasure(1, ray, [(t, [[1.0]]) for t in nodes]))


NEV_LEFT = unit_nevanlinna(sk.left_ray(0.0), (-1.0, -3.0))
NEV_RIGHT = unit_nevanlinna(sk.right_ray(0.0), (1.0, 2.0))


@pytest.mark.parametrize("nev, lowest", [(NEV_LEFT, -3.0), (NEV_RIGHT, 1.0)], ids=["left_ray", "right_ray"])
def test_nevanlinna_on_a_ray_excludes_the_ray_from_its_lowest_node(nev, lowest):
    assert endpoint_side(nev) == (lowest, "right")
    assert sk.evaluator(nev).excluded == sk.right_ray(lowest)
    cert = sk.certify_class(sk.evaluator(nev), lowest, "s")
    assert cert.margin("holomorphic") > 0.0
    assert cert.verdict == (nev is NEV_LEFT)  # F(x) tends to A - sum t W as x -> -inf: -2 for NEV_RIGHT


def test_nevanlinna_on_a_right_ray_is_evaluated_below_its_nodes():
    # F(0.4) = 1 + (1 + 0.4)/(1 - 0.4) + (1 + 0.8)/(2 - 0.4): holomorphic left of the node at 1.
    np.testing.assert_allclose(sk.evaluate(NEV_RIGHT, 0.4), [[1.0 + 1.4 / 0.6 + 1.8 / 1.6]], rtol=1e-14)


def test_nevanlinna_back_conversion_requires_zero_linear_term():
    nu = sk.MatrixMeasure(2, sk.whole_line(), [(1.0, I2)])
    nev = sk.NevanlinnaTriple(np.zeros((2, 2)), I2, nu)
    with pytest.raises(sk.IllegalConversion):
        sk.convert(nev, "kk_pair", alpha=0.0)


# --- residues ---


def test_residue_at_endpoint_atom():
    B = psd(np.random.default_rng(11), 2)
    p = e1256(0.0, psd(np.random.default_rng(12), 2), B)
    np.testing.assert_allclose(sk.residue_weight(p, 0.0, verify=True), B, rtol=1e-14)


def test_residue_zero_measure_not_an_atom():
    p = sk.StieltjesPair(0.0, I2, sk.MatrixMeasure(2, sk.right_ray(0.0), []))
    with pytest.raises(sk.NotAnAtom):
        sk.residue_weight(p, 1.0)


def test_residue_two_atoms_numeric_crosscheck():
    rng = np.random.default_rng(13)
    W, V = psd(rng, 2), psd(rng, 2)
    mu = sk.MatrixMeasure(2, sk.right_ray(0.0), [(1.0, W), (2.0, V)])
    p = sk.StieltjesPair(0.0, np.zeros((2, 2)), mu)
    np.testing.assert_allclose(sk.residue_weight(p, 2.0), 3 * V, rtol=1e-14)
    # numeric limit agrees to 1e-8
    eps = 2.0**-28
    approx = -1j * eps * sk.evaluator(p).batch_raw([2.0 + 1j * eps])[0]
    np.testing.assert_allclose(approx, 3 * V, atol=1e-8)


def test_residue_t_side():
    rng = np.random.default_rng(14)
    W = psd(rng, 2)
    t = sk.TPair(1.0, np.zeros((2, 2)), sk.MatrixMeasure(2, sk.left_ray(1.0), [(-1.0, W)]))
    np.testing.assert_allclose(sk.residue_weight(t, -1.0, verify=True), 3 * W, rtol=1e-14)


# --- scalar reduction ---


@given(seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_scalar_compression_stays_in_class(seed):
    rng = np.random.default_rng(seed)
    p = random_pair(rng)
    u = rng.normal(size=p.q) + 1j * rng.normal(size=p.q)
    nu = sk.scalar_projection(p.mu, u)
    gamma_s = float(np.real(u.conj() @ p.gamma @ u))
    assert nu.q == 1
    scalar_pair = sk.StieltjesPair(p.alpha, np.array([[gamma_s]]), nu)
    (z,) = off_ray_points(rng, p.alpha, "right", 1)
    lhs = complex(u.conj() @ sk.evaluate(p, z) @ u)
    rhs = complex(sk.evaluate(scalar_pair, z)[0, 0])
    assert abs(lhs - rhs) <= 1e-11 * (1 + abs(lhs))
    x = p.alpha - rng.uniform(0.5, 3.0)
    assert np.real(sk.evaluate(scalar_pair, x)[0, 0]) >= -1e-12


# --- JSON ---


def test_repr_json_round_trip_all_kinds():
    rng = np.random.default_rng(15)
    reprs = [make(rng) for make in RANDOM_KINDS.values()]
    reprs.append(sk.convert(random_pair(rng), "kk_pair"))
    reprs.append(sk.convert(sk.convert(random_pair(rng, gamma_rank=1), "kk_pair"), "nevanlinna"))
    for r in reprs:
        text = json.dumps(sk.repr_to_json(r), sort_keys=True)
        back = sk.repr_from_json(json.loads(text))
        assert back.KIND == r.KIND
        z = 1.7 + 2.3j
        np.testing.assert_array_equal(sk.evaluate(back, z), sk.evaluate(r, z))


def test_record_shape_and_support_mismatches_are_dimension_errors():
    mu = sk.MatrixMeasure(2, sk.right_ray(0.0), [(1.0, I2)])
    for make in (
        lambda: sk.StieltjesPair(0.0, np.eye(3), mu),  # a 3 x 3 gamma with a 2 x 2 measure
        lambda: sk.NevanlinnaTriple(I2, np.eye(1), sk.MatrixMeasure(2, sk.whole_line())),
        lambda: sk.StieltjesPair(1.0, I2, mu),  # mu lives on [0, inf), not [1, inf)
        lambda: sk.TPair(0.0, I2, sk.MatrixMeasure(2, sk.right_ray(0.0))),  # a right ray for a left one
        lambda: sk.SInfTriple(0.0, I2, I2, mu),  # the closed ray where the open one is required
    ):
        with pytest.raises(sk.DimensionMismatch, match="dimensions differ|must live on"):
            make()


@pytest.mark.parametrize("alpha", [np.inf, -np.inf, np.nan])
def test_a_non_finite_endpoint_is_refused(alpha):
    empty = sk.MatrixMeasure(1, sk.right_ray(0.0))
    with pytest.raises(sk.StieltjesKitError, match="finite"):
        sk.S0Measure(alpha, empty)
    with pytest.raises(sk.StieltjesKitError, match="finite"):
        sk.S0Measure(alpha, sk.MatrixMeasure(1, sk.right_ray(alpha)))
    obj = sk.repr_to_json(sk.S0Measure(0.0, empty))
    obj["alpha"] = obj["sigma"]["support"]["endpoint"] = alpha
    with pytest.raises(sk.StieltjesKitError, match="finite"):
        sk.repr_from_json(json.loads(json.dumps(obj)))


def _set(path, value):
    """An edit of a JSON object that sets the value at ``path``."""

    def edit(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value

    return edit


@pytest.mark.parametrize(
    "edit, error, match",
    [
        (_set(["kind"], "s1"), sk.UnsupportedPath, "unknown kind s1"),
        (_set(["kind"], ["s0"]), sk.DimensionMismatch, "malformed field 'kind'"),
        (lambda obj: obj.pop("kind"), sk.DimensionMismatch, "missing field 'kind'"),
        (lambda obj: obj.pop("gamma"), sk.DimensionMismatch, "missing field 'gamma'"),
        (lambda obj: obj["mu"].pop("q"), sk.DimensionMismatch, "missing field 'q'"),
        (_set(["mu"], "x"), sk.DimensionMismatch, "measure must be a JSON object"),
        (_set(["mu", "atoms", 0], 1.0), sk.DimensionMismatch, "malformed field 'atoms'"),
        (_set(["mu", "support", "kind"], "ray"), sk.UnsupportedKind, "unknown support kind"),
        (_set(["alpha"], 10**400), sk.DimensionMismatch, "endpoint"),
        (_set(["alpha"], "0"), sk.DimensionMismatch, "endpoint"),
        (_set(["gamma", 0, 0, 0], 10**400), sk.DimensionMismatch, "matrix"),
        (_set(["gamma", 0, 0], None), sk.DimensionMismatch, "matrix"),
        (_set(["gamma", 0], [[1.0, 0.0]]), sk.DimensionMismatch, "matrix"),
        (_set(["mu", "atoms", 0, "t"], 10**400), sk.DimensionMismatch, "nodes"),
        (_set(["mu", "q"], "2"), sk.DimensionMismatch, "q must be a positive integer"),
    ],
    ids=[
        "unknown_kind", "list_kind", "no_kind", "no_gamma", "no_q", "measure_not_an_object", "atom_not_an_object",
        "unknown_support", "big_integer_alpha", "string_alpha", "big_integer_gamma", "null_gamma_entry",
        "ragged_gamma", "big_integer_node", "string_q",
    ],
)
def test_repr_from_json_gives_a_typed_error_naming_the_defect(edit, error, match):
    obj = sk.repr_to_json(random_pair(np.random.default_rng(5), q=2, alpha=0.0, n_atoms=2))
    edit(obj)
    with pytest.raises(sk.StieltjesKitError, match=match) as exc:
        sk.repr_from_json(json.loads(json.dumps(obj)))
    assert type(exc.value) is error


def test_repr_from_json_wants_a_json_object():
    with pytest.raises(sk.DimensionMismatch, match="representation must be a JSON object"):
        sk.repr_from_json([sk.repr_to_json(random_pair(np.random.default_rng(6)))])


def test_an_atomless_nevanlinna_triple_is_entire():
    A, B = np.array([[1.0, 2.0 - 1j], [2.0 + 1j, -3.0]]), psd(np.random.default_rng(7), 2)
    nev = sk.NevanlinnaTriple(A, B, sk.MatrixMeasure(2, sk.whole_line()))
    F = sk.evaluator(nev)
    assert F.excluded is None and endpoint_side(nev) == (0.0, "right")
    zs = [0.0, -3.5, 2.0, 1.0 + 1.0j]  # on the real axis too: F = A + z B has no pole
    np.testing.assert_allclose(F.batch(zs), [A + z * B for z in zs], rtol=1e-15, atol=0)
    assert F.distance(2.0) == np.inf


@given(
    seed=st.integers(0, 10**6),
    kind=st.sampled_from(tuple(RANDOM_KINDS) + ("kk_pair", "nevanlinna")),
    q=st.integers(1, 4),
    n=st.integers(0, 6),
    endpoint=st.sampled_from([0.0, -1.5, 1e-8, 3.3e8, -1e12]),
    far=st.sampled_from([None, 0, 6, 12]),
)
@example(seed=0, kind="nevanlinna", q=2, n=0, endpoint=0.0, far=None)  # atomless: excluded from nowhere
@settings(max_examples=60, deadline=None)
def test_every_record_the_api_accepts_loads_back_from_its_json(seed, kind, q, n, endpoint, far):
    rng = np.random.default_rng(seed)
    r = random_kind(kind, rng, q=q, n_atoms=n, **{"beta" if KINDS[kind].side == "left" else "alpha": endpoint})
    if far is not None:
        r = with_far_atom(rng, r, far)
    text = json.dumps(sk.repr_to_json(r), allow_nan=False)  # strict JSON: no NaN or Infinity written
    assert sk.repr_from_json(json.loads(text)) == r


# --- batched evaluation ---

# A batch sums the atoms as one matrix product per block of points, a
# per-atom loop sums them one term at a time; the two orders agree to a
# few hundred roundings of the largest term, far inside BATCH_RTOL
# relative to 1 + ||F(z)||.  A pseudoinverse can amplify that gap by the
# condition number of F(z), hence the looser bound for the pinv maps.
BATCH_RTOL = 1e-12
PINV_BATCH_RTOL = 1e-10
ALL_KINDS = tuple(RANDOM_KINDS) + ("kk_pair", "nevanlinna")


def _reference(r, z):
    """F(z) summed atom by atom from the kind table."""
    spec = KINDS[r.KIND]
    e, _ = endpoint_side(r)
    S = np.zeros((r.q, r.q), dtype=complex)
    for t, W in measure_of(r).atoms:
        S = S + (spec.numerator(np.array(t), e) / (t - z)) * W
    return spec.affine(r, z, S)


def _batch_points(rng, r, m):
    """Off-ray points, gap points, and (for a measure with atoms) one point on an atom."""
    e, side = endpoint_side(r)
    sign = -1.0 if side == "right" else 1.0
    pts = off_ray_points(rng, e, side, m) + [complex(e + sign * d, 0.0) for d in rng.uniform(0.1, 5.0, 3)]
    nodes = measure_of(r).nodes
    if nodes.size:
        pts.insert(int(rng.integers(0, len(pts))), complex(rng.choice(nodes), 0.0))
    return pts


def _assert_close(A, B, rtol):
    for a, b in zip(A, B):
        assert np.linalg.norm(a - b) <= rtol * (1.0 + np.linalg.norm(b))


@given(seed=st.integers(0, 10**6), kind=st.sampled_from(ALL_KINDS), q=st.integers(1, 8), n=st.integers(1, 500))
@example(seed=1, kind="nevanlinna", q=8, n=500)
@example(seed=2, kind="tinf_triple", q=8, n=500)
@settings(max_examples=40, deadline=None)
def test_batch_agrees_with_scalar_evaluation(seed, kind, q, n):
    rng = np.random.default_rng(seed)
    r = random_kind(kind, rng, q=q, n_atoms=n)
    F = sk.evaluator(r)
    pts = _batch_points(rng, r, 12)
    near = [z for z in pts if F.distance(z) < 1e-9 * (1.0 + abs(z))]
    assert np.array_equal(F.distance(np.array(pts)), [F.distance(z) for z in pts])
    if near:
        with pytest.raises(sk.PoleProximity) as batch_exc:
            F.batch(pts)
        with pytest.raises(sk.PoleProximity) as scalar_exc:
            F(near[0])
        assert str(batch_exc.value) == str(scalar_exc.value)
        pts = [z for z in pts if z not in near]
    values = F.batch(pts)
    assert values.shape == (len(pts), r.q, r.q)
    _assert_close(values, [F(z) for z in pts], BATCH_RTOL)
    _assert_close(values, [_reference(r, z) for z in pts], BATCH_RTOL)
    opaque = sk.Evaluator(F.q, F.excluded, F.fn)
    assert np.array_equal(opaque.batch(pts), np.array([F(z) for z in pts]))
    if kind == "nevanlinna":  # the pinv maps need an endpoint
        return
    e, side = endpoint_side(r)
    pinv_ref = lambda z: -np.linalg.pinv(_reference(r, z), rcond=1e-12 * r.q)  # noqa: E731
    for G, scale in (
        (sk.pinv_map(r), lambda z: (z - e) if side == "right" else (e - z)),
        (sk.neg_pinv_map(r), lambda z: 1.0),
    ):
        values = G.batch(pts)
        _assert_close(values, [G(z) for z in pts], PINV_BATCH_RTOL)
        _assert_close(values, [pinv_ref(z) / scale(z) for z in pts], PINV_BATCH_RTOL)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_record_equality_is_exact(kind):
    """Records compare field by field: endpoints, matrices bit for bit, measures."""
    rng = np.random.default_rng(11)
    r = random_kind(kind, rng, q=2, n_atoms=3)
    same = sk.repr_from_json(json.loads(json.dumps(sk.repr_to_json(r))))
    assert r == same and not r != same
    for name, role in KINDS[kind].fields:
        value = getattr(r, name)
        if role == "endpoint":
            continue  # moving the endpoint alone would leave the measure's support
        if role == "measure":
            changed = sk.MatrixMeasure.from_arrays(value.q, value.support, value.nodes, 2.0 * value.weights)
        else:
            changed = value + 1e-12 * np.eye(r.q)
        assert dataclasses.replace(r, **{name: changed}) != r
    assert random_kind(kind, rng, q=2, n_atoms=3) != r
    other = next(k for k in ALL_KINDS if k != kind)
    assert random_kind(other, np.random.default_rng(11), q=2, n_atoms=3) != r
    assert r != "not a record"


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_record_copies_are_rebuilt_read_only(kind):
    r = random_kind(kind, np.random.default_rng(12), q=2, n_atoms=3)
    for dup in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert type(dup) is type(r) and dup == r
        for name, role in KINDS[kind].fields:
            if role in ("psd", "herm"):
                assert not getattr(dup, name).flags.writeable, name
                with pytest.raises(ValueError):
                    getattr(dup, name)[0, 0] = -5.0
