import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stieltjeskit as sk
from stieltjeskit import classifier, transforms
from stieltjeskit.representations import endpoint_side
from stieltjeskit.transforms import _pinv_image, ep_im_identity_defect

from genutil import (
    RANDOM_KINDS,
    measure_left,
    measure_right,
    off_ray_points,
    psd,
    random_pair,
    random_s0,
    random_sinf,
    random_tinf,
    random_tpair,
    with_far_atom,
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("op", [sk.pinv, sk.is_ep, ep_im_identity_defect])
def test_a_non_finite_matrix_is_a_typed_error(op, bad):
    M = np.eye(2, dtype=complex)
    M[0, 1] = bad  # reaches no SVD: numpy would raise an untyped LinAlgError there
    with pytest.raises(sk.StieltjesKitError, match="non-finite"):
        op(M)


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


# --- the closed form of the pinv maps ---


def _svd_map(r, neg):
    """The one-SVD-per-point map of r: the map of its evaluator as a bare Evaluator."""
    e, side = endpoint_side(r)
    return (sk.neg_pinv_map if neg else sk.pinv_map)(sk.evaluator(r), e, side)


def _criterion_06_input(rng, kind, q, gamma_rank, weight_rank, endpoint_atom):
    """An input of a criterion-06 kind with the given ranks, with or without an atom at the endpoint."""
    e = float(rng.uniform(-2.0, 2.0))
    if kind in ("sinf_triple", "tinf_triple"):  # open rays: no endpoint atom
        make = random_sinf if kind == "sinf_triple" else random_tinf
        return make(rng, q=q, ranks=(gamma_rank, weight_rank, weight_rank))
    measure = measure_right if kind in ("stieltjes_pair", "s0", "kk_pair") else measure_left
    mu = measure(rng, q, e, weight_rank=weight_rank, include_endpoint=endpoint_atom)
    gamma = psd(rng, q, rank=gamma_rank)
    return {
        "stieltjes_pair": lambda: sk.StieltjesPair(e, gamma, mu),
        "kk_pair": lambda: sk.convert(sk.StieltjesPair(e, gamma, mu), "kk_pair"),
        "s0": lambda: sk.S0Measure(e, mu),
        "t_pair": lambda: sk.TPair(e, gamma, mu),
        "t0": lambda: sk.T0Measure(e, mu),
    }[kind]()


CLOSED_FORM_KINDS = ["stieltjes_pair", "kk_pair", "s0", "sinf_triple", "t_pair", "t0", "tinf_triple"]


@given(
    seed=st.integers(0, 10**6),
    kind=st.sampled_from(CLOSED_FORM_KINDS),
    q=st.integers(1, 3),
    ranks=st.tuples(st.integers(0, 3), st.integers(1, 3)),
    endpoint_atom=st.booleans(),
    far=st.none() | st.floats(6.0, 13.0),
)
@settings(max_examples=200, deadline=None)
def test_closed_form_matches_the_svd_map(seed, kind, q, ranks, endpoint_atom, far):
    """Values on the whole certification grid, with or without one atom 1e6 to 1e13 from the endpoint.

    The gap points lie 1e-3 from the endpoint and the half-plane points come 1e-3 close to the poles
    on the ray.
    """
    rng = np.random.default_rng(seed)
    r = _criterion_06_input(rng, kind, q, min(ranks[0], q), min(ranks[1], q), endpoint_atom)
    if far is not None:
        r = with_far_atom(rng, r, far, min(ranks[1], q))
    e, side = endpoint_side(r)
    zs = e + classifier._grid_offsets(side, classifier.DEFAULT_GRID)
    for neg in (False, True) if kind not in ("sinf_triple", "tinf_triple") else (True,):
        G, H = (sk.neg_pinv_map if neg else sk.pinv_map)(r), _svd_map(r, neg)
        assert G._kernel is not None and H._kernel is None
        assert np.all(G._kernel[0] >= e) if side == "right" else np.all(G._kernel[0] <= e)  # every pole on the ray
        assert G.excluded == H.excluded
        for a, b in zip(G.batch(zs), H.batch(zs)):
            assert np.linalg.norm(a - b) <= 1e-9 * np.linalg.norm(b)


CRITERION_06 = [  # (input, map, claimed class) as criterion 06 certifies them
    (lambda rng: random_pair(rng), sk.pinv_map, "s"),
    (lambda rng: random_s0(rng, q=2), sk.pinv_map, "s0"),
    (lambda rng: random_sinf(rng, q=2), sk.neg_pinv_map, "s"),
    (lambda rng: random_tinf(rng, q=2), sk.neg_pinv_map, "t"),
    (lambda rng: random_pair(rng, q=2), sk.neg_pinv_map, "sinf"),
    (lambda rng: random_tpair(rng, q=2), sk.neg_pinv_map, "tinf"),
]


@pytest.mark.parametrize("make, mapper, cls", CRITERION_06)
def test_criterion_06_certificates_run_no_fit(monkeypatch, make, mapper, cls):
    """The images are atomic: the certificate evaluates the grid, then for a bounded class ladder rungs i 2^k only."""
    monkeypatch.setattr(classifier, "_fit", lambda *a: pytest.fail("the rational fit ran"))
    seen = []
    raw = sk.Evaluator.batch_raw
    monkeypatch.setattr(sk.Evaluator, "batch_raw", lambda F, zs: seen.append((F, np.array(zs))) or raw(F, zs))
    rng = np.random.default_rng(606)
    for _ in range(5):
        r = make(rng)
        e, _ = endpoint_side(r)
        G = mapper(r)
        seen.clear()
        cert = sk.certify_class(G, e, cls)
        assert cert.verdict == (cls != "s0")  # a nonzero image leaves the bounded class
        calls = [zs for F, zs in seen if F is G]
        spec = classifier.CLASSES[cls]
        assert np.array_equal(calls[0], e + classifier._grid_offsets(spec.side, classifier.DEFAULT_GRID))
        rungs = np.concatenate(calls[1:]) if len(calls) > 1 else np.empty(0, complex)
        assert len(calls) == 1 or spec.infinity is not None
        assert np.all(rungs.real == 0) and np.all(np.log2(rungs.imag) % 1 == 0)


def test_closed_form_of_the_constant_zero_and_resolvent_examples():
    zero = sk.StieltjesPair(0.0, np.zeros((2, 2)), sk.MatrixMeasure(2, sk.right_ray(0.0), []))
    one = sk.StieltjesPair(0.0, np.zeros((1, 1)), sk.MatrixMeasure(1, sk.right_ray(0.0), [(0.0, np.eye(1))]))
    gamma = psd(np.random.default_rng(1), 2) + 0.5 * I2
    const = sk.StieltjesPair(0.0, gamma, sk.MatrixMeasure(2, sk.right_ray(0.0), []))
    for p in (zero, one, const):
        assert sk.pinv_map(p)._kernel is not None
    image = _pinv_image(zero)  # 0^+ = 0
    assert np.array_equal(image.gamma, np.zeros((2, 2))) and not image.mu.nodes.size
    image = _pinv_image(one)  # F = 1/(-z): G = 1, no atom
    assert np.array_equal(image.gamma, np.eye(1)) and not image.mu.nodes.size
    image = _pinv_image(const)  # F = gamma: G = gamma^{-1} / (0 - z)
    assert image.mu.nodes.tolist() == [0.0]
    np.testing.assert_allclose(image.mu.weights[0], np.linalg.inv(gamma), rtol=1e-13)
    np.testing.assert_allclose(image.gamma, 0.0, atol=1e-15)


def test_pole_at_the_endpoint_is_merged_into_its_atom():
    # diag(1e-14/(0 - z) + 1/(1 - z), 1/(1 - z)): the first entry vanishes at 1e-14 / (1 + 1e-14),
    # within EPS_MERGE of alpha = 0, and the second's image 1 + 1/(0 - z) has its atom at 0.
    E1 = np.diag([1.0, 0.0])
    s = sk.S0Measure(0.0, sk.MatrixMeasure(2, sk.right_ray(0.0), [(0.0, 1e-14 * E1), (1.0, I2)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        image = _pinv_image(s)
        G, H = sk.pinv_map(s), _svd_map(s, False)
    assert image.mu.nodes.tolist() == [0.0]  # one atom: the pole's, placed at alpha, and alpha's, merged
    np.testing.assert_allclose(image.mu.weights[0], I2, rtol=1e-12, atol=1e-12)
    for z in (0.5j, -1.0 + 1j, 2.0 - 0.3j, -3.0):
        np.testing.assert_allclose(G(z), H(z), rtol=1e-9)


def test_pole_at_a_node_and_a_double_pole():
    E1, E2 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    # diag(1/(1 - z) + 1/(2 - z), 1/(1.5 - z)): the first entry vanishes at 1.5, the second's node.
    at_node = sk.S0Measure(0.0, sk.MatrixMeasure(2, sk.right_ray(0.0), [(1.0, E1), (1.5, E2), (2.0, E1)]))
    # (1/(1 - z) + 1/(2 - z)) I: K has the eigenvalue 1.5 twice, and its two atoms are merged.
    double = sk.S0Measure(0.0, sk.MatrixMeasure(2, sk.right_ray(0.0), [(1.0, I2), (2.0, I2)]))
    for s, weight in ((at_node, E1 / 30.0), (double, I2 / 30.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            image = _pinv_image(s)
        np.testing.assert_allclose(image.mu.nodes, [0.0, 1.5], atol=1e-15)
        np.testing.assert_allclose(image.mu.weights[1], weight, atol=1e-14)  # residue 1/2 at 1.5 over 1 + 1.5 over 1.5
        for neg in (False, True):
            G, H = (sk.neg_pinv_map if neg else sk.pinv_map)(s), _svd_map(s, neg)
            for z in (0.5j, -1.0 + 1j, 1.5 + 0.1j, -3.0):
                np.testing.assert_allclose(G(z), H(z), atol=1e-12)


def test_node_near_1e13_passes_the_ladder_through_the_image_pole():
    """F = 1 + (1 + t) 1e-3 / (t - z) with t = 1e13 vanishes at t + (1 + t) 1e-3, about 1.001e13.

    The image is atomic, so the ladder of params starts past that pole, at 2^44, and stops at depth 45 with
    gamma 0.  The SVD map stops at depth 2 with the same gamma.
    """
    p = sk.StieltjesPair(0.0, np.eye(1), sk.MatrixMeasure(1, sk.right_ray(0.0), [(1e13, 1e-3 * np.eye(1))]))
    G = sk.pinv_map(p)
    np.testing.assert_allclose(G._kernel[0], [0.0, 1e13 + (1.0 + 1e13) * 1e-3], rtol=1e-15)
    assert sk.certify_class(G, 0.0, "s").verdict
    params = sk.extract_params(G, 0.0, "s")
    assert params["gamma"].ladder_depth == 45 and params["gamma_radial"].ladder_depth == 45
    assert np.linalg.norm(params["gamma"].value) <= 1e-15
    svd = sk.extract_params(_svd_map(p, False), 0.0, "s")
    assert svd["gamma"].ladder_depth == 2 and np.linalg.norm(svd["gamma"].value) <= 1e-15


def test_representations_take_no_rank_probe(monkeypatch):
    probes = []
    monkeypatch.setattr(transforms, "rank_constancy", lambda F, zs: probes.append(F))
    p = random_pair(np.random.default_rng(21), q=2)
    sk.pinv_map(p), sk.neg_pinv_map(p), sk.pinv_map(random_sinf(np.random.default_rng(22), q=2))
    assert probes == []
    F = sk.evaluator(p)
    sk.pinv_map(F, p.alpha), sk.neg_pinv_map(F, p.alpha)
    assert probes == [F, F]


def test_svd_map_for_product_forms_and_large_measures():
    rng = np.random.default_rng(23)
    si = random_sinf(rng, q=2)
    assert sk.pinv_map(si)._kernel is None  # a double pole at alpha: no pair image
    n = transforms._CLOSED_FORM_COLUMNS // 2 + 1
    big = random_pair(rng, q=2, n_atoms=n)
    for mapper in (sk.pinv_map, sk.neg_pinv_map):
        assert mapper(big)._kernel is None
        assert mapper(random_pair(rng, q=2, n_atoms=n - 1))._kernel is not None


def test_a_failure_of_the_closed_form_is_raised_not_replaced(monkeypatch):
    """No fallback to the SVD map: what the build raises (NotPsd from a weight, say) reaches the caller."""

    def fail(p):
        raise sk.NotPsd("lambda_min below tolerance")

    monkeypatch.setattr(transforms, "_pair_pinv", fail)
    rng = np.random.default_rng(24)
    for mapper, r in ((sk.pinv_map, random_pair(rng, q=2)), (sk.neg_pinv_map, random_sinf(rng, q=2))):
        with pytest.raises(sk.NotPsd):
            mapper(r)


def test_nevanlinna_input_is_unsupported():
    n = sk.convert(sk.convert(random_pair(np.random.default_rng(25), q=2), "kk_pair"), "nevanlinna")
    for mapper, what in ((sk.pinv_map, "pinv_map"), (sk.neg_pinv_map, "neg_pinv_map")):
        with pytest.raises(sk.UnsupportedKind, match=f"{what}: unsupported input kind nevanlinna"):
            mapper(n)


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
