import dataclasses

import numpy as np
import pytest

import stieltjeskit as sk
from stieltjeskit.classifier import TOL_CERT, TOL_CR, _grid_offsets, sample_points
from stieltjeskit.representations import KINDS, endpoint_side

from genutil import (
    RANDOM_KINDS,
    psd,
    random_kind,
    random_pair,
    random_s0,
    random_sinf,
    random_t0,
    random_tinf,
    random_tpair,
)

I2 = np.eye(2)
SMALL_GRID = sk.GridConfig(n_upper=16, n_lower=16, n_gap=8)


def delta_pair(alpha, gamma, t, W):
    return sk.StieltjesPair(alpha, gamma, sk.MatrixMeasure(gamma.shape[0], sk.right_ray(alpha), [(t, W)]))


# --- certify_class ---


def test_one_atom_pair_certifies_as_s():
    rng = np.random.default_rng(0)
    p = delta_pair(0.0, psd(rng, 2), 0.0, psd(rng, 2))
    cert = sk.certify_class(sk.evaluator(p), 0.0, "s")
    assert cert.verdict
    assert all(c["margin"] >= -1e-10 for c in cert.conditions)


def test_zero_function_in_every_class():
    zero = sk.Evaluator(2, sk.right_ray(0.0), lambda z: np.zeros((2, 2), dtype=complex))
    for kind in ("s", "sdot", "s0", "sinf"):
        assert sk.certify_class(zero, 0.0, kind, SMALL_GRID).verdict, kind
    zero_t = sk.Evaluator(2, sk.left_ray(0.0), lambda z: np.zeros((2, 2), dtype=complex))
    for kind in ("t", "tdot", "t0", "tinf"):
        assert sk.certify_class(zero_t, 0.0, kind, SMALL_GRID).verdict, kind


def test_left_ray_one_atom_certifies_as_t():
    rng = np.random.default_rng(1)
    A, B = psd(rng, 2), psd(rng, 2)
    # G(z) = -A + B/(beta - z)
    g = sk.TPair(0.5, A, sk.MatrixMeasure(2, sk.left_ray(0.5), [(0.5, B)]))
    cert = sk.certify_class(sk.evaluator(g), 0.5, "t")
    assert cert.verdict


def test_each_random_kind_passes_its_own_class():
    rng = np.random.default_rng(2)
    kinds = {
        "stieltjes_pair": ("s", random_pair),
        "s0": ("s0", random_s0),
        "sinf_triple": ("sinf", random_sinf),
        "t_pair": ("t", random_tpair),
        "t0": ("t0", random_t0),
        "tinf_triple": ("tinf", random_tinf),
    }
    for kind, (cls, make) in kinds.items():
        r = make(rng)
        endpoint = getattr(r, "alpha", None)
        if endpoint is None:
            endpoint = r.beta
        cert = sk.certify_class(sk.evaluator(r), endpoint, cls, SMALL_GRID)
        assert cert.verdict, (kind, [(c["name"], c["margin"]) for c in cert.conditions])


def test_decaying_class_certified_for_zero_gamma():
    rng = np.random.default_rng(3)
    s0 = random_s0(rng, q=2)
    assert sk.certify_class(sk.evaluator(s0), s0.alpha, "sdot", SMALL_GRID).verdict
    t0 = random_t0(rng, q=2)
    assert sk.certify_class(sk.evaluator(t0), t0.beta, "tdot", SMALL_GRID).verdict


def test_diverging_plain_limit_fails_the_decaying_class():
    # E != 0: F grows like (z - alpha) E, so the plain ladder does not converge.
    r = random_sinf(np.random.default_rng(3), q=2)
    cert = sk.certify_class(sk.evaluator(r), r.alpha, "sdot", SMALL_GRID)
    assert not cert.verdict and cert.margin("decay_at_infinity") == -1.0


def test_nonzero_gamma_fails_bounded_and_decaying_classes():
    rng = np.random.default_rng(4)
    p = random_pair(rng, q=2)
    p = sk.StieltjesPair(p.alpha, p.gamma + I2, p.mu)  # definitely nonzero gamma
    F = sk.evaluator(p)
    c_s0 = sk.certify_class(F, p.alpha, "s0", SMALL_GRID)
    assert not c_s0.verdict and c_s0.margin("y_norm_bounded") < -1e-6
    c_dot = sk.certify_class(F, p.alpha, "sdot", SMALL_GRID)
    assert not c_dot.verdict and c_dot.margin("decay_at_infinity") < -1e-6


def test_negative_eigenvalue_in_gamma_rejected_with_witness():
    rng = np.random.default_rng(5)
    bad_gamma = psd(rng, 2) + np.diag([0.0, -0.8])
    mu = sk.MatrixMeasure(2, sk.right_ray(0.0), [(1.0, psd(rng, 2))])
    F = sk.Evaluator(2, sk.right_ray(0.0), lambda z: bad_gamma + (2.0 / (1.0 - z)) * mu.atoms[0][1])
    cert = sk.certify_class(F, 0.0, "s")
    assert not cert.verdict
    worst = min(cert.conditions, key=lambda c: c["margin"])
    assert worst["margin"] < -1e-6
    assert worst["witness"] is not None


def test_atom_across_endpoint_rejected_on_gap():
    # formula of a pair but with one atom at t = -0.5 < alpha = 0
    rng = np.random.default_rng(6)
    W = psd(rng, 2)
    F = sk.Evaluator(2, sk.right_ray(0.0), lambda z: (0.5 / (-0.5 - z)) * W)
    cert = sk.certify_class(F, 0.0, "s")
    assert not cert.verdict
    names = {c["name"]: c for c in cert.conditions}
    assert min(names["psd_on_gap"]["margin"], names["re_psd_left"]["margin"]) < -1e-6


def test_s_and_s_via_pair_agree():
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = random_pair(rng)
        F = sk.evaluator(p)
        a = sk.certify_class(F, p.alpha, "s", SMALL_GRID).verdict
        b = sk.certify_class(F, p.alpha, "s_via_pair", SMALL_GRID).verdict
        assert a and b
    # out-of-class: negative eigenvalue in the constant term
    bad = sk.Evaluator(2, sk.right_ray(0.0), lambda z: np.diag([1.0, -1.0]) + 0j * z)
    assert not sk.certify_class(bad, 0.0, "s", SMALL_GRID).verdict
    assert not sk.certify_class(bad, 0.0, "s_via_pair", SMALL_GRID).verdict


def test_t_via_pair_agrees_with_t():
    rng = np.random.default_rng(8)
    g = random_tpair(rng)
    F = sk.evaluator(g)
    assert sk.certify_class(F, g.beta, "t", SMALL_GRID).verdict
    assert sk.certify_class(F, g.beta, "t_via_pair", SMALL_GRID).verdict


def test_certificate_json_shape():
    p = delta_pair(0.0, I2, 0.0, I2)
    cert = sk.certify_class(sk.evaluator(p), 0.0, "s", SMALL_GRID)
    obj = cert.to_json()
    assert obj["verdict"] == "pass"
    assert {c["name"] for c in obj["conditions"]} >= {"holomorphic", "herglotz_upper"}
    for c in obj["conditions"]:
        assert len(c["witness_z"]) == 2


def upper_points(endpoint, side, grid):
    return (endpoint + _grid_offsets(side, grid))[: grid.n_upper].tolist()


def test_grid_determinism():
    build = _grid_offsets.__wrapped__  # uncached, so the two grids are built twice
    g1 = build("right", sk.GridConfig(seed=9))
    g2 = build("right", sk.GridConfig(seed=9))
    assert g1.tolist() == g2.tolist()
    g3 = build("right", sk.GridConfig(seed=10))
    assert g1[:64].tolist() != g3[:64].tolist()


def test_evaluation_failure_carries_witness():
    def explode(z):
        raise FloatingPointError("boom")

    F = sk.Evaluator(1, None, explode)
    with pytest.raises(sk.EvaluationFailed) as exc:
        sk.certify_class(F, 0.0, "s", SMALL_GRID)
    assert exc.value.witness is not None


def test_non_finite_value_is_an_evaluation_failure():
    F = sk.Evaluator(1, None, lambda z: np.array([[np.nan]], dtype=complex))
    with pytest.raises(sk.EvaluationFailed) as exc:
        sk.certify_class(F, 0.0, "s", SMALL_GRID)
    assert exc.value.witness is not None


def test_nan_margin_fails_the_certificate():
    # Finite values of +-1e308 that jump at the real part of one upper grid
    # point: the difference quotient there overflows and its CR residual is
    # NaN, while every PSD condition holds (the values are real, and
    # positive left of the endpoint).
    z0 = next(z for z in upper_points(0.0, "right", SMALL_GRID) if z.real > 0.0)
    F = sk.Evaluator(1, sk.right_ray(0.0), lambda z: np.array([[1e308 if z.real < z0.real else -1e308]], dtype=complex))
    with np.errstate(over="ignore", invalid="ignore"):
        cert = sk.certify_class(F, 0.0, "s", SMALL_GRID)
    assert not cert.verdict
    assert np.isnan(cert.margin("holomorphic"))
    assert [c["witness"] for c in cert.conditions if c["name"] == "holomorphic"] == [z0]


def test_member_with_large_values_passes_holomorphy():
    # A tinf triple (q = 1) whose |F| reaches about 77 near the upper grid
    # point -4.885+0.464i: the truncation error of a second-order stencil
    # gave a CR residual of 1.06e-6 > TOL_CR there and rejected a member.
    r = sk.TInfTriple(
        -1.427563988274403,
        [[2.5597370498127003]],
        [[1.3424441346393903]],
        sk.MatrixMeasure(
            1,
            sk.open_left_ray(-1.427563988274403),
            [
                (-5.313144772473837, [[1.6303730139635322]]),
                (-4.399427029506333, [[2.9464489472588165]]),
                (-3.281704636258046, [[0.4476872100178185]]),
                (-2.2404016630693118, [[0.15033189898206453]]),
                (-1.6566286823271195, [[0.43612060709566935]]),
            ],
        ),
    )
    F = sk.evaluator(r)
    for G in (F, sk.Evaluator(F.q, F.excluded, F.fn)):  # exact, and sampled by the stencil
        cert = sk.certify_class(G, r.beta, "tinf")
        assert cert.verdict
        assert cert.margin("holomorphic") > 0.9 * TOL_CR


@pytest.mark.parametrize("t", [1e7, 1e10])
def test_far_atom_s0_and_t0_pass(t):
    s = sk.S0Measure(0.0, sk.MatrixMeasure(2, sk.right_ray(0.0), [(t, I2)]))
    cert = sk.certify_class(sk.evaluator(s), 0.0, "s0", SMALL_GRID)
    assert cert.verdict and cert.margin("y_norm_bounded") > 0.49
    mirror = sk.T0Measure(0.0, sk.MatrixMeasure(2, sk.left_ray(0.0), [(-t, I2)]))
    cert = sk.certify_class(sk.evaluator(mirror), 0.0, "t0", SMALL_GRID)
    assert cert.verdict and cert.margin("y_norm_bounded") > 0.49


# Atoms at 1 and 10, two of the gap points of a left-side grid at endpoint 0
# (gap distances 1e-3 .. 1e3 by decades): the first failing point in
# evaluation order (upper, lower, then gap points) is z = 1.
PARITY_GRID = sk.GridConfig(n_upper=8, n_lower=8, n_gap=7)


def _atomic_and_opaque():
    mu = sk.MatrixMeasure(2, sk.right_ray(0.0), [(1.0, I2), (10.0, 2.0 * I2)])
    F = sk.evaluator(sk.StieltjesPair(0.0, I2, mu))
    return F, sk.Evaluator(F.q, F.excluded, F.fn)


def test_non_finite_value_fails_at_the_same_point_on_both_paths():
    for F in _atomic_and_opaque():
        with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(sk.EvaluationFailed) as exc:
            sk.certify_class(F, 0.0, "t", PARITY_GRID)
        assert exc.value.witness == 1.0 and "non-finite" in str(exc.value)


def test_raised_exception_fails_at_the_same_point_on_both_paths():
    for F in _atomic_and_opaque():
        with np.errstate(divide="raise", invalid="raise"), pytest.raises(sk.EvaluationFailed) as exc:
            sk.certify_class(F, 0.0, "t", PARITY_GRID)
        assert exc.value.witness == 1.0 and "raised" in str(exc.value)

    def raise_beyond_half(z):
        if z.real > 0.5:
            raise ValueError("outside the model")
        return np.eye(2, dtype=complex)

    F = sk.Evaluator(2, None, raise_beyond_half)
    first = next(z for z in upper_points(0.0, "left", PARITY_GRID) if z.real > 0.5)
    with pytest.raises(sk.EvaluationFailed) as exc:
        sk.certify_class(F, 0.0, "t", PARITY_GRID)
    assert exc.value.witness == first


def test_batch_that_raises_where_no_single_point_does():
    def batch(zs):
        if zs.size > 1:
            raise MemoryError("batch too large")
        return np.ones((1, 1, 1), dtype=complex)

    with pytest.raises(sk.EvaluationFailed, match="no single point does") as exc:
        sk.certify_class(sk.Evaluator.of_batch(1, None, batch), 0.0, "s", PARITY_GRID)
    assert exc.value.witness is None and isinstance(exc.value.__cause__, MemoryError)


def test_raising_batch_fails_at_the_first_single_point_that_is_not_finite():
    first = upper_points(0.0, "right", PARITY_GRID)[2]

    def batch(zs):
        if zs.size > 1:
            raise ValueError("batch refused")
        return np.full((1, 1, 1), np.nan if zs[0] == first else 1.0, dtype=complex)

    with pytest.raises(sk.EvaluationFailed, match="non-finite") as exc:
        sk.certify_class(sk.Evaluator.of_batch(1, None, batch), 0.0, "s", PARITY_GRID)
    assert exc.value.witness == first


# --- holomorphy: exact for an atomic evaluator, sampled for an opaque one ---

N_GRID = 160  # points of the default grid


@pytest.fixture
def points_seen(monkeypatch):
    """(evaluator, batch size) of every call of Evaluator.batch_raw."""
    seen = []
    raw = sk.Evaluator.batch_raw
    monkeypatch.setattr(sk.Evaluator, "batch_raw", lambda F, zs: seen.append((F, np.size(zs))) or raw(F, zs))
    return seen


def _points(seen, F):
    return sum(n for G, n in seen if G is F)


def _holomorphic(cert):
    return next(c for c in cert.conditions if c["name"] == "holomorphic")


@pytest.mark.parametrize("shift", [0.5, 1e4])
def test_node_in_the_gap_fails_holomorphy_with_the_node_as_witness(shift):
    # The pair's one node lies at 1.22; claimed past it, it is a pole in the gap.
    # At shift 1e4 no grid point comes near it: only the exact check can see it.
    p = random_pair(np.random.default_rng(5), q=2)
    (t,) = p.mu.nodes
    endpoint = p.alpha + shift
    cert = sk.certify_class(sk.evaluator(p), endpoint, "s")
    assert not cert.verdict
    assert _holomorphic(cert) == {
        "name": "holomorphic",
        "margin": -(endpoint - t) / (1.0 + abs(endpoint)),
        "witness": complex(t),
    }


@pytest.mark.parametrize("make, claim, deepest", [(random_pair, "t", -1), (random_tpair, "s", 0)])
def test_claim_for_the_other_side_fails_holomorphy_at_the_deepest_node(make, claim, deepest):
    r = make(np.random.default_rng(9), q=2, n_atoms=3)
    endpoint, _ = endpoint_side(r)
    cert = sk.certify_class(sk.evaluator(r), endpoint, claim)
    hol = _holomorphic(cert)
    assert not cert.verdict and hol["margin"] < -TOL_CERT
    assert hol["witness"] == complex(r.mu.nodes[deepest])


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("kind", list(KINDS))
def test_opaque_wrapper_runs_the_stencil_to_the_same_verdict(points_seen, kind, q):
    r = random_kind(kind, np.random.default_rng(q), q=q)
    endpoint, _ = endpoint_side(r)
    cls = KINDS[kind].default_class
    F = sk.evaluator(r)
    opaque = sk.Evaluator(F.q, F.excluded, F.fn)
    exact, sampled = (sk.certify_class(G, endpoint, cls) for G in (F, opaque))
    assert exact.verdict and sampled.verdict
    assert exact.margin("holomorphic") == TOL_CR > sampled.margin("holomorphic")
    assert _points(points_seen, opaque) - _points(points_seen, F) == 8 * N_GRID  # the stencil at every point


def test_copies_and_maps_carry_no_nodes(points_seen):
    p = random_pair(np.random.default_rng(5), q=2)
    F = sk.evaluator(p)
    assert F._nodes is not None
    copies = (sk.Evaluator.of_batch(F.q, F.excluded, F.batch_fn), dataclasses.replace(F, fn=F.fn))
    for G in copies:
        assert G._nodes is None
        cert = sk.certify_class(G, p.alpha, "s")
        assert cert.verdict and cert.margin("holomorphic") < TOL_CR
        assert _points(points_seen, G) == 9 * N_GRID
    G = sk.pinv_map(F, p.alpha)  # the map of a bare Evaluator; a representation's is atomic
    assert G._nodes is None
    sk.certify_class(G, p.alpha, "s")
    assert _points(points_seen, G) >= 9 * N_GRID


# --- kernel_range_report ---


def test_kernel_report_rank_deficient_constant():
    p = sk.StieltjesPair(0.0, np.diag([1.0, 0.0]), sk.MatrixMeasure(2, sk.right_ray(0.0), []))
    rep = sk.kernel_range_report(p)
    assert rep["rank"] == 1 and rep["ok"]


def test_kernel_report_zero_function():
    p = sk.StieltjesPair(0.0, np.zeros((2, 2)), sk.MatrixMeasure(2, sk.right_ray(0.0), []))
    rep = sk.kernel_range_report(p)
    assert rep["rank"] == 0 and rep["ok"]


def test_kernel_report_rank_one_measure():
    e1 = np.zeros((2, 2))
    e1[0, 0] = 1.0
    s = sk.S0Measure(0.0, sk.MatrixMeasure(2, sk.right_ray(0.0), [(1.0, e1)]))
    rep = sk.kernel_range_report(s)
    assert rep["rank"] == 1 and rep["ok"]


def test_kernel_report_all_kinds_random_rank_deficient():
    rng = np.random.default_rng(10)
    for _ in range(5):
        assert sk.kernel_range_report(random_pair(rng, q=3, gamma_rank=1, weight_rank=1))["ok"]
        assert sk.kernel_range_report(random_s0(rng, q=3, weight_rank=2))["ok"]
        assert sk.kernel_range_report(random_sinf(rng, q=3, ranks=(1, 1, 1)))["ok"]
        assert sk.kernel_range_report(random_tpair(rng, q=3, gamma_rank=1, weight_rank=1))["ok"]
        assert sk.kernel_range_report(random_t0(rng, q=3, weight_rank=2))["ok"]
        assert sk.kernel_range_report(random_tinf(rng, q=3, ranks=(1, 1, 1)))["ok"]


# --- rank_constancy ---


def test_rank_constancy_examples():
    pts = sample_points(0.0, "right", 10)
    p = sk.StieltjesPair(0.0, np.diag([1.0, 0.0]), sk.MatrixMeasure(2, sk.right_ray(0.0), []))
    assert sk.rank_constancy(sk.evaluator(p), pts) == (1, True)
    zero = sk.Evaluator(2, None, lambda z: np.zeros((2, 2), dtype=complex))
    assert sk.rank_constancy(zero, pts) == (0, True)
    ident = sk.Evaluator(2, None, lambda z: np.eye(2, dtype=complex))
    assert sk.rank_constancy(ident, pts) == (2, True)


def test_rank_instability_detected():
    F = sk.Evaluator(2, None, lambda z: np.diag([1.0, 1.0 if z.imag > 0 else 0.0]) + 0j)
    with pytest.raises(sk.RankInstability):
        sk.rank_constancy(F, sample_points(0.0, "right", 10))


# --- eigen_invariance ---


def test_eigen_invariance_lambda_zero_reduces_to_kernel():
    rng = np.random.default_rng(11)
    p = random_pair(rng, q=3, gamma_rank=1, weight_rank=1)
    assert sk.eigen_invariance(p, 0.0)


def test_eigen_invariance_constant_diagonal():
    p = sk.StieltjesPair(0.0, np.diag([2.0, 1.0]), sk.MatrixMeasure(2, sk.right_ray(0.0), []))
    assert sk.eigen_invariance(p, 1.0)
    with pytest.raises(sk.PreconditionUnmet):
        sk.eigen_invariance(p, 3.0)


def test_eigen_invariance_other_kinds_preconditions():
    rng = np.random.default_rng(12)
    si = random_sinf(rng, q=2)
    assert sk.eigen_invariance(si, 1.0) in (True, False)  # D + I is PSD
    t = random_tpair(rng, q=2)
    assert sk.eigen_invariance(t, 0.5) in (True, False)  # gamma + I/2 PSD
    ti = random_tinf(rng, q=2)
    with pytest.raises(sk.PreconditionUnmet):
        sk.eigen_invariance(ti, np.linalg.norm(ti.D, 2) + 1.0)


# --- null_domination ---


def test_null_domination_with_own_gamma():
    rng = np.random.default_rng(13)
    gamma = psd(rng, 3, rank=2)
    p = sk.StieltjesPair(0.0, gamma, sk.MatrixMeasure(3, sk.right_ray(0.0), []))
    rep = sk.null_domination(p, gamma)
    assert rep["all"] is True


def test_null_domination_identity_always_true():
    rng = np.random.default_rng(14)
    p = random_pair(rng, q=2)
    assert sk.null_domination(p, np.eye(2))["all"] is True


def test_null_domination_zero_matrix_false_for_nonzero_f():
    rng = np.random.default_rng(15)
    p = random_pair(rng, q=2)
    assert sk.null_domination(p, np.zeros((2, 2)))["all"] is False


def test_null_domination_routes_consistent_random():
    rng = np.random.default_rng(16)
    for _ in range(25):
        p = random_pair(rng, q=3, gamma_rank=int(rng.integers(0, 4)), weight_rank=int(rng.integers(1, 4)))
        k = int(rng.integers(1, 4))
        A = rng.normal(size=(k, 3)) + 1j * rng.normal(size=(k, 3))
        rep = sk.null_domination(p, A)  # must not raise InconsistentEquivalence
        assert isinstance(rep["all"], bool)
