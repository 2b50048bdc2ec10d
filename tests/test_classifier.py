import collections
import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stieltjeskit as sk
from stieltjeskit import classifier
from stieltjeskit.classifier import CLASSES, TOL_CERT, TOL_FIT, _grid_offsets, sample_points
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
    screened_and_unscreened,
    with_far_atom,
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


def test_a_jump_fails_holomorphy_at_a_finite_margin():
    # Finite values of +-1e308 that jump at the real part of one upper grid
    # point, while every PSD condition holds (the values are real, and
    # positive left of the endpoint).  The stencil's difference quotient
    # overflowed there to a NaN residual; the fit scales the values first.
    z0 = next(z for z in upper_points(0.0, "right", SMALL_GRID) if z.real > 0.0)
    F = sk.Evaluator(1, sk.right_ray(0.0), lambda z: np.array([[1e308 if z.real < z0.real else -1e308]], dtype=complex))
    cert = sk.certify_class(F, 0.0, "s", SMALL_GRID)
    assert not cert.verdict
    hol = _holomorphic(cert)
    assert -np.inf < hol["margin"] < -TOL_CERT
    assert all(c["margin"] >= 0.0 for c in cert.conditions if c["name"] != "holomorphic")


def test_a_nan_margin_is_the_worst():
    """A NaN margin never passes: _worst returns the first one, whatever else the margins hold."""
    points = np.array([1j, 2j, 3j, 4j])
    margin, witness = classifier._worst(points, np.array([-1.0, np.nan, -np.inf, np.nan]))
    assert np.isnan(margin) and witness == 2j
    assert not margin >= -TOL_CERT
    assert classifier._worst(points, np.array([0.5, -2.0, -2.0, 1.0])) == (-2.0, 2j)  # the first of the least


def test_an_oscillation_near_the_largest_float_fails_holomorphy_without_a_warning():
    """1.5e308 cos(1e6 Re z) + i: the stencil's differences overflowed, with a warning, to a NaN margin."""
    F = sk.Evaluator(1, sk.right_ray(0.0), lambda z: np.array([[1.5e308 * np.cos(1e6 * z.real) + 1j]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = sk.certify_class(F, 0.0, "s")
    hol = _holomorphic(cert)
    assert not cert.verdict and -np.inf < hol["margin"] < -TOL_CERT


def test_conj_fails_holomorphy_with_a_witness():
    F = sk.Evaluator(1, sk.right_ray(0.0), lambda z: np.array([[np.conj(z)]]))
    cert = sk.certify_class(F, 0.0, "s")
    hol = _holomorphic(cert)
    assert not cert.verdict and -np.inf < hol["margin"] < -TOL_CERT
    assert np.isfinite(hol["witness"])


@pytest.mark.parametrize("alpha", [0.0, -2.5, 1e4])
def test_an_opaque_inverse_square_root_passes(alpha):
    """(alpha - z)^(-1/2) is a Stieltjes function but not rational: its fit runs to half the grid, far below TOL_FIT."""
    F = sk.Evaluator(1, sk.right_ray(alpha), lambda z: np.array([[(alpha - z) ** -0.5]]))
    cert = sk.certify_class(F, alpha, "s")
    assert cert.verdict
    assert 0.9 * TOL_FIT < cert.margin("holomorphic") < TOL_FIT


def test_member_with_large_values_passes_holomorphy():
    # A tinf triple (q = 1) whose |F| reaches about 77 near the upper grid
    # point -4.885+0.464i: the truncation error of a second-order
    # Cauchy-Riemann stencil gave a residual of 1.06e-6 there and rejected a
    # member.
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
    for G in (F, sk.Evaluator(F.q, F.excluded, F.fn)):  # exact, and fitted
        cert = sk.certify_class(G, r.beta, "tinf")
        assert cert.verdict
        assert cert.margin("holomorphic") > 0.9 * TOL_FIT


@pytest.mark.parametrize("t", [1e7, 1e10])
def test_far_atom_s0_and_t0_pass(t):
    s = sk.S0Measure(0.0, sk.MatrixMeasure(2, sk.right_ray(0.0), [(t, I2)]))
    cert = sk.certify_class(sk.evaluator(s), 0.0, "s0", SMALL_GRID)
    assert cert.verdict and cert.margin("y_norm_bounded") > 0.49
    mirror = sk.T0Measure(0.0, sk.MatrixMeasure(2, sk.left_ray(0.0), [(-t, I2)]))
    cert = sk.certify_class(sk.evaluator(mirror), 0.0, "t0", SMALL_GRID)
    assert cert.verdict and cert.margin("y_norm_bounded") > 0.49


def _textbook_nevanlinna(sigma, excluded):
    """Opaque F(z) = A + sum (1 + t z)/(t - z) nu with nu = sigma / (1 + t^2) and A = sum t nu: the resolvent of sigma.

    Each sample sums terms near -t nu against A, so F's value at infinity is a rounding of about eps sum |t| nu.
    """
    t, nu = sigma.nodes, sigma.weights / (1.0 + sigma.nodes**2)[:, None, None]
    A = np.sum(t[:, None, None] * nu, axis=0)
    kernel = lambda zs: np.einsum("mn,nij->mij", (1.0 + t * zs[:, None]) / (t - zs[:, None]), nu)  # noqa: E731
    return sk.Evaluator.of_batch(sigma.q, excluded, lambda zs: A + kernel(zs))


@pytest.mark.parametrize("seed", range(8))
def test_s0_and_t0_through_a_nevanlinna_triple_pass(seed):
    """The bounded-growth probe must not read the rounding of a cancelling value at infinity times a far y.

    The triple converted from an s0 member, and the textbook Nevanlinna form of an s0 and of a t0 member
    (no conversion reaches a left ray).
    """
    s, t0 = random_s0(np.random.default_rng(seed)), random_t0(np.random.default_rng(seed))
    triple = sk.convert(sk.convert(sk.convert(s, "stieltjes_pair"), "kk_pair"), "nevanlinna")
    for F, endpoint, cls in [
        (sk.evaluator(triple), s.alpha, "s0"),
        (_textbook_nevanlinna(s.sigma, sk.right_ray(s.alpha)), s.alpha, "s0"),
        (_textbook_nevanlinna(t0.sigma, sk.left_ray(t0.beta)), t0.beta, "t0"),
    ]:
        cert = sk.certify_class(F, endpoint, cls, SMALL_GRID)
        assert cert.verdict and cert.margin("y_norm_bounded") > 0.49


def _decay(F, endpoint, cls="sdot"):
    (c,) = [c for c in sk.certify_class(F, endpoint, cls, SMALL_GRID).conditions if c["name"] == "decay_at_infinity"]
    return c["margin"], c["witness"]


def test_decay_at_infinity_is_witnessed_where_the_plain_ladder_stops():
    p = random_pair(np.random.default_rng(4), q=2)
    p = sk.StieltjesPair(p.alpha, p.gamma + I2, p.mu)
    F = sk.evaluator(p)
    depth = sk.limit_at_infinity(F, "plain_iy").ladder_depth
    margin, witness = _decay(F, p.alpha)
    assert margin < -1.0 and witness == 1j * 2.0**depth and depth < 20  # not the leftover 2^20
    s = random_s0(np.random.default_rng(4))
    assert _decay(sk.evaluator(s), s.alpha)[0] > 0.0  # a decaying member passes


def test_decay_at_infinity_without_a_limit_is_witnessed_at_the_last_rung():
    growing = sk.Evaluator.of_batch(1, sk.right_ray(0.0), lambda zs: zs[:, None, None] * np.ones((1, 1)))
    assert _decay(growing, 0.0) == (-1.0, 1j * 2.0**sk.limits.K_MAX)  # an opaque ladder runs 2^0 .. 2^K_MAX
    past = sk.S0Measure(0.0, sk.MatrixMeasure(1, sk.right_ray(0.0), [(1e60, np.eye(1))]))  # no rung runs
    assert _decay(sk.evaluator(past), 0.0) == (-1.0, 1j * 2.0**sk.limits.RUNG_CEILING)


# --- one eigen-pass per certificate ---


def _svd_scaled_margins(F, endpoint, kind, grid=sk.GridConfig()):
    """(margin, witness) of each PSD condition, scaled by 1 + sigma_1 from an SVD, one eigvalsh per condition."""
    spec = CLASSES[kind]
    zs = endpoint + _grid_offsets(spec.side, grid)
    V = F.batch_raw(zs)
    im = lambda M: (M - M.conj().swapaxes(1, 2)) / 2j  # noqa: E731
    index = np.arange(zs.size)
    upper, gap = index < grid.n_upper, index >= grid.n_upper + grid.n_lower
    lower = ~upper & ~gap

    def worst(mask, H, M):
        lam = np.linalg.eigvalsh(0.5 * (H + H.conj().swapaxes(1, 2)))[:, 0]
        margins = lam / (1.0 + np.linalg.svd(M, compute_uv=False)[:, 0])
        i = int(np.argmin(margins))
        return float(margins[i]), complex(zs[mask][i])

    out = {"herglotz_upper": worst(upper, im(V[upper]), V[upper])}
    out["herglotz_lower_conj"] = worst(lower, -im(V[lower]), V[lower])
    if spec.gap:
        out["psd_on_gap" if spec.gap > 0 else "npsd_on_gap"] = worst(gap, spec.gap * V[gap], V[gap])
    if spec.half_plane:
        half = gap | (spec.sign * (zs.real - endpoint) < 0)
        out["re_psd_left" if spec.sign > 0 else "re_npsd_right"] = worst(half, spec.gap * V[half], V[half])
    if spec.mulz:
        P = (spec.sign * (zs[upper] - endpoint))[:, None, None] * V[upper]
        out["herglotz_upper_mulz"] = worst(upper, im(P), P)
    return out


def _criterion_01_draws():
    rng = np.random.default_rng(101)
    for kind, make in RANDOM_KINDS.items():  # criterion 01's order
        for _ in range(50):
            r = make(rng)
            yield sk.evaluator(r), endpoint_side(r)[0], KINDS[kind].default_class


def _draws_up_to_q8():
    """Each kind at q = 1 .. 8, rank-deficient weights, half of them with an atom 1e6 to 1e10 out; own and mirror claims."""
    rng = np.random.default_rng(18)
    for q in range(1, 9):
        for kind, make in RANDOM_KINDS.items():
            rank = lambda: int(rng.integers(0, q + 1))  # noqa: E731
            r = make(rng, q=q, **({"ranks": (rank(), rank(), rank())} if "inf" in kind else {"weight_rank": rank()}))
            if rng.integers(0, 2):
                r = with_far_atom(rng, r, rng.uniform(6.0, 10.0), rank())
            own = KINDS[kind].default_class
            for cls in (own, ("t" if own[0] == "s" else "s") + own[1:]):  # and the mirror class
                yield sk.evaluator(r), endpoint_side(r)[0], cls


def _criterion_10_draws():
    """Criterion 10's negative controls: a negative eigenvalue in gamma, an atom across the endpoint."""
    rng = np.random.default_rng(110)
    for _ in range(5):
        p = random_pair(rng, q=2)
        F = sk.evaluator(p)
        dent = (np.linalg.norm(p.gamma, 2) + 0.5) * np.outer([1.0, 0.0], [1.0, 0.0])
        yield sk.Evaluator(2, sk.right_ray(p.alpha), lambda z, F=F, dent=dent: F.fn(z) - dent), p.alpha, "s"
        t_bad = p.alpha - rng.uniform(0.25, 0.55)
        W_bad = (1.0 + t_bad - p.alpha) * (psd(rng, 2) + 2.0 * I2)
        yield sk.Evaluator(2, sk.right_ray(p.alpha), lambda z, F=F, t=t_bad, W=W_bad: F.fn(z) + W / (t - z)), p.alpha, "s"


def _via_pair_draws():
    rng = np.random.default_rng(17)
    for q in range(1, 9):
        for r in (random_pair(rng, q=q), random_tpair(rng, q=q)):
            for cls in ("s_via_pair", "t_via_pair"):
                yield sk.evaluator(r), endpoint_side(r)[0], cls


@pytest.mark.parametrize("draws", [_criterion_01_draws, _draws_up_to_q8, _criterion_10_draws, _via_pair_draws])
def test_margins_match_the_svd_scale(draws):
    """Verdicts and witnesses equal those of an SVD-based scale, and every margin agrees to 1e-14 relative."""
    for F, endpoint, cls in draws():
        cert = sk.certify_class(F, endpoint, cls)
        ref = _svd_scaled_margins(F, endpoint, cls)
        got = {c["name"]: (c["margin"], c["witness"]) for c in cert.conditions}
        assert set(ref) <= set(got)
        for name, (margin, witness) in ref.items():
            assert got[name][1] == witness, (cls, name)
            assert abs(got[name][0] - margin) <= 1e-14 * abs(margin), (cls, name, got[name][0], margin)
        assert cert.verdict == all(ref.get(name, value)[0] >= -TOL_CERT for name, value in got.items())
        assert not (cert.verdict and draws is _criterion_10_draws)


@pytest.fixture
def linalg_calls(monkeypatch):
    """Calls of np.linalg.svd and eigvalsh, numpy's own included (np.linalg.norm(M, 2) runs an SVD)."""
    calls = collections.Counter()
    impl = getattr(np.linalg, "_linalg", None) or np.linalg.linalg  # where numpy looks its functions up
    for name in ("svd", "eigvalsh"):
        real = getattr(np.linalg, name)

        def spy(*args, name=name, real=real, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        for module in (np.linalg, impl):
            monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("q", [3, 4, 8])  # unscreened, then screened
@pytest.mark.parametrize("cls", list(CLASSES))
def test_a_certificate_is_one_eigvalsh_and_no_svd(linalg_calls, cls, q):
    for r in (random_pair(np.random.default_rng(4), q=q), random_tpair(np.random.default_rng(4), q=q)):
        F = sk.evaluator(r)
        linalg_calls.clear()
        sk.certify_class(F, endpoint_side(r)[0], cls)
        assert linalg_calls == {"eigvalsh": 1}


def test_an_s_certificate_at_q8_hands_eigvalsh_under_half_its_matrices(monkeypatch):
    """The screen keeps 160 of the 388 matrices: unscreened, the 160 Grams and 228 block matrices."""
    r = random_pair(np.random.default_rng(8), q=8, n_atoms=500)
    F, sizes, real = sk.evaluator(r), [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda H: sizes.append(len(H)) or real(H))
    sk.certify_class(F, r.alpha, "s")
    monkeypatch.setattr(classifier, "_SCREEN_MIN_Q", 2**62)
    sk.certify_class(F, r.alpha, "s")
    assert sizes == [160, 388]


@pytest.mark.parametrize("q", [1, 2, 3, 4, 8])
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(list(RANDOM_KINDS)))
@settings(max_examples=20, deadline=None)
def test_screened_certificates_are_the_unscreened_bytes(q, seed, kind):
    """Every class, the other side's and the mulz ones included, on members with and without a far rank-one atom."""
    rng = np.random.default_rng(seed)
    r = RANDOM_KINDS[kind](rng, q=q, n_atoms=int(rng.integers(1, 40)))
    if rng.integers(2):
        r = with_far_atom(rng, r, rng.uniform(1.0, 10.0), weight_rank=1)
    F, endpoint = sk.evaluator(r), endpoint_side(r)[0]
    for cls in CLASSES:
        screened, unscreened = screened_and_unscreened(F, endpoint, cls)
        assert screened == unscreened, cls


@pytest.mark.parametrize("cls", list(CLASSES))
def test_screened_zero_function_ties_at_its_first_grid_points(cls):
    """Every PSD margin of the zero function is 0 at every point: the screen keeps them all, witness the first."""
    spec = CLASSES[cls]
    ray = sk.right_ray(0.0) if spec.side == "right" else sk.left_ray(0.0)
    zero = sk.Evaluator(4, ray, lambda z: np.zeros((4, 4), dtype=complex))
    screened, unscreened = screened_and_unscreened(zero, 0.0, cls, SMALL_GRID)
    assert screened == unscreened
    zs = _grid_offsets(spec.side, SMALL_GRID)
    index = np.arange(zs.size)
    upper, gap = index < SMALL_GRID.n_upper, index >= SMALL_GRID.n_upper + SMALL_GRID.n_lower
    first = {"herglotz_upper": upper, "herglotz_upper_mulz": upper, "herglotz_lower_conj": ~upper & ~gap}
    first.update({"psd_on_gap": gap, "npsd_on_gap": gap})
    first.update({"re_psd_left": gap | (zs.real < 0), "re_npsd_right": gap | (zs.real > 0)})
    psd_conditions = [c for c in json.loads(screened)["conditions"] if c["name"] in first]
    assert len(psd_conditions) >= 2
    for c in psd_conditions:
        assert c["margin"] == 0.0 and complex(*c["witness_z"]) == zs[first[c["name"]]][0], c


def test_the_screen_keeps_a_point_whose_bounds_overflow():
    """A row sum past the largest float makes a lower bound -inf, and c ||V|| past it too NaN: the point stays.

    Point 2's margin 2.5 lies above point 0's 1 and is dropped while the bounds are finite or -inf; a NaN
    upper bound (inf / inf) keeps every point.
    """
    eye, off = np.eye(4), np.ones((4, 4)) - np.eye(4)
    H = np.stack([2.0 * eye, 3.0 * eye + 1e308 * off, 5.0 * eye]).astype(complex)
    points = np.ones(3, dtype=bool)
    for V, c, want in [
        (np.stack([eye, eye, eye]), 1.0, [True, True, False]),
        (np.stack([eye, 1e300 * eye, eye]), np.array([1.0, 1e10, 1.0]), [True, True, True]),
    ]:
        need, ((kept, H_kept, c_kept, _),) = classifier._screen(V.astype(complex), [(points, H, c, (("m", points),))])
        assert need.tolist() == kept.tolist() == want
        assert np.array_equal(H_kept, H[kept]) and np.array_equal(c_kept, c if np.isscalar(c) else c[kept])


def test_the_screen_reads_values_gated_finite(monkeypatch):
    """sampled_values raises on a non-finite value before the screen runs: no NaN margin can be screened out."""
    seen, real = [], classifier._screen
    monkeypatch.setattr(classifier, "_screen", lambda V, blocks: seen.append(np.isfinite(V).all()) or real(V, blocks))
    r = random_pair(np.random.default_rng(5), q=4)
    F = sk.evaluator(r)
    sk.certify_class(F, r.alpha, "s")
    assert seen == [True]
    far = lambda zs: np.where(np.abs(zs)[:, None, None] > 100.0, np.inf, F.batch_raw(zs))  # noqa: E731
    with pytest.raises(sk.EvaluationFailed, match="non-finite"):
        sk.certify_class(sk.Evaluator.of_batch(4, F.excluded, far), r.alpha, "s")
    assert seen == [True]


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


def _holomorphic(cert):
    return next(c for c in cert.conditions if c["name"] == "holomorphic")


@pytest.mark.parametrize("opaque", [False, True])
@pytest.mark.parametrize("shift", [0.5, 1e4])
def test_node_in_the_gap_fails_holomorphy_with_the_node_as_witness(shift, opaque):
    # The pair's one node lies at 1.22; claimed past it, it is a pole in the gap.
    # At shift 1e4 no grid point comes near it: the exact check sees it, and so
    # does the fit of the opaque wrapper, whose Cauchy circle then locates it.
    p = random_pair(np.random.default_rng(5), q=2)
    (t,) = p.mu.nodes
    endpoint = p.alpha + shift
    F = sk.evaluator(p)
    depth = (endpoint - t) / (1.0 + abs(endpoint))
    if not opaque:
        cert = sk.certify_class(F, endpoint, "s")
        assert not cert.verdict
        assert _holomorphic(cert) == {"name": "holomorphic", "margin": -depth, "witness": complex(t)}
        return
    cert = sk.certify_class(sk.Evaluator(F.q, F.excluded, F.fn), endpoint, "s")
    hol = _holomorphic(cert)
    assert not cert.verdict
    assert abs(hol["witness"] - t) <= 1e-9 * abs(t)
    assert hol["margin"] == pytest.approx(-depth, rel=1e-9)


@pytest.mark.parametrize("make, claim, deepest", [(random_pair, "t", -1), (random_tpair, "s", 0)])
def test_claim_for_the_other_side_fails_holomorphy_at_the_deepest_node(make, claim, deepest):
    r = make(np.random.default_rng(9), q=2, n_atoms=3)
    endpoint, _ = endpoint_side(r)
    cert = sk.certify_class(sk.evaluator(r), endpoint, claim)
    hol = _holomorphic(cert)
    assert not cert.verdict and hol["margin"] < -TOL_CERT
    assert hol["witness"] == complex(r.mu.nodes[deepest])


def _batches(seen, F):
    return [n for G, n in seen if G is F]


def _grid_then_circles(batches):
    """The grid in one batch, then at most one more: every Cauchy circle of the candidate poles."""
    return batches[0] == N_GRID and len(batches) <= 2 and all(n % classifier._CIRCLE.size == 0 for n in batches[1:])


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("kind", list(KINDS))
def test_opaque_wrapper_is_fitted_to_the_same_verdict(points_seen, kind, q):
    r = random_kind(kind, np.random.default_rng(q), q=q)
    endpoint, _ = endpoint_side(r)
    cls = KINDS[kind].default_class
    F = sk.evaluator(r)
    opaque = sk.Evaluator(F.q, F.excluded, F.fn)
    exact, sampled = (sk.certify_class(G, endpoint, cls) for G in (F, opaque))
    assert exact.verdict and sampled.verdict
    assert exact.margin("holomorphic") == TOL_FIT > sampled.margin("holomorphic")
    atomic, fitted = _batches(points_seen, F), _batches(points_seen, opaque)
    circles = fitted[1 : len(fitted) - len(atomic) + 1]
    assert fitted == atomic[:1] + circles + atomic[1:]  # the grid, the circles if any, then the same ladder
    assert _grid_then_circles(fitted[:1] + circles)
    assert not circles or cls in ("sinf", "tinf")  # a fit of linear growth leaves far poles, which no circle confirms


def test_copies_and_maps_carry_no_nodes(points_seen):
    p = random_pair(np.random.default_rng(5), q=2)
    F = sk.evaluator(p)
    assert F._kernel is not None
    copies = (sk.Evaluator.of_batch(F.q, F.excluded, F.batch_fn), dataclasses.replace(F, fn=F.fn))
    for G in copies:
        assert G._kernel is None
        cert = sk.certify_class(G, p.alpha, "s")
        assert cert.verdict and cert.margin("holomorphic") < TOL_FIT
        assert _grid_then_circles(_batches(points_seen, G))
    G = sk.pinv_map(F, p.alpha)  # the map of a bare Evaluator; a representation's is atomic
    assert G._kernel is None
    sk.certify_class(G, p.alpha, "s")
    assert N_GRID in _batches(points_seen, G)


def test_the_circles_are_one_batch(points_seen):
    """The grid in one batch, then the circle of every candidate pole in one more; a member reads none here."""
    p = random_pair(np.random.default_rng(5), q=2)
    F = sk.evaluator(p)
    opaque = sk.Evaluator(F.q, F.excluded, F.fn)
    assert sk.certify_class(opaque, p.alpha, "s").verdict
    assert _batches(points_seen, opaque) == [N_GRID]
    assert not sk.certify_class(opaque, p.alpha + 0.5, "s").verdict
    assert _batches(points_seen, opaque)[1:] == [N_GRID, classifier._CIRCLE.size]


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


def test_null_domination_refuses_an_a_of_the_wrong_width():
    p = random_pair(np.random.default_rng(3), q=2)
    with pytest.raises(sk.DimensionMismatch, match="q = 2 columns"):  # was an untyped ValueError
        sk.null_domination(p, np.eye(3))


def test_null_domination_refuses_a_non_finite_a():
    p = random_pair(np.random.default_rng(3), q=2)
    with pytest.raises(sk.StieltjesKitError, match="non-finite"):
        sk.null_domination(p, np.array([[np.nan, 0.0], [0.0, 1.0]]))
