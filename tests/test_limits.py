import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stieltjeskit as sk

from stieltjeskit.representations import endpoint_side

from genutil import psd, random_pair, random_s0, random_sinf, random_t0, random_tinf, random_tpair

I2 = np.eye(2)


def delta_pair(alpha, gamma, t, W):
    return sk.StieltjesPair(alpha, gamma, sk.MatrixMeasure(gamma.shape[0], sk.right_ray(alpha), [(t, W)]))


def test_constant_function_converges_at_depth_one():
    gamma = psd(np.random.default_rng(0), 2)
    p = sk.StieltjesPair(0.0, gamma, sk.MatrixMeasure(2, sk.right_ray(0.0), []))
    est = sk.limit_at_infinity(sk.evaluator(p), "plain_iy")
    assert est.ladder_depth == 1
    np.testing.assert_array_equal(est.value, gamma)
    assert est.error_bound == 0.0


def test_one_atom_pair_plain_limit_recovers_constant():
    rng = np.random.default_rng(1)
    A, B = psd(rng, 2), psd(rng, 2)
    p = delta_pair(0.0, A, 0.0, B)
    est = sk.limit_at_infinity(sk.evaluator(p), "plain_iy")
    np.testing.assert_allclose(est.value, A, atol=1e-8)


def test_resolvent_y_scaled_limit_recovers_mass():
    B = psd(np.random.default_rng(2), 2)
    s = sk.S0Measure(0.5, sk.MatrixMeasure(2, sk.right_ray(0.5), [(0.5, B)]))
    est = sk.limit_at_infinity(sk.evaluator(s), "y_scaled")
    np.testing.assert_allclose(est.value, B, atol=1e-8)


def test_radial_limit_matches_vertical():
    rng = np.random.default_rng(3)
    p = random_pair(rng, q=2, alpha=-0.5)
    F = sk.evaluator(p)
    v = sk.limit_at_infinity(F, "plain_iy")
    r = sk.limit_at_infinity(F, "radial", alpha=p.alpha)
    gap = np.linalg.norm(v.value - r.value)
    assert gap <= 2 * (v.error_bound + r.error_bound) + 1e-9


def test_ladder_start_invariance():
    rng = np.random.default_rng(4)
    p = random_pair(rng, q=3)
    F = sk.evaluator(p)
    e1 = sk.limit_at_infinity(F, "plain_iy")  # starts past the nodes
    e2 = sk.limit_at_infinity(sk.Evaluator(F.q, F.excluded, F.fn), "plain_iy")  # opaque: starts at y = 1
    assert 2.0 ** (e1.ladder_depth - len(e1.increments)) > np.abs(p.mu.nodes).max()
    assert np.linalg.norm(e1.value - e2.value) <= 2 * (e1.error_bound + e2.error_bound) + 1e-12


def test_radial_phi_validated():
    p = random_pair(np.random.default_rng(5))
    with pytest.raises(ValueError):
        sk.limit_at_infinity(sk.evaluator(p), "radial", phi=0.1)


def test_no_convergence_for_growing_function():
    F = sk.Evaluator(1, None, lambda z: np.sqrt(abs(z)) * np.eye(1))
    with pytest.raises(sk.NoConvergence) as exc:
        sk.limit_at_infinity(F, "plain_iy")
    assert exc.value.last_estimates is not None


def test_left_ray_gamma_is_the_negated_plain_limit_and_mass_the_scaled_one():
    rng = np.random.default_rng(6)
    t = random_tpair(rng, q=2)
    est = sk.limit_at_infinity(sk.evaluator(t), "plain_iy")
    np.testing.assert_allclose(-est.value, t.gamma, atol=1e-7)
    t0 = random_t0(rng, q=2)
    est = sk.limit_at_infinity(sk.evaluator(t0), "y_scaled")
    np.testing.assert_allclose(est.value, sk.total_mass(t0.sigma), atol=1e-7)


# --- extract_params ---


def test_extract_constant_class_s():
    gamma = psd(np.random.default_rng(7), 2)
    p = sk.StieltjesPair(0.0, gamma, sk.MatrixMeasure(2, sk.right_ray(0.0), []))
    rec = sk.extract_params(sk.evaluator(p), 0.0, "s")
    np.testing.assert_allclose(rec["gamma"].value, gamma, atol=1e-8)


def test_extract_mass_class_s0():
    B = psd(np.random.default_rng(8), 2)
    p = delta_pair(0.0, np.zeros((2, 2)), 0.0, B)
    rec = sk.extract_params(sk.evaluator(p), 0.0, "s0")
    np.testing.assert_allclose(rec["mass"].value, B, atol=1e-8)


def test_extract_rank_deficient_constant():
    p = delta_pair(0.0, np.diag([1.0, 0.0]), 1.0, I2)
    rec = sk.extract_params(sk.evaluator(p), 0.0, "s")
    np.testing.assert_allclose(rec["gamma"].value, np.diag([1.0, 0.0]), atol=1e-8)


def test_class_mismatch_raised():
    gamma = np.diag([1.0, 2.0])
    p = sk.StieltjesPair(0.0, gamma, sk.MatrixMeasure(2, sk.right_ray(0.0), []))
    with pytest.raises(sk.ClassMismatch):
        sk.extract_params(sk.evaluator(p), 0.0, "sdot")
    with pytest.raises(sk.ClassMismatch):
        sk.extract_params(sk.evaluator(p), 0.0, "s0")


def test_extract_t_side_members_pass():
    rng = np.random.default_rng(30)
    for _ in range(10):
        t = random_tpair(rng)
        rec = sk.extract_params(sk.evaluator(t), t.beta, "t")
        np.testing.assert_allclose(rec["gamma"].value, t.gamma, atol=1e-7)
        np.testing.assert_allclose(rec["gamma_radial"].value, t.gamma, atol=1e-7)
        t0 = random_t0(rng)
        F = sk.evaluator(t0)
        assert np.linalg.norm(sk.extract_params(F, t0.beta, "tdot")["gamma"].value) <= 1e-7
        rec = sk.extract_params(F, t0.beta, "t0")
        np.testing.assert_allclose(rec["mass"].value, sk.total_mass(t0.sigma), atol=1e-7)


def test_extract_t_side_mismatches_raise():
    t = random_tpair(np.random.default_rng(31), q=2)
    t = sk.TPair(t.beta, t.gamma + I2, t.mu)  # definitely nonzero gamma
    for claimed in ("tdot", "t0"):
        with pytest.raises(sk.ClassMismatch):
            sk.extract_params(sk.evaluator(t), t.beta, claimed)


def test_claim_for_the_other_side_is_a_mismatch_before_any_ladder():
    rng = np.random.default_rng(34)
    for r, claims in ((random_pair(rng, q=2), ("t", "tdot", "t0")), (random_tpair(rng, q=2), ("s", "sdot", "s0"))):
        F = sk.evaluator(r)
        calls = []
        spy = sk.Evaluator(F.q, F.excluded, F.fn, lambda zs: calls.append(zs) or F.batch_raw(zs))
        for claimed in claims:
            with pytest.raises(sk.ClassMismatch, match="ray"):
                sk.extract_params(spy, 0.0, claimed)
        assert not calls


@pytest.mark.parametrize("make, claims", [(random_sinf, ("s", "s0", "sdot")), (random_tinf, ("t", "t0", "tdot"))])
def test_diverging_plain_limit_is_a_mismatch(make, claims):
    # E != 0: F grows like (z - alpha) E, so no claimed class's plain limit exists.
    r = make(np.random.default_rng(3), q=2)
    endpoint, _ = endpoint_side(r)
    for claimed in claims:
        with pytest.raises(sk.ClassMismatch, match="diverges") as exc:
            sk.extract_params(sk.evaluator(r), endpoint, claimed)
        assert isinstance(exc.value.__cause__, sk.NoConvergence)


def test_mirror_radial_check_rejects_a_gap_limit_off_gamma():
    # -A along iy, but -A - I along the real gap right of beta = 0.
    A = psd(np.random.default_rng(32), 2)
    F = sk.Evaluator(2, sk.left_ray(0.0), lambda z: -A - (z.real / abs(z)) * I2)
    np.testing.assert_allclose(-sk.limit_at_infinity(F, "plain_iy").value, A, atol=1e-12)
    with pytest.raises(sk.ClassMismatch, match="radial"):
        sk.extract_params(F, 0.0, "t")


def test_radial_sector_follows_the_excluded_ray():
    t = random_tpair(np.random.default_rng(33), q=2)
    F = sk.evaluator(t)
    for phi in (math.pi, 0.6 * math.pi, -0.5 * math.pi):
        with pytest.raises(ValueError, match="-pi/2, pi/2"):
            sk.limit_at_infinity(F, "radial", alpha=t.beta, phi=phi)
    est = sk.limit_at_infinity(F, "radial", alpha=t.beta, phi=0.0)
    np.testing.assert_allclose(-est.value, t.gamma, atol=1e-7)


def test_limit_estimate_equality_is_exact():
    est = sk.limit_at_infinity(sk.evaluator(random_pair(np.random.default_rng(34), q=2)), "plain_iy")
    same = sk.LimitEstimate(est.value.copy(), est.error_bound, est.ladder_depth, est.increments)
    assert est == same and not est != same
    assert est != sk.LimitEstimate(est.value + 1e-15, est.error_bound, est.ladder_depth, est.increments)
    assert est != sk.LimitEstimate(est.value, est.error_bound, est.ladder_depth + 1, est.increments)
    assert est != "not an estimate"


@given(seed=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_plain_limit_matches_stored_gamma(seed):
    rng = np.random.default_rng(seed)
    p = random_pair(rng)
    est = sk.limit_at_infinity(sk.evaluator(p), "plain_iy")
    assert np.linalg.norm(est.value - p.gamma) <= 1e-7 * (1 + np.linalg.norm(p.gamma))


@given(seed=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_scaled_limit_matches_total_mass(seed):
    rng = np.random.default_rng(seed)
    s = random_s0(rng)
    est = sk.limit_at_infinity(sk.evaluator(s), "y_scaled")
    mass = sk.total_mass(s.sigma)
    assert np.linalg.norm(est.value - mass) <= 1e-7 * (1 + np.linalg.norm(mass))


# --- the blocked ladder against the rung-by-rung one ---


def first_rung(F, mode="plain_iy", alpha=0.0):
    """The least power of two past every node of F, from alpha in radial mode (1 if F is opaque), by doubling."""
    center = alpha if mode == "radial" else 0.0
    reach = max((abs(t - center) for t in ([] if F._kernel is None else F._kernel[0].tolist())), default=0.0)
    y = 1.0
    while y <= reach:
        y *= 2.0
    return y


def reference_ladder(F, mode="plain_iy", alpha=0.0, phi=math.pi, y0=1.0, k_max=None):
    """The ladder one rung at a time from y0 = 2^j: one read F(z) and one Neville row per rung; depth j + k.

    A non-finite diagonal raises NoConvergence at its rung, without last_estimates.
    """
    k_max = sk.limits.K_MAX if k_max is None else k_max
    rows, prev_diag = [], None
    for k in range(k_max + 1):
        y = y0 * 2.0**k
        if mode == "radial":
            sample = F(alpha + y * complex(math.cos(phi), math.sin(phi)))
        elif mode == "plain_iy":
            sample = F(1j * y)
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                sample = -1j * y * F(1j * y)
        row = [sample]
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(1, k + 1):
                factor = 2.0**j
                row.append((factor * row[j - 1] - rows[k - 1][j - 1]) / (factor - 1.0))
        rows.append(row)
        diag = row[-1]
        if not np.isfinite(diag).all():
            raise sk.NoConvergence("a non-finite diagonal", last_rung=y)
        if prev_diag is not None:
            inc = float(np.linalg.norm(diag - prev_diag))
            if inc < sk.limits.EPS_LIM * (1.0 + float(np.linalg.norm(diag))):
                return sk.LimitEstimate(diag, inc, round(math.log2(y0)) + k)
        prev_diag = diag
    raise sk.NoConvergence("k_max reached", last_estimates=(rows[-2][-1], rows[-1][-1]), last_rung=y)


def _bits(A):
    return np.asarray(A).shape, np.asarray(A, dtype=complex).tobytes()


def outcome(ladder, F, **kw):
    """What a ladder returns or raises, with the arrays as exact bit patterns, and the warnings it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            est = ladder(F, **kw)
            result = ("limit", _bits(est.value), est.error_bound, est.ladder_depth)
        except sk.NoConvergence as exc:
            result = ("no_convergence", exc.last_rung, *map(_bits, exc.last_estimates or ()))
        except Exception as exc:  # noqa: BLE001 - compared by type and message
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def _far_atoms(rng, q, side):
    """An atomic function of either side with 1-4 atoms at distances 1e-8..1e10 from its endpoint."""
    e = float(rng.uniform(-2.0, 2.0))
    sign = 1.0 if side == "right" else -1.0
    atoms = [(e + sign * 10.0 ** rng.uniform(-8.0, 10.0), psd(rng, q)) for _ in range(rng.integers(1, 5))]
    ray = sk.right_ray(e) if side == "right" else sk.left_ray(e)
    mu = sk.MatrixMeasure(q, ray, atoms)
    if rng.integers(0, 2):
        return sk.S0Measure(e, mu) if side == "right" else sk.T0Measure(e, mu)
    return sk.StieltjesPair(e, psd(rng, q), mu) if side == "right" else sk.TPair(e, psd(rng, q), mu)


def _failing(fn, q, center, y_fail, how):
    """fn, failing in the way ``how`` at every point farther than y_fail from center."""

    def wrapped(z):
        if abs(z - center) <= y_fail:
            return fn(z)
        if how == "raise":
            raise ValueError(f"no value at z = {z}")
        if how == "warn":
            warnings.warn(f"suspect value at z = {z}", RuntimeWarning)
            return fn(z)
        return np.full((q, q), np.inf if how == "inf" else np.nan, dtype=complex)

    return wrapped


def _opaque(q, excluded, fn, nodes):
    """An evaluator of fn that loops over points, so its ladder is the reference's bit for bit.

    With ``nodes`` its ladder starts past them, as an atomic evaluator's does; with no constant, not past a horizon.
    """
    F = sk.Evaluator(q, excluded, fn)
    object.__setattr__(F, "_kernel", None if nodes is None else (nodes, None, None, None))
    return F


@given(
    seed=st.integers(0, 10**6),
    mode=st.sampled_from(sk.limits.MODES),
    with_nodes=st.booleans(),
    k_max=st.sampled_from([3, 11, sk.limits.K_MAX]),
    block=st.sampled_from([1, 5, 16, 49]),
    family=st.sampled_from(["atoms", "growing", "fails_past_stop", "fails_at_reached"]),
    how=st.sampled_from(["raise", "inf", "nan", "warn"]),
)
@settings(max_examples=300, deadline=None)
def test_blocked_ladder_matches_rung_by_rung_reference(seed, mode, with_nodes, k_max, block, family, how):
    """On evaluators whose batch is the per-point loop the outcome is the reference's bit for bit; no warning escapes.

    Short ladders patch limits.K_MAX, and blocks of 1 to 49 rungs limits.LADDER_BLOCK (at 1 a block boundary lies
    before every rung, failing ones included); with_nodes starts the ladder past the nodes of the function drawn.
    A rung that raises, warns or gives inf or nan fails the gate: EvaluationFailed there, unless the ladder stopped.
    """
    rng = np.random.default_rng(seed)
    q = int(rng.integers(1, 4))
    side = "left" if mode.startswith("neg") or rng.integers(0, 2) else "right"
    r = _far_atoms(rng, q, side)
    e, _ = endpoint_side(r)
    kw = {"mode": mode}
    if mode == "radial":
        # Along the real gap (pi off a right ray, 0 off a left one) or up to 0.45 pi off it.
        phi = float(rng.choice([math.pi, rng.uniform(0.55, 1.45) * math.pi]))
        kw.update(alpha=e, phi=phi if side == "right" else phi - math.pi)
    atomic = sk.evaluator(r)
    base, nodes = atomic.fn, (atomic._kernel[0] if with_nodes else None)
    center = kw.get("alpha", 0.0)
    y0 = first_rung(_opaque(q, atomic.excluded, base, nodes), mode, center)
    ref_kw = {**kw, "y0": y0, "k_max": k_max}
    j = round(math.log2(y0))
    if family == "growing":
        M = psd(rng, q) + np.eye(q)
        power = float(rng.choice([0.5, 1.0]))
        fn = lambda z: (z - center) ** power * M  # noqa: E731
    elif family == "atoms":
        fn = base
    else:
        ref = outcome(reference_ladder, _opaque(q, atomic.excluded, base, nodes), **ref_kw)
        depth = ref[0][3] if ref[0][0] == "limit" else j + k_max
        rung = depth + 1 if family == "fails_past_stop" else int(rng.integers(j, depth + 1))
        fn = _failing(base, q, center, 2.0 ** (rung - 0.5), how)
    F = _opaque(q, atomic.excluded, fn, nodes)
    expected = outcome(reference_ladder, F, **ref_kw)
    with mock.patch.object(sk.limits, "K_MAX", k_max), mock.patch.object(sk.limits, "LADDER_BLOCK", block):
        assert outcome(sk.limit_at_infinity, F, **kw) == expected
    if family == "fails_past_stop":
        assert expected[0][0] in ("limit", "no_convergence") or expected[0][0] is sk.PoleProximity
    elif family == "fails_at_reached":
        assert expected[0][0] is sk.EvaluationFailed
    assert not expected[1]


@pytest.mark.parametrize(
    "make, mode",
    [
        (lambda rng: sk.evaluator(random_pair(rng)), "plain_iy"),
        (lambda rng: sk.evaluator(random_s0(rng)), "y_scaled"),
        (lambda rng: sk.evaluator(random_sinf(rng, alpha=0.0)), "radial"),
        # Left-ray cases: the id names the reading, gamma as the negated plain_iy limit
        # and the mass as the y_scaled limit.
        pytest.param(lambda rng: sk.evaluator(random_tpair(rng)), "plain_iy", id="<lambda>-neg_plain0"),
        pytest.param(lambda rng: sk.evaluator(random_t0(rng)), "y_scaled", id="<lambda>-neg_y_scaled"),
        pytest.param(lambda rng: sk.evaluator(random_tinf(rng)), "plain_iy", id="<lambda>-neg_plain1"),
        (lambda rng: sk.pinv_map(random_s0(rng, q=2)), "plain_iy"),
        (lambda rng: sk.pinv_map(random_s0(rng, q=2)), "y_scaled"),  # grows: no convergence
        (lambda rng: sk.pinv_map(random_pair(rng, q=2)), "plain_iy"),
        pytest.param(lambda rng: sk.neg_pinv_map(random_tinf(rng, q=2)), "plain_iy", id="<lambda>-neg_plain2"),
    ],
)
def test_blocked_ladder_agrees_with_reference_on_batched_evaluators(make, mode):
    """A batch of many points may differ from a batch of one in the last bits: same depth, value within 1e-12."""
    rng = np.random.default_rng(106)
    for _ in range(10):
        F = make(rng)
        try:
            expected = reference_ladder(F, mode, y0=first_rung(F, mode))
        except sk.NoConvergence as exc:
            with pytest.raises(sk.NoConvergence) as got:
                sk.limit_at_infinity(F, mode)
            for a, b in zip(got.value.last_estimates, exc.last_estimates):
                assert np.linalg.norm(a - b) <= 1e-12 * (1.0 + np.linalg.norm(b))
            continue
        est = sk.limit_at_infinity(F, mode)
        assert est.ladder_depth == expected.ladder_depth
        assert np.linalg.norm(est.value - expected.value) <= 1e-12 * (1.0 + np.linalg.norm(expected.value))


def opaque_s0_failing_past(how, radius=100.0):
    """S0Measure(0, atom (1, I)) as an opaque evaluator whose fn raises or warns past |z| = radius."""
    F = sk.evaluator(sk.S0Measure(0.0, sk.MatrixMeasure(1, sk.right_ray(0.0), [(1.0, np.eye(1))])))

    def fn(z):
        if abs(z) > radius:
            if how == "raise":
                raise ValueError(f"no value at z = {z}")
            warnings.warn(f"suspect value at z = {z}", RuntimeWarning)
        return F.fn(z)

    return sk.Evaluator(1, F.excluded, fn)


@pytest.mark.parametrize("how", ["raise", "warn"])
def test_a_rung_that_raises_or_warns_fails_the_ladder_at_its_point(how):
    """Read outside the gate, a warning fn returned at depth 9 after 6 warnings and a raising one a ValueError."""
    G = opaque_s0_failing_past(how)
    reads = {
        "extract_params": lambda: sk.extract_params(G, 0.0, "s0"),
        "plain_iy": lambda: sk.limit_at_infinity(G, "plain_iy"),
        "y_scaled": lambda: sk.limit_at_infinity(G, "y_scaled"),
        "radial": lambda: sk.limit_at_infinity(G, "radial", phi=math.pi),
    }
    for name, read in reads.items():
        with pytest.raises(sk.EvaluationFailed) as exc:
            read()
        want = -128.0 + 128.0 * math.sin(math.pi) * 1j if name == "radial" else 128j
        assert exc.value.witness == want, name
    # Failing from 2^10 on, past the stop at 2^9 but in the same block: the ladder cuts the block there and stops.
    for mode in ("plain_iy", "y_scaled"):
        assert sk.limit_at_infinity(opaque_s0_failing_past(how, radius=2.0**9), mode).ladder_depth == 9


def test_increments_record_the_ladder():
    rng = np.random.default_rng(9)
    for F, mode in [(sk.evaluator(random_pair(rng)), "plain_iy"), (sk.pinv_map(random_s0(rng, q=2)), "plain_iy")]:
        est = sk.limit_at_infinity(F, mode)
        assert 2.0 ** (est.ladder_depth - len(est.increments)) == first_rung(F)  # one per rung past the first
        assert est.increments[-1] == est.error_bound
        assert all(isinstance(inc, float) for inc in est.increments)
    assert sk.LimitEstimate(np.eye(1), 0.0, 1).increments == ()  # positional construction as before


def far_atom(side, t=1e8, W=1e-3):
    """An S0Measure with one atom at t, or its T0Measure mirror at -t."""
    if side == "right":
        return sk.S0Measure(0.0, sk.MatrixMeasure(1, sk.right_ray(0.0), [(t, W * np.eye(1))]))
    return sk.T0Measure(0.0, sk.MatrixMeasure(1, sk.left_ray(0.0), [(-t, W * np.eye(1))]))


@pytest.mark.parametrize("side, claim", [("right", "s0"), ("left", "t0")])
def test_ladder_of_an_atomic_evaluator_passes_its_nodes(side, claim):
    F = sk.evaluator(far_atom(side))
    est = sk.limit_at_infinity(F, "y_scaled")
    assert 2.0**est.ladder_depth > 1e8
    np.testing.assert_allclose(est.value, [[1e-3]], rtol=1e-9)
    np.testing.assert_allclose(sk.extract_params(F, 0.0, claim)["mass"].value, [[1e-3]], rtol=1e-9)
    cert = sk.certify_class(F, 0.0, claim)
    assert cert.verdict and cert.margin("y_norm_bounded") > 0.49
    # The same function, opaque, starts at y = 1: its first two samples differ by 3e-11 and stop it.
    assert sk.limit_at_infinity(sk.Evaluator(F.q, F.excluded, F.fn), "y_scaled").ladder_depth == 1


def test_radial_reach_is_measured_from_alpha():
    a = 1e8
    mu = sk.MatrixMeasure(1, sk.right_ray(a), [(a + 2.0, 1e-3 * np.eye(1))])
    F = sk.evaluator(sk.StieltjesPair(a, np.eye(1), mu))
    assert sk.limit_at_infinity(F, "radial", alpha=a).ladder_depth < 20  # past |t - alpha| = 2
    assert 2.0 ** sk.limit_at_infinity(F, "plain_iy").ladder_depth > a + 2.0  # past |t|


@pytest.mark.parametrize("side, claim, node", [("right", "s0", "1e+70"), ("left", "t0", "-1e+70")])
def test_node_past_the_last_rung_raises_and_is_no_mismatch(side, claim, node):
    # Past the first-rung ceiling 2^RUNG_CEILING, and past 2^(RUNG_CEILING + K_MAX), the last rung any ladder reaches.
    F = sk.evaluator(far_atom(side, t=1e70))
    calls = []
    spy = sk.Evaluator(F.q, F.excluded, F.fn, lambda zs: calls.append(zs) or F.batch_raw(zs))
    object.__setattr__(spy, "_kernel", F._kernel)
    for mode in ("plain_iy", "y_scaled"):
        with pytest.raises(sk.NoConvergence, match=re.escape(f"node {node} lies past the first-rung ceiling")) as info:
            sk.limit_at_infinity(spy, mode)
        assert info.value.last_estimates is None
    with pytest.raises(sk.NoConvergence, match="first-rung ceiling"):  # a member: not a ClassMismatch
        sk.extract_params(spy, 0.0, claim)
    assert not calls
    assert 1e70 > 2.0 ** (sk.limits.RUNG_CEILING + sk.limits.K_MAX)
