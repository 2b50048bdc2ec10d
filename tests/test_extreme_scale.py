"""Extreme scales: members of all eight kinds with atoms far out or next to their endpoint.

Atoms lie 1e-8 to 1e16 from endpoints up to +-1e8, weights and constants
span 16 decades, and the constants may be rank-deficient.  A member must
pass its default class and give back its stored gamma or mass, and a
perturbed copy must fail with a witness.  Members whose weights reach
1e40 against constants of I must give their parameters too.  The explicit
examples are the far-atom and heavy-atom reproducers, the non-members of
``s0`` under a heavy atom and a pair at the endpoint 1e10, in the API and
in the CLI.
"""

import json
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stieltjeskit as sk
from stieltjeskit.classifier import CLASSES, DEFAULT_GRID, TOL_FIT, sample_points
from stieltjeskit.cli import run
from stieltjeskit.matmeasure import EPS_LIM, RUNG_CEILING
from stieltjeskit.representations import KINDS, endpoint_side, measure_of, offset_scale

from genutil import psd, screened_and_unscreened

I1 = np.eye(1)


def _scaled(rng, q, rank):
    return psd(rng, q, rank=rank) * 10.0 ** rng.uniform(-8.0, 8.0)


def _heavy(rng, q, rank):
    return psd(rng, q, rank=rank) * 10.0 ** rng.uniform(0.0, 40.0)


def scaled_member(rng, kind, q=None, weight=_scaled, constant=_scaled):
    """A member of ``kind`` at q <= 4 (drawn if None); kk_pair and nevanlinna convert a pair, as genutil.random_kind does.

    ``weight`` and ``constant`` draw its weights and constants, as ``_scaled(rng, q, rank)`` does.  A Nevanlinna
    triple's endpoint is its lowest node, so its pair keeps an atom at alpha.
    """
    q = int(rng.integers(1, 5)) if q is None else q
    nevanlinna = kind == "nevanlinna"
    base = "stieltjes_pair" if kind in ("kk_pair", "nevanlinna") else kind
    spec = KINDS[base]
    e = float(rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(0.0, 8.0))
    sign = 1.0 if spec.side == "right" else -1.0
    atoms = [(e, weight(rng, q, q))] if nevanlinna else []
    for _ in range(int(rng.integers(1, 6))):
        t = e + sign * 10.0 ** rng.uniform(-8.0, 16.0)
        # An offset below the endpoint's spacing rounds onto it: the next float keeps it off an open ray's endpoint.
        t = t if t != e else float(np.nextafter(e, sign * np.inf))
        atoms.append((t, weight(rng, q, int(rng.integers(1, q + 1)))))
    mu = sk.MatrixMeasure(q, getattr(sk, spec.support)(e), atoms)
    constants = [constant(rng, q, int(rng.integers(0, q + 1))) for _ in spec.fields[1:-1]]
    r = spec.cls(e, *constants, mu)
    if kind == base:
        return r
    kk = sk.convert(r, "kk_pair")
    return kk if kind == "kk_pair" else sk.convert(kk, "nevanlinna")


def stored_limit(r):
    """What extract_params must return for the default class: gamma (that of the source pair), or the mass."""
    if r.KIND in ("s0", "t0"):
        return "mass", sk.total_mass(r.sigma)
    if r.KIND == "kk_pair":
        return "gamma", r.C
    if r.KIND == "nevanlinna":
        return "gamma", r.A - sum((t * W for t, W in r.nu.atoms), np.zeros_like(r.A))
    return "gamma", r.gamma


def dented(F, endpoint, cls):
    """F minus a constant that breaks the gap condition of cls at every gap point of the default grid.

    Twice 1 + the largest ||F|| there, so the scale-free margin stays below -1/3 whatever the scale of F.
    """
    spec = CLASSES[cls]
    gap_points = endpoint - spec.sign * np.logspace(-3.0, 3.0, DEFAULT_GRID.n_gap)
    size = 2.0 * (1.0 + max(float(np.linalg.norm(V, 2)) for V in F.batch_raw(gap_points)))
    D = spec.gap * size * np.diag([1.0] + [0.0] * (F.q - 1))
    return sk.Evaluator.of_batch(F.q, F.excluded, lambda zs: F.batch_raw(zs) - D)


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(list(KINDS)))
@settings(max_examples=300, deadline=None)
@example(seed=1506, kind="nevanlinna")
def test_badly_scaled_members_pass_and_a_dent_fails(seed, kind):
    rng = np.random.default_rng(seed)
    r = scaled_member(rng, kind)
    F, (endpoint, _) = sk.evaluator(r), endpoint_side(r)
    cls = KINDS[r.KIND].default_class
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = sk.certify_class(F, endpoint, cls)
        assert cert.verdict, [c for c in cert.conditions if c["margin"] < -cert.tol_cert]
        if CLASSES[cls].params:
            key, want = stored_limit(r)
            got = sk.extract_params(F, endpoint, cls)[key].value
            assert np.linalg.norm(got - want) <= 1e-8 * (1.0 + np.linalg.norm(want))
        bad = sk.certify_class(dented(F, endpoint, cls), endpoint, cls)
    worst = min(bad.conditions, key=lambda c: c["margin"])
    assert not bad.verdict and worst["margin"] < -1e-6 and isinstance(worst["witness"], complex)


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(list(KINDS)))
@settings(max_examples=100, deadline=None)
def test_badly_scaled_members_wrapped_opaque_pass_holomorphy_and_a_crossed_atom_fails_at_it(seed, kind):
    """The rational fit reads a member's grid values to its stop, and sees an atom moved one grid unit into the gap.

    The Cauchy-Riemann stencil it replaced rejected 199 of 480 such members (seeds 0-59, every kind) as not holomorphic.
    """
    r = scaled_member(np.random.default_rng(seed), kind)
    F, (endpoint, _) = sk.evaluator(r), endpoint_side(r)
    cls = KINDS[r.KIND].default_class
    t = endpoint - CLASSES[cls].sign * offset_scale(endpoint)
    size = 2.0 * (1.0 + max(float(np.linalg.norm(V, 2)) for V in F.batch_raw(np.array([t + 1j, t - 1j]))))
    atom = lambda zs: (size / (t - zs))[:, None, None] * np.eye(F.q)  # noqa: E731
    crossed = sk.Evaluator.of_batch(F.q, F.excluded, lambda zs: F.batch_raw(zs) + atom(zs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        member, bad = (sk.certify_class(G, endpoint, cls) for G in (sk.Evaluator(F.q, F.excluded, F.fn), crossed))
    assert 0.9 * TOL_FIT < member.margin("holomorphic") <= TOL_FIT
    hol = next(c for c in bad.conditions if c["name"] == "holomorphic")
    assert abs(hol["witness"] - t) <= 1e-3 * abs(endpoint - t)
    assert hol["margin"] == pytest.approx(-abs(endpoint - t) / (1.0 + abs(endpoint)), rel=1e-3)


# --- explicit examples, in the API and the CLI ---


def one_atom(kind, t, W=1e-3, constant=1.0):
    """A member of ``kind`` with one atom |t| from the endpoint 0, weight W and constants ``constant``.

    W and ``constant`` are scalars for q = 1, or q x q matrices.  A Nevanlinna triple's endpoint is its
    lowest node: it has a second atom, at 0.
    """
    spec = KINDS["stieltjes_pair" if kind in ("kk_pair", "nevanlinna") else kind]
    side = 1.0 if spec.side == "right" else -1.0
    atoms = [(side * t, W * I1)] + ([(0.0, W * I1)] if kind == "nevanlinna" else [])
    mu = sk.MatrixMeasure(len(W * I1), getattr(sk, spec.support)(0.0), atoms)
    r = spec.cls(0.0, *[constant * I1 for _ in spec.fields[1:-1]], mu)
    if kind in ("kk_pair", "nevanlinna"):
        r = sk.convert(r, "kk_pair")
        return r if kind == "kk_pair" else sk.convert(r, "nevanlinna")
    return r


def cli(tmp_path, capsys, *argv, r):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(sk.repr_to_json(r)))
    code = run([*argv, "--input", str(path)])
    captured = capsys.readouterr()
    return code, json.loads(captured.out or captured.err)


def _value(limit):
    return np.array([[complex(re, im) for re, im in row] for row in limit["value"]])


@pytest.mark.parametrize("t", [1e13, 1e14, 1e15, 1e16])
@pytest.mark.parametrize("kind, key, want", [("stieltjes_pair", "gamma", 1.0), ("s0", "mass", 1e-3),
                                             ("t_pair", "gamma", 1.0), ("t0", "mass", 1e-3)])
def test_an_atom_far_out_is_a_member(tmp_path, capsys, t, kind, key, want):
    """Rejected while the ladder started at y = 1: ClassMismatch for the pair, NoConvergence for the s0."""
    r = one_atom(kind, t)
    cls = KINDS[kind].default_class
    F = sk.evaluator(r)
    assert sk.certify_class(F, 0.0, cls).verdict
    est = sk.extract_params(F, 0.0, cls)[key]
    np.testing.assert_allclose(est.value, [[want]], rtol=1e-9)
    assert est.first_rung > t  # the first rung lies past the atom
    code, report = cli(tmp_path, capsys, "params", r=r)
    assert code == 0 and report["verdict"] == "pass"
    limit = report[key]
    np.testing.assert_allclose(_value(limit), [[want]], rtol=1e-9)
    assert 2.0 ** (limit["ladder_depth"] - len(limit["increments"])) > t
    assert limit["increments"][-1] == limit["error_bound"]


NOT_S0 = {
    # gamma = I under a weight that hides it on the rungs a ladder from y = 1 ran (they passed s0):
    "pair (10, 1e16)": sk.StieltjesPair(0.0, I1, sk.MatrixMeasure(1, sk.right_ray(0.0), [(10.0, 1e16 * I1)])),
    "pair (1e3, 1e14)": sk.StieltjesPair(0.0, I1, sk.MatrixMeasure(1, sk.right_ray(0.0), [(1e3, 1e14 * I1)])),
    "kk (1e4, 1e10)": sk.KKPair(0.0, I1, sk.MatrixMeasure(1, sk.right_ray(0.0), [(1e4, 1e10 * I1)])),
    # its mass (1 + t^2) W hides y C on every rung of its mass ladder, which starts past 1e13
    "kk (1e13, 1)": sk.KKPair(0.0, I1, sk.MatrixMeasure(1, sk.right_ray(0.0), [(1e13, I1)])),
}


@pytest.mark.parametrize("name", list(NOT_S0))
def test_a_constant_under_a_heavy_atom_is_not_s0(tmp_path, capsys, name):
    r = NOT_S0[name]
    cert = sk.certify_class(sk.evaluator(r), 0.0, "s0")
    assert not cert.verdict and cert.margin("y_norm_bounded") < -0.49
    assert sk.certify_class(sk.evaluator(r), 0.0, "s").verdict  # a member of s all the same
    code, report = cli(tmp_path, capsys, "certify", "--kind", "s0", r=r)
    failed = [c for c in report["certificate"]["conditions"] if c["margin"] < -cert.tol_cert]
    assert code == 2 and [c["name"] for c in failed] == ["y_norm_bounded"]


def test_the_heavy_kk_atom_without_its_constant_is_s0():
    assert sk.certify_class(sk.evaluator(one_atom("kk_pair", 1e13, W=1.0, constant=0.0)), 0.0, "s0").verdict


@pytest.mark.parametrize("t", [1e2, 1e4, 1e8])
def test_a_heavy_nevanlinna_triple_gives_its_gamma(tmp_path, capsys, t):
    """A = gamma + sum t nu holds 1e8 here; the ladder ran out of rungs while every sample summed against it."""
    r = one_atom("nevanlinna", t, W=1e8)
    F = sk.evaluator(r)
    assert sk.certify_class(F, 0.0, "s").verdict
    _, want = stored_limit(r)
    np.testing.assert_allclose(sk.extract_params(F, 0.0, "s")["gamma"].value, want, rtol=1e-9)
    code, report = cli(tmp_path, capsys, "params", r=r)
    assert code == 0 and report["verdict"] == "pass"


HEAVY_GAMMA = {  # a member of s, its gamma and the depth of both its ladders
    **{f"pair (1, {W:.0e})": (one_atom("stieltjes_pair", 1.0, W=W), 1.0, depth)
       for W, depth in [(1e10, 20), (1e20, 52), (1e30, 84), (1e40, 118)]},
    "kk (1e12, 1e8)": (sk.KKPair(0.0, I1, sk.MatrixMeasure(1, sk.right_ray(0.0), [(1e12, 1e8 * I1)])), 1.0, 91),
    # Relative to max(1, ||gamma||) the horizon is 4.4e-6: both ladders start at 2^1, past the reach.  Relative to 1
    # it would be 4.4e54 for the scale 1e60, past the ceiling, refusing a member the reach serves.
    **{f"pair gamma {g:.0e}, (1, {g:.0e})": (one_atom("stieltjes_pair", 1.0, W=g, constant=g), g, 9)
       for g in (1e20, 1e60)},
}


@pytest.mark.parametrize("name", list(HEAVY_GAMMA))
def test_a_heavy_atom_gives_its_gamma(tmp_path, capsys, name):
    """The ladders start past the rounding horizon sum |c(t)| ||W|| eps / (EPS_LIM max(1, ||gamma||)).

    Started past the reach alone, the pairs of gamma 1 from W = 1e20 on and the kk pair (samples
    (1 + t^2) W / y = 1e32 / y) ran out of rungs: no increment got under the stop.
    """
    r, gamma, depth = HEAVY_GAMMA[name]
    F = sk.evaluator(r)
    assert sk.certify_class(F, 0.0, "s").verdict
    record = sk.extract_params(F, 0.0, "s")
    for key in ("gamma", "gamma_radial"):
        np.testing.assert_allclose(record[key].value, gamma * I1, rtol=1e-9)
        assert record[key].ladder_depth == depth
    code, report = cli(tmp_path, capsys, "params", r=r)
    assert code == 0 and report["verdict"] == "pass" and report["gamma"]["ladder_depth"] == depth
    np.testing.assert_allclose(_value(report["gamma"]), gamma * I1, rtol=1e-9)


def test_a_rounding_horizon_past_the_ceiling_raises_and_is_no_mismatch(tmp_path, capsys):
    """Weight 1e300: the horizon 4.4e294 lies past 2^RUNG_CEILING.  params answered exit 2, a diverging plain limit."""
    r = one_atom("stieltjes_pair", 1.0, W=1e300)
    F = sk.evaluator(r)
    assert sk.certify_class(F, 0.0, "s").verdict
    for mode in ("plain_iy", "radial"):
        with pytest.raises(sk.NoConvergence, match=r"rounding horizon 4\.44e\+294 lies past the first-rung ceiling") as info:
            sk.limit_at_infinity(F, mode)
        assert info.value.estimate is None and info.value.last_rung == 2.0**RUNG_CEILING
    with pytest.raises(sk.NoConvergence, match="rounding horizon"):
        sk.extract_params(F, 0.0, "s")
    (tmp_path / "input.json").write_text(json.dumps(sk.repr_to_json(r)))
    assert run(["params", "--input", str(tmp_path / "input.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "rounding horizon" in json.loads(captured.err)["error"]


LADDER_KINDS = [kind for kind in KINDS if CLASSES[KINDS[kind].default_class].params]


def _horizon(r):
    """The rounding horizon of r's plain ladder: sum |c(t)| ||W||_F eps / EPS_LIM over max(1, ||constant||)."""
    spec, mu = KINDS[r.KIND], measure_of(r)
    c = spec.numerator(mu.nodes, endpoint_side(r)[0])
    rounding = np.sum(np.abs(c) * np.linalg.norm(mu.weights, axis=(1, 2))) * np.finfo(float).eps
    return rounding / (EPS_LIM * max(1.0, np.linalg.norm(spec.constant(r))))


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(LADDER_KINDS))
@settings(max_examples=300, deadline=None)
def test_heavy_weights_against_unit_constants_give_their_parameters(seed, kind):
    """Every kind whose class has a plain ladder: it starts past the rounding horizon, or names it past the ceiling.

    With the first rung past the reach alone, 170 of 300 such members (seeds 0-299, 50 of each kind) failed:
    145 with a diverging plain limit (ClassMismatch), 25 with NoConvergence at the last rung.  NoConvergence
    comes exactly where the horizon, computed here from r, lies past the ceiling.
    """
    r = scaled_member(np.random.default_rng(seed), kind, weight=_heavy, constant=lambda rng, q, rank: np.eye(q))
    F, (endpoint, _) = sk.evaluator(r), endpoint_side(r)
    cls = KINDS[r.KIND].default_class
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sk.certify_class(F, endpoint, cls).verdict
        if _horizon(r) >= 2.0**RUNG_CEILING:
            with pytest.raises(sk.NoConvergence, match="rounding horizon .* lies past the first-rung ceiling") as info:
                sk.extract_params(F, endpoint, cls)
            assert info.value.estimate is None and info.value.last_rung == 2.0**RUNG_CEILING
            return
        key, want = stored_limit(r)
        got = sk.extract_params(F, endpoint, cls)[key].value
    assert np.linalg.norm(got - want) <= 1e-8 * (1.0 + np.linalg.norm(want))


FAR = 1e10
FAR_PAIRS = {
    "pair": sk.StieltjesPair(FAR, I1, sk.MatrixMeasure(1, sk.right_ray(FAR), [(FAR + 1.0, I1)])),
    "t_pair": sk.TPair(-FAR, I1, sk.MatrixMeasure(1, sk.left_ray(-FAR), [(-FAR - 1.0, I1)])),
}


@pytest.mark.parametrize("name", list(FAR_PAIRS))
def test_a_far_endpoint_keeps_every_point_past_the_pole_guard(tmp_path, capsys, name):
    """Sample points 0.5 to 3 off the ray and a first radial rung at y = 2 lay within EPS_NEAR (1 + |z|) ~ 10 of it.

    eval, report, transform and params raised PoleProximity there, while certify passed.
    """
    r = FAR_PAIRS[name]
    F, (e, side) = sk.evaluator(r), endpoint_side(r)
    cls = KINDS[r.KIND].default_class
    assert sk.certify_class(F, e, cls).verdict
    record = sk.extract_params(F, e, cls)
    for key in ("gamma", "gamma_radial"):
        np.testing.assert_allclose(record[key].value, I1, rtol=0.0, atol=1e-8)
    for G in (F, sk.pinv_map(r), sk.neg_pinv_map(r)):
        assert np.isfinite(G.batch(sample_points(e, side, n=20))).all()  # guarded
    for argv in (("eval",), ("certify",), ("report",), ("transform", "--op", "pinv_map"), ("params",)):
        code, report = cli(tmp_path, capsys, *argv, r=r)
        assert code == 0, report
    np.testing.assert_allclose(_value(report["gamma"]), I1, rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("e", [1.0, 1e8, 3e8, 1e9, 1e13, 1e100, 1e300])
@pytest.mark.parametrize("side", ["right", "left"])
def test_sample_points_pass_the_pole_guard_at_any_endpoint(e, side):
    e = e if side == "right" else -e
    ray = sk.right_ray(e) if side == "right" else sk.left_ray(e)
    guarded = sk.Evaluator.of_batch(1, ray, lambda zs: np.zeros((zs.size, 1, 1)))
    for seed in range(5):
        guarded.batch(sample_points(e, side, n=50, seed=seed))  # raises PoleProximity at a point too near


@pytest.mark.parametrize("t", [1e16, 1e54, 1e55, 1e100, 1e150])
@pytest.mark.parametrize("kind", list(KINDS))
def test_far_nodes_warn_nowhere_and_past_the_ceiling_are_no_mismatch(t, kind):
    """Every class of CLASSES, claimed for an atom at t: no warning (the suite makes RuntimeWarning an error).

    An atom at or past 2^RUNG_CEILING (1.5e54) raises NoConvergence in extract_params, never ClassMismatch.
    """
    r = one_atom(kind, t)
    F, (endpoint, _) = sk.evaluator(r), endpoint_side(r)
    past = t >= 2.0**sk.limits.RUNG_CEILING
    for cls in CLASSES:
        cert = sk.certify_class(F, endpoint, cls)
        if cls == KINDS[kind].default_class:
            assert cert.verdict != (past and cls in ("s0", "t0"))
        if CLASSES[cls].params and CLASSES[cls].side == CLASSES[KINDS[kind].default_class].side:
            try:
                sk.extract_params(F, endpoint, cls)
            except sk.NoConvergence as exc:
                assert past and exc.estimate is None and exc.last_rung == 2.0**RUNG_CEILING
            except sk.ClassMismatch:
                assert not past


# --- a far endpoint: the certificate grid scales with it ---


def test_a_nevanlinna_endpoint_at_1e16_certifies():
    """Gap points 1e-3 from the endpoint 1e16 rounded onto it, a node: certify raised EvaluationFailed at z = 1e16."""
    pair = sk.StieltjesPair(0.0, I1, sk.MatrixMeasure(1, sk.right_ray(0.0), [(1e16, 1e-3 * I1)]))
    r = sk.convert(sk.convert(pair, "kk_pair"), "nevanlinna")
    assert endpoint_side(r) == (1e16, "right")
    cert = sk.certify_class(sk.evaluator(r), 1e16, "s")
    assert cert.verdict
    scale = offset_scale(1e16)
    assert scale == 4e-9 * (1.0 + 1e16)
    grid = cert.to_json()["grid"]
    assert (grid["im_min"], grid["im_max"], grid["re_spread"]) == (scale * 1e-3, scale * 1e3, scale * 5.0)


# --- weights near the largest float: every sampled read is gated ---


def overflowing_pair():
    """Finite, valid weights whose values overflow: three atoms of 8e307 (their total mass is inf)."""
    return sk.StieltjesPair(0.0, I1, sk.MatrixMeasure(1, sk.right_ray(0.0), [(t, 8e307 * I1) for t in (1.0, 1.5, 2.0)]))


@pytest.mark.parametrize(
    "report",
    [sk.kernel_range_report, lambda p: sk.eigen_invariance(p, 0.5), lambda p: sk.null_domination(p, I1)],
    ids=["kernel_range_report", "eigen_invariance", "null_domination"],
)
def test_structural_reports_fail_typed_at_a_sample_point(report):
    """They read F raw and returned a NaN deviation (ok: False) or NaN-decided False."""
    with pytest.raises(sk.EvaluationFailed) as exc:
        report(overflowing_pair())
    assert exc.value.witness in sample_points(0.0, "right")


HEAVY = {
    "three atoms of 8e307": overflowing_pair(),
    "pair (1, 1e308)": one_atom("stieltjes_pair", 1.0, W=1e308),
    "pair (1e10, 1e300)": one_atom("stieltjes_pair", 1e10, W=1e300),
    "s0 (1, 1e308)": one_atom("s0", 1.0, W=1e308),
    # the pinv image's pole alpha + s^2 lies past the largest float: it was merged into alpha
    "pinv pole past the largest float": sk.StieltjesPair(
        0.0, I1, sk.MatrixMeasure(1, sk.right_ray(0.0), [(0.5, 6e307 * I1), (0.6, 6e307 * I1)])
    ),
    # (z - alpha) F(z) resp. (beta - z) F(z) overflows in the mulz condition of s_via_pair resp. t_via_pair
    "pair gamma 1e306": one_atom("stieltjes_pair", 1.0, W=1.0, constant=1e306),
    "t-pair gamma 1e306": one_atom("t_pair", 1.0, W=1.0, constant=1e306),
}
MULZ_OVERFLOW = {"pair gamma 1e306": "s_via_pair", "t-pair gamma 1e306": "t_via_pair"}
CLI_MATRIX = [
    ["eval"], ["certify"], ["certify", "--kind", "s_via_pair"], ["certify", "--kind", "t_via_pair"],
    ["report"], ["moments"],
    ["params"], ["params", "--mode", "y_scaled"], ["params", "--mode", "radial"],
    ["convert", "--kind", "kk_pair"], ["convert", "--kind", "s0"],
    ["transform", "--op", "pinv_map"], ["transform", "--op", "neg_pinv"],
]


@pytest.mark.parametrize("action", ["error", "default"])  # the suite's warning filter, and the console script's
@pytest.mark.parametrize("argv", CLI_MATRIX, ids=" ".join)
@pytest.mark.parametrize("name", list(HEAVY))
def test_heavy_weights_give_a_report_or_one_json_error(tmp_path, capsys, name, argv, action):
    """No numpy warning on stderr beside the report or the one JSON error, and no NaN or Infinity in a report.

    While the ladder read outside the gate and the reweighting builds overflowed untyped, 21 of these runs
    printed warnings and transform printed the zero function for the three atoms of 8e307; before every
    sampled read was gated, their eval and moments printed NaN and Infinity with exit 0.  transform of the
    pinv pole past the largest float printed a pole merged into alpha, with a warning.
    """
    path = tmp_path / "input.json"
    path.write_text(json.dumps(sk.repr_to_json(HEAVY[name])))
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        # shown on stderr, as outside pytest, which records them instead
        warnings.showwarning = lambda msg, cat, name, line, *_: sys.stderr.write(
            warnings.formatwarning(msg, cat, name, line)
        )
        code = run([*argv, "--input", str(path)])
    captured = capsys.readouterr()
    if name == "three atoms of 8e307" and argv[0] in ("eval", "moments", "report", "transform"):
        assert code == 1  # its values, moments and total mass overflow
    if name == "pinv pole past the largest float" and argv[0] == "transform":
        assert code == 1
    if argv[1:] == ["--kind", MULZ_OVERFLOW.get(name)]:  # a numpy warning, then an error that blamed the evaluator
        assert code == 1 and " F(z) is not finite at z = " in json.loads(captured.err)["error"]
    if captured.err:
        assert code == 1 and captured.out == "" and list(json.loads(captured.err)) == ["error"]
    else:
        assert code in (0, 2)
        json.loads(captured.out, parse_constant=lambda c: pytest.fail(f"{c} in the report"))


def test_heavy_members_of_s0_and_t0_certify():
    """||F(iy)|| past 1.3e154 overflowed the unscaled Frobenius norm: the y_norm_bounded margin was NaN."""
    for W in (1e155, 1e160, 1e200, 1e300):
        for kind in ("s0", "t0"):
            F = sk.evaluator(one_atom(kind, 1.0, W=W))
            cert = sk.certify_class(F, 0.0, kind)
            assert cert.verdict and cert.margin("y_norm_bounded") == 0.5
            np.testing.assert_allclose(sk.limit_at_infinity(F, "y_scaled").value, [[W]], rtol=5e-14)


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(list(KINDS)))
@settings(max_examples=40, deadline=None)
def test_screened_certificates_of_badly_scaled_q4_members_are_the_unscreened_bytes(seed, kind):
    """Weights and constants over 16 decades, atoms 1e-8 to 1e16 out; the member, and its dent that fails."""
    r = scaled_member(np.random.default_rng(seed), kind, q=4)
    F, (endpoint, _) = sk.evaluator(r), endpoint_side(r)
    cls = KINDS[r.KIND].default_class
    for G in (F, dented(F, endpoint, cls)):
        screened, unscreened = screened_and_unscreened(G, endpoint, cls)
        assert screened == unscreened


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("W", [1e155, 1e200, 1e300])
@pytest.mark.parametrize("kind", list(KINDS))
def test_screened_certificates_of_heavy_members_are_the_unscreened_bytes(kind, W, q):
    """An atom of weight W and rank q // 2 at 1 or 1e10 from the endpoint 0, constants of rank q - 1: every class."""
    rng = np.random.default_rng(26)
    for t in (1.0, 1e10):
        r = one_atom(kind, t, W=W * psd(rng, q, rank=q // 2), constant=psd(rng, q, rank=q - 1))
        F, (endpoint, _) = sk.evaluator(r), endpoint_side(r)
        for cls in CLASSES:
            screened, unscreened = screened_and_unscreened(F, endpoint, cls)
            assert screened == unscreened, (t, cls)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("kind", list(KINDS))
def test_screened_certificates_of_members_singular_everywhere_are_the_unscreened_bytes(kind, q):
    """Constants and weights over 16 decades that share a null vector u: F(z) u = 0 at every point, so every
    PSD margin sits at rounding level and nearly ties its worst."""
    rng = np.random.default_rng(33)
    u = rng.normal(size=q) + 1j * rng.normal(size=q)
    P = np.eye(q) - np.outer(u, u.conj()) / np.vdot(u, u).real

    def shared_null(rng, q, rank):
        M = P @ _scaled(rng, q, rank) @ P
        return 0.5 * (M + M.conj().T)

    for _ in range(3):
        r = scaled_member(rng, kind, q, weight=shared_null, constant=shared_null)
        F, (endpoint, _) = sk.evaluator(r), endpoint_side(r)
        for cls in CLASSES:
            screened, unscreened = screened_and_unscreened(F, endpoint, cls)
            assert screened == unscreened, cls


@pytest.mark.parametrize("name", ["three atoms of 8e307", "pair (1, 1e308)"])
def test_heavy_pairs_fail_typed_in_the_ladder_and_the_pinv_builds(name):
    """The scaled ladder overflowed with a warning; the pinv builds gave the zero function or an SVD failure."""
    F = sk.evaluator(HEAVY[name])
    with pytest.raises(sk.NoConvergence, match=r"rung y = 2\^2 is not finite") as exc:
        sk.limit_at_infinity(F, "y_scaled")
    assert exc.value.last_rung == 4.0 and exc.value.estimate is None
    for build in (sk.pinv_map, sk.neg_pinv_map):
        with pytest.raises(sk.NonFiniteKernel):
            build(HEAVY[name])


def test_an_overflowing_total_mass_is_typed():
    with pytest.raises(sk.NonFiniteKernel, match="total mass"):
        sk.total_mass(overflowing_pair().mu)
    assert sk.total_mass(HEAVY["pair (1, 1e308)"].mu)[0, 0] == 1e308


def test_a_heavy_residue_verifies():
    """The unscaled norm of the residue 2e300 overflowed."""
    r = one_atom("stieltjes_pair", 1.0, W=1e300)
    np.testing.assert_array_equal(sk.residue_weight(r, 1.0, verify=True), [[2e300]])


def test_a_weight_of_1e308_evaluates_finite(tmp_path, capsys):
    """Stored as inf+nanj, it made eval print NaN with exit 0."""
    code, report = cli(tmp_path, capsys, "eval", r=one_atom("stieltjes_pair", 1.0, W=1e308))
    assert code == 0
    assert np.isfinite(np.array([rec["F"] for rec in report["grid"]], dtype=float)).all()


HUGE_NORM = sk.Evaluator(2, sk.right_ray(0.0), lambda z: 1e308 * np.ones((2, 2)) - 1e300j * np.eye(2))


def test_a_norm_past_the_largest_float_keeps_its_margins():
    """Im F = -1e300 I is no Herglotz value, but ||F||_2 = 2e308 made 1 + ||F||_2 inf, every margin +-0: it passed s."""
    cert = sk.certify_class(HUGE_NORM, 0.0, "s")
    assert not cert.verdict
    assert cert.margin("herglotz_upper") == pytest.approx(-5e-9, rel=1e-12)
    assert cert.margin("herglotz_lower_conj") == pytest.approx(5e-9, rel=1e-12)
    screened, unscreened = screened_and_unscreened(HUGE_NORM, 0.0, "s")
    assert screened == unscreened


@pytest.mark.parametrize("name", list(MULZ_OVERFLOW))
def test_an_overflowing_mulz_product_is_typed(name):
    """c F(z) overflowed with a RuntimeWarning, then blamed the evaluator, whose values are finite."""
    F = sk.evaluator(HEAVY[name])
    with pytest.raises(sk.EvaluationFailed) as exc:
        sk.certify_class(F, 0.0, MULZ_OVERFLOW[name])
    factor = "(z - alpha)" if HEAVY[name].KIND == "stieltjes_pair" else "(beta - z)"
    assert str(exc.value) == f"{factor} F(z) is not finite at z = {exc.value.witness}"
    assert exc.value.witness.imag > 0 and np.isfinite(F(exc.value.witness)).all()  # an upper grid point, F finite
