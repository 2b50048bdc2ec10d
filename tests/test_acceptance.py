"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL line so the suite
doubles as a checklist when run with ``pytest -v -s``.
"""

import numpy as np
import pytest

import stieltjeskit as sk
from stieltjeskit.classifier import sample_points

from genutil import (
    off_ray_points,
    psd,
    random_pair,
    random_s0,
    random_sinf,
    random_t0,
    random_tinf,
    random_tpair,
)

DEFAULT_GRID = sk.GridConfig()  # 64 + 64 + 32 points, seed 42


def _announce(n, label, ok):
    print(f"\n[criterion {n:2d}] {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {n}: {label}"


def _endpoint(r):
    e = getattr(r, "alpha", None)
    return e if e is not None else r.beta


def test_criterion_01_representations_certify_their_class():
    rng = np.random.default_rng(101)
    cases = [
        (random_pair, "s"),
        (random_s0, "s0"),
        (random_sinf, "sinf"),
        (random_tpair, "t"),
        (random_t0, "t0"),
        (random_tinf, "tinf"),
    ]
    worst = 0.0
    ok = True
    for make, cls in cases:
        for _ in range(50):
            r = make(rng)
            cert = sk.certify_class(sk.evaluator(r), _endpoint(r), cls, DEFAULT_GRID)
            m = min(c["margin"] for c in cert.conditions)
            worst = min(worst, m)
            if m < -1e-10:
                ok = False
    _announce(1, f"300 random representations certify in class (worst margin {worst:.2e} >= -1e-10)", ok)


def test_criterion_01_inputs_wrapped_opaque_certify_their_class():
    """The same 300 inputs, each behind a bare Evaluator: holomorphy is fitted, not read off the nodes."""
    rng = np.random.default_rng(101)
    makers = [(random_pair, "s"), (random_s0, "s0"), (random_sinf, "sinf")]
    makers += [(random_tpair, "t"), (random_t0, "t0"), (random_tinf, "tinf")]
    worst = 0.0
    for make, cls in makers:
        for _ in range(50):
            r = make(rng)
            F = sk.evaluator(r)
            cert = sk.certify_class(sk.Evaluator(F.q, F.excluded, F.fn), _endpoint(r), cls, DEFAULT_GRID)
            worst = min([worst] + [c["margin"] for c in cert.conditions])
    _announce(1, f"300 opaque wrappers certify in class (worst margin {worst:.2e} >= -1e-10)", worst >= -1e-10)


def test_criterion_02_parameter_extraction_limits():
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(20):
        p = random_pair(rng)
        F = sk.evaluator(p)
        est = sk.limit_at_infinity(F, "plain_iy")
        if np.linalg.norm(est.value - p.gamma) > 1e-7 * (1 + np.linalg.norm(p.gamma)):
            ok = False
        rad = sk.limit_at_infinity(F, "radial", alpha=p.alpha)
        if np.linalg.norm(rad.value - est.value) > 2 * (rad.error_bound + est.error_bound) + 1e-9:
            ok = False
    for _ in range(20):
        s = random_s0(rng)
        est = sk.limit_at_infinity(sk.evaluator(s), "y_scaled")
        mass = sk.total_mass(s.sigma)
        if np.linalg.norm(est.value - mass) > 1e-7 * (1 + np.linalg.norm(mass)):
            ok = False
    _announce(2, "vertical/radial limits reproduce stored constants and masses to 1e-7", ok)


def test_criterion_03_closed_forms_match_direct_eval():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(100):
        p = random_pair(rng)
        (z,) = off_ray_points(rng, p.alpha, "right", 1)
        F = sk.evaluate(p, z)
        re, im = sk.im_re_parts(p, z)
        tol = 1e-12 * (1 + np.linalg.norm(F))
        if np.linalg.norm(re - (F + F.conj().T) / 2) > tol:
            ok = False
        if np.linalg.norm(im - (F - F.conj().T) / 2j) > tol:
            ok = False
        Fm = sk.eval_mulz(p, z)
        if np.linalg.norm(sk.im_mulz_closed(p, z) - (Fm - Fm.conj().T) / 2j) > 1e-12 * (
            1 + np.linalg.norm(Fm)
        ):
            ok = False
    _announce(3, "real/imaginary closed forms match direct evaluation to 1e-12 (100 draws)", ok)


def test_criterion_04_kernel_range_projector_equalities():
    rng = np.random.default_rng(104)
    ok = True
    makers = [
        lambda: random_pair(rng, q=3, gamma_rank=int(rng.integers(0, 3)), weight_rank=int(rng.integers(1, 3))),
        lambda: random_sinf(rng, q=3, ranks=(int(rng.integers(0, 3)), int(rng.integers(0, 3)), int(rng.integers(1, 3)))),
        lambda: random_tpair(rng, q=3, gamma_rank=int(rng.integers(0, 3)), weight_rank=int(rng.integers(1, 3))),
        lambda: random_tinf(rng, q=3, ranks=(int(rng.integers(0, 3)), int(rng.integers(0, 3)), int(rng.integers(1, 3)))),
        lambda: random_s0(rng, q=3, weight_rank=int(rng.integers(1, 3))),
        lambda: random_t0(rng, q=3, weight_rank=int(rng.integers(1, 3))),
    ]
    for make in makers:
        for _ in range(20):
            rep = sk.kernel_range_report(make())
            if not rep["ok"] or rep["max_projector_deviation"] > 1e-9:
                ok = False
    _announce(4, "null/range projector equalities hold to 1e-9 (6 kinds x 20 rank-deficient instances)", ok)


def test_criterion_05_rank_constancy_and_zero_iff_zero():
    rng = np.random.default_rng(105)
    ok = True
    makers = [random_pair, random_s0, random_sinf, random_tpair, random_t0, random_tinf]
    for i in range(100):
        make = makers[i % len(makers)]
        r = make(rng, q=3)
        e = _endpoint(r)
        side = "right" if r.KIND.startswith(("s", "kk", "nev")) else "left"
        pts = sample_points(e, side, 10, seed=i)
        try:
            sk.rank_constancy(sk.evaluator(r), pts)
        except sk.RankInstability:
            ok = False
    # zero at one point iff zero at all
    zero = sk.StieltjesPair(0.0, np.zeros((2, 2)), sk.MatrixMeasure(2, sk.right_ray(0.0), []))
    rank, _ = sk.rank_constancy(sk.evaluator(zero), sample_points(0.0, "right", 10))
    if rank != 0:
        ok = False
    for _ in range(10):
        r = random_pair(rng, q=2)
        rank, _ = sk.rank_constancy(sk.evaluator(r), sample_points(r.alpha, "right", 10))
        if rank == 0:
            ok = False
    _announce(5, "numerical rank constant across 10 samples on 100 instances; zero iff zero everywhere", ok)


def test_criterion_06_moore_penrose_closure():
    rng = np.random.default_rng(106)
    ok = True
    # pseudoinverse map stays in class (50 instances)
    for _ in range(50):
        p = random_pair(rng)
        G = sk.pinv_map(p)
        cert = sk.certify_class(G, p.alpha, "s", DEFAULT_GRID)
        if min(c["margin"] for c in cert.conditions) < -1e-9:
            ok = False
    # constant term of the transform of a bounded input is pinv of the mass,
    # and every nonzero output leaves the bounded subclass
    for _ in range(20):
        s = random_s0(rng, q=2)
        G = sk.pinv_map(s)
        est = sk.limit_at_infinity(G, "plain_iy")
        expected = sk.pinv(sk.total_mass(s.sigma)).pinv
        if np.linalg.norm(est.value - expected) > 1e-6 * (1 + np.linalg.norm(expected)):
            ok = False
        if sk.certify_class(G, s.alpha, "s0", DEFAULT_GRID).verdict:
            ok = False
    # -F^+ exchanges the plain and product-form classes, both directions
    for _ in range(20):
        si = random_sinf(rng, q=2)
        if not sk.certify_class(sk.neg_pinv_map(si), si.alpha, "s", DEFAULT_GRID).verdict:
            ok = False
        ti = random_tinf(rng, q=2)
        if not sk.certify_class(sk.neg_pinv_map(ti), ti.beta, "t", DEFAULT_GRID).verdict:
            ok = False
    for _ in range(20):
        p = random_pair(rng, q=2)
        if not sk.certify_class(sk.neg_pinv_map(p), p.alpha, "sinf", DEFAULT_GRID).verdict:
            ok = False
        t = random_tpair(rng, q=2)
        if not sk.certify_class(sk.neg_pinv_map(t), t.beta, "tinf", DEFAULT_GRID).verdict:
            ok = False
    _announce(6, "pinv maps preserve/exchange classes; bounded-input constant equals pinv of the mass", ok)


def test_criterion_07_duality():
    rng = np.random.default_rng(107)
    ok = True
    for make in (random_pair, random_s0, random_sinf):
        for _ in range(7):
            r = make(rng)
            beta = float(rng.uniform(-2.0, 2.0))
            g = sk.dual_map(r, beta)
            for z in off_ray_points(rng, 0.0, "either", 50):
                lhs = sk.evaluate(g, z)
                rhs = -sk.evaluate(r, r.alpha + beta - np.conj(z)).conj().T
                if np.linalg.norm(lhs - rhs) > 1e-13 * (1 + np.linalg.norm(rhs)):
                    ok = False
            back = sk.dual_map(g, r.alpha)
            m1 = getattr(r, "mu", None) if hasattr(r, "mu") else None
            m1 = m1 or (r.sigma if hasattr(r, "sigma") else r.rho)
            m2 = getattr(back, "mu", None) if hasattr(back, "mu") else None
            m2 = m2 or (back.sigma if hasattr(back, "sigma") else back.rho)
            # reflecting twice computes c - (c - t); allow a few ulps on nodes
            if not np.allclose(m1.nodes, m2.nodes, rtol=0, atol=1e-13):
                ok = False
            for (_, W1), (_, W2) in zip(m1.atoms, m2.atoms):
                if not np.array_equal(W1, W2):
                    ok = False
            # parameter maps: matrices preserved, nodes reflected
            if hasattr(r, "gamma") and not np.array_equal(g.gamma, r.gamma):
                ok = False
            if hasattr(r, "D") and not (np.array_equal(g.D, r.D) and np.array_equal(g.E, r.E)):
                ok = False
    _announce(7, "duality pointwise identity to 1e-13; involution exact on atoms; parameters mapped", ok)


def test_criterion_08_conversion_round_trips_and_agreement():
    rng = np.random.default_rng(108)
    ok = True
    for _ in range(20):
        p = random_pair(rng, gamma_rank=0)  # gamma = 0 so the full chain is legal
        kk = sk.convert(p, "kk_pair")
        nev = sk.convert(kk, "nevanlinna")
        s0 = sk.convert(p, "s0")
        # round trips
        back_kk = sk.convert(nev, "kk_pair", alpha=p.alpha)
        back_p1 = sk.convert(back_kk, "stieltjes_pair")
        back_p2 = sk.convert(s0, "stieltjes_pair")
        for a, b in ((p, back_p1), (p, back_p2)):
            if not np.array_equal(a.mu.nodes, b.mu.nodes):
                ok = False
            for (_, W1), (_, W2) in zip(a.mu.atoms, b.mu.atoms):
                if np.linalg.norm(W1 - W2) > 1e-13 * (1 + np.linalg.norm(W1)):
                    ok = False
        # cross-representation evaluation
        for z in off_ray_points(rng, p.alpha, "right", 10):
            V = sk.evaluate(p, z)
            tol = 1e-12 * (1 + np.linalg.norm(V))
            for other in (kk, nev, s0):
                if np.linalg.norm(sk.evaluate(other, z) - V) > tol:
                    ok = False
        if np.linalg.norm(nev.B) != 0.0 or (nev.nu.nodes.size and nev.nu.nodes.min() < p.alpha):
            ok = False
    _announce(8, "pair/KK/Nevanlinna/S0 round trips exact to 1e-13 with eval agreement to 1e-12", ok)


def test_criterion_09_monotonicity_chains():
    rng = np.random.default_rng(109)
    ok = True

    def lam_min(M):
        return float(np.linalg.eigvalsh(0.5 * (M + M.conj().T))[0])

    for _ in range(20):
        p = random_pair(rng)
        xs = p.alpha - np.sort(rng.uniform(0.2, 6.0, 8))[::-1]  # increasing, all < alpha
        vals = [sk.evaluate(p, x) for x in xs]
        if lam_min(vals[0]) < -1e-10:
            ok = False
        for a, b in zip(vals, vals[1:]):
            if lam_min(b - a) < -1e-10:
                ok = False

        si = random_sinf(rng)
        xs = si.alpha - np.sort(rng.uniform(0.2, 6.0, 8))[::-1]
        vals = [sk.evaluate(si, x) for x in xs]
        if lam_min(-vals[-1]) < -1e-10:
            ok = False
        for a, b in zip(vals, vals[1:]):
            if lam_min(b - a) < -1e-10:
                ok = False

        t = random_tpair(rng)
        xs = t.beta + np.sort(rng.uniform(0.2, 6.0, 8))
        vals = [sk.evaluate(t, x) for x in xs]
        if lam_min(-vals[-1]) < -1e-10:
            ok = False
        for a, b in zip(vals, vals[1:]):
            if lam_min(b - a) < -1e-10:
                ok = False

        ti = random_tinf(rng)
        xs = ti.beta + np.sort(rng.uniform(0.2, 6.0, 8))
        vals = [sk.evaluate(ti, x) for x in xs]
        if lam_min(vals[0]) < -1e-10:
            ok = False
        for a, b in zip(vals, vals[1:]):
            if lam_min(b - a) < -1e-10:
                ok = False
    _announce(9, "gap monotonicity chains hold to -1e-10 (4 classes x 20 instances x 8 points)", ok)


def test_criterion_10_negative_controls():
    rng = np.random.default_rng(110)
    ok = True
    for _ in range(5):
        p = random_pair(rng, q=2)
        # inject a negative eigenvalue into the constant term
        bad_gamma = p.gamma - (np.linalg.norm(p.gamma, 2) + 0.5) * np.outer([1.0, 0], [1.0, 0])
        mu = p.mu
        coeff = 1.0 + mu.nodes - p.alpha

        def bad_fn(z, bad_gamma=bad_gamma, mu=mu, coeff=coeff):
            out = np.array(bad_gamma, dtype=complex)
            for (t, W), c in zip(mu.atoms, coeff):
                out = out + (c / (t - z)) * W
            return out

        F = sk.Evaluator(2, sk.right_ray(p.alpha), bad_fn)
        cert = sk.certify_class(F, p.alpha, "s", DEFAULT_GRID)
        worst = min(cert.conditions, key=lambda c: c["margin"])
        if cert.verdict or worst["margin"] >= -1e-6 or worst["witness"] is None:
            ok = False

        # move one atom across the endpoint
        t_bad = p.alpha - rng.uniform(0.25, 0.55)
        W_bad = psd(rng, 2) + 2.0 * np.eye(2)

        def crossed(z, p=p, t_bad=t_bad, W_bad=W_bad):
            return sk.evaluator(p).fn(z) + ((1.0 + t_bad - p.alpha) / (t_bad - z)) * W_bad

        F2 = sk.Evaluator(2, sk.right_ray(p.alpha), crossed)
        cert2 = sk.certify_class(F2, p.alpha, "s", DEFAULT_GRID)
        worst2 = min(cert2.conditions, key=lambda c: c["margin"])
        if cert2.verdict or worst2["margin"] >= -1e-6 or worst2["witness"] is None:
            ok = False
    _announce(10, "perturbed functions are rejected with margin < -1e-6 and a witness point", ok)
