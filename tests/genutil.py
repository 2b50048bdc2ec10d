"""Random instance generators shared across the test modules, and a screened/unscreened certificate pair.

All generators take an explicit numpy Generator so every test is
reproducible from its seed.
"""

import json

import numpy as np

import stieltjeskit as sk
from stieltjeskit import classifier
from stieltjeskit.representations import KINDS, endpoint_side, map_fields


def psd(rng, q, rank=None, scale=1.0):
    """Random PSD Hermitian matrix, optionally rank-deficient."""
    r = q if rank is None else rank
    if r == 0:
        return np.zeros((q, q), dtype=complex)
    A = rng.normal(size=(q, r)) + 1j * rng.normal(size=(q, r))
    M = scale * (A @ A.conj().T) / q
    return 0.5 * (M + M.conj().T)  # exactly Hermitian entrywise


def herm(rng, q, scale=1.0):
    A = scale * (rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q)))
    return 0.5 * (A + A.conj().T)


def _nodes_right(rng, alpha, n, include_endpoint=False, open_ray=False):
    nodes = alpha + np.cumsum(rng.uniform(0.1, 1.5, size=n))
    if include_endpoint and not open_ray and n:
        nodes[0] = alpha
    return nodes


def measure_right(rng, q, alpha, n_atoms=None, open_ray=False, weight_rank=None, include_endpoint=None):
    n = int(rng.integers(1, 6)) if n_atoms is None else n_atoms
    if include_endpoint is None:
        include_endpoint = (not open_ray) and bool(rng.integers(0, 2))
    nodes = _nodes_right(rng, alpha, n, include_endpoint, open_ray)
    atoms = [(t, psd(rng, q, rank=weight_rank)) for t in nodes]
    support = sk.open_right_ray(alpha) if open_ray else sk.right_ray(alpha)
    return sk.MatrixMeasure(q, support, atoms)


def measure_left(rng, q, beta, n_atoms=None, open_ray=False, weight_rank=None, include_endpoint=None):
    n = int(rng.integers(1, 6)) if n_atoms is None else n_atoms
    if include_endpoint is None:
        include_endpoint = (not open_ray) and bool(rng.integers(0, 2))
    nodes = _nodes_right(rng, -beta, n, include_endpoint, open_ray)
    atoms = [(-t, psd(rng, q, rank=weight_rank)) for t in nodes]
    support = sk.open_left_ray(beta) if open_ray else sk.left_ray(beta)
    return sk.MatrixMeasure(q, support, atoms)


def random_alpha(rng):
    return float(rng.uniform(-2.0, 2.0))


def random_pair(rng, q=None, alpha=None, gamma_rank=None, weight_rank=None, n_atoms=None):
    q = int(rng.integers(1, 4)) if q is None else q
    alpha = random_alpha(rng) if alpha is None else alpha
    return sk.StieltjesPair(
        alpha,
        psd(rng, q, rank=gamma_rank),
        measure_right(rng, q, alpha, n_atoms=n_atoms, weight_rank=weight_rank),
    )


def random_s0(rng, q=None, alpha=None, weight_rank=None, n_atoms=None):
    q = int(rng.integers(1, 4)) if q is None else q
    alpha = random_alpha(rng) if alpha is None else alpha
    return sk.S0Measure(alpha, measure_right(rng, q, alpha, n_atoms=n_atoms, weight_rank=weight_rank))


def random_sinf(rng, q=None, alpha=None, ranks=None, n_atoms=None):
    q = int(rng.integers(1, 4)) if q is None else q
    alpha = random_alpha(rng) if alpha is None else alpha
    rD = rE = rW = None
    if ranks is not None:
        rD, rE, rW = ranks
    return sk.SInfTriple(
        alpha,
        psd(rng, q, rank=rD),
        psd(rng, q, rank=rE),
        measure_right(rng, q, alpha, n_atoms=n_atoms, open_ray=True, weight_rank=rW),
    )


def random_tpair(rng, q=None, beta=None, gamma_rank=None, weight_rank=None, n_atoms=None):
    q = int(rng.integers(1, 4)) if q is None else q
    beta = random_alpha(rng) if beta is None else beta
    return sk.TPair(
        beta,
        psd(rng, q, rank=gamma_rank),
        measure_left(rng, q, beta, n_atoms=n_atoms, weight_rank=weight_rank),
    )


def random_t0(rng, q=None, beta=None, weight_rank=None, n_atoms=None):
    q = int(rng.integers(1, 4)) if q is None else q
    beta = random_alpha(rng) if beta is None else beta
    return sk.T0Measure(beta, measure_left(rng, q, beta, n_atoms=n_atoms, weight_rank=weight_rank))


def random_tinf(rng, q=None, beta=None, ranks=None, n_atoms=None):
    q = int(rng.integers(1, 4)) if q is None else q
    beta = random_alpha(rng) if beta is None else beta
    rD = rE = rW = None
    if ranks is not None:
        rD, rE, rW = ranks
    return sk.TInfTriple(
        beta,
        psd(rng, q, rank=rD),
        psd(rng, q, rank=rE),
        measure_left(rng, q, beta, n_atoms=n_atoms, open_ray=True, weight_rank=rW),
    )


RANDOM_KINDS = {
    "stieltjes_pair": random_pair,
    "s0": random_s0,
    "sinf_triple": random_sinf,
    "t_pair": random_tpair,
    "t0": random_t0,
    "tinf_triple": random_tinf,
}


def random_kind(kind, rng, **kw):
    """A random representation of any of the eight kinds; kk_pair and nevanlinna convert a pair."""
    if kind in RANDOM_KINDS:
        return RANDOM_KINDS[kind](rng, **kw)
    kk = sk.convert(random_pair(rng, **kw), "kk_pair")
    return kk if kind == "kk_pair" else sk.convert(kk, "nevanlinna")


def with_far_atom(rng, r, far, weight_rank=None):
    """r plus one atom 10^far from the endpoint that adds about a PSD W to F.

    Its weight is W (1 + |t - e|) over the kind's kernel numerator, so in the pair form its columns
    are about sqrt(1 + |t - e|) times the others.
    """
    e, side = endpoint_side(r)
    t = e + (10.0**far if side == "right" else -(10.0**far))
    W = psd(rng, r.q, rank=weight_rank) * (1.0 + abs(t - e)) / KINDS[r.KIND].numerator(t, e)
    add = lambda mu: sk.MatrixMeasure(r.q, mu.support, (*mu.atoms, (t, W)))  # noqa: E731
    return type(r)(**map_fields(r, float, lambda M: M, add))


def off_ray_points(rng, endpoint, side, n):
    """Random points keeping a safe distance from the excluded ray."""
    pts = []
    for _ in range(n):
        off = rng.uniform(-4.0, 4.0)
        im = rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])
        pts.append(complex(endpoint + off, im))
    return pts


def screened_and_unscreened(F, endpoint, cls, grid=classifier.DEFAULT_GRID):
    """certify_class's JSON text, or the error it raised, with the eigvalsh screen at every q and at none."""
    out, saved = [], classifier._SCREEN_MIN_Q
    try:
        for min_q in (1, 2**62):
            classifier._SCREEN_MIN_Q = min_q
            try:
                out.append(json.dumps(sk.certify_class(F, endpoint, cls, grid).to_json()))
            except sk.StieltjesKitError as exc:
                out.append(f"{type(exc).__name__}: {exc}")
    finally:
        classifier._SCREEN_MIN_Q = saved
    return tuple(out)
