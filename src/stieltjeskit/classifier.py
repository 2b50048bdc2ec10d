"""Sampled certification of class membership and structural subspace checks.

Certification is evidence, not proof: every condition is evaluated on a
deterministic grid, and the certificate records the worst signed margin per
condition together with the witness point, so failures are reproducible.

Margins are scale-free: PSD conditions use lambda_min(.)/(1 + ||F(z)||),
holomorphy uses a normalized Cauchy-Riemann residual of symmetric
difference quotients in two directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EvaluationFailed,
    InconsistentEquivalence,
    NoConvergence,
    PreconditionUnmet,
    RankInstability,
    UnsupportedKind,
)
from .limits import limit_at_infinity
from .matmeasure import is_psd, svd_rank, total_mass
from .representations import (
    KINDS,
    Evaluator,
    Representation,
    StieltjesPair,
    endpoint_side,
    evaluator,
    measure_of,
    mulz_evaluator,
)

TOL_CERT = 1e-9
TOL_CR = 1e-6
CR_STEP = 1e-5
# Rank of a sampled F(z): its entries carry the rounding of an atomic sum,
# so the cut sits far above that and the rank is stable between samples.
RTOL_RANK = 1e-8
RANK_ZERO = 1e-12  # sigma_1 at or below this: F(z) counts as the zero matrix
PROJ_TOL = 1e-9

S_KINDS = ("s", "s_via_pair", "s0", "sdot", "sinf")
T_KINDS = ("t", "t_via_pair", "t0", "tdot", "tinf")


@dataclass(frozen=True)
class GridConfig:
    n_upper: int = 64
    n_lower: int = 64
    n_gap: int = 32
    im_min: float = 1e-3
    im_max: float = 1e3
    re_spread: float = 5.0
    seed: int = 42

    def __post_init__(self):
        if min(self.n_upper, self.n_lower, self.n_gap) < 1:
            raise ValueError("all grid counts must be >= 1")

    def to_json(self) -> dict:
        return {
            "n_upper": self.n_upper,
            "n_lower": self.n_lower,
            "n_gap": self.n_gap,
            "im_min": self.im_min,
            "im_max": self.im_max,
            "re_spread": self.re_spread,
            "seed": self.seed,
        }


DEFAULT_GRID = GridConfig()


def build_grid(endpoint: float, side: str, grid: GridConfig = DEFAULT_GRID):
    """Deterministic sample points: (upper, lower, gap) lists.

    ``side`` is "right" when the excluded ray extends to the right of the
    endpoint (gap points to the left) and "left" for the mirror case.
    """
    rng = np.random.default_rng(grid.seed)
    ims_u = np.logspace(math.log10(grid.im_min), math.log10(grid.im_max), grid.n_upper)
    offs_u = rng.uniform(-grid.re_spread, grid.re_spread, grid.n_upper)
    upper = [complex(endpoint + o, y) for o, y in zip(offs_u, ims_u)]
    ims_l = np.logspace(math.log10(grid.im_min), math.log10(grid.im_max), grid.n_lower)
    offs_l = rng.uniform(-grid.re_spread, grid.re_spread, grid.n_lower)
    lower = [complex(endpoint + o, -y) for o, y in zip(offs_l, ims_l)]
    dists = np.logspace(math.log10(grid.im_min), math.log10(grid.im_max), grid.n_gap)
    sign = -1.0 if side == "right" else 1.0
    gap = [complex(endpoint + sign * d, 0.0) for d in dists]
    return upper, lower, gap


@dataclass(frozen=True)
class Certificate:
    kind: str
    verdict: bool
    conditions: tuple
    grid: GridConfig
    tol_cert: float = TOL_CERT

    def margin(self, name: str) -> float:
        for c in self.conditions:
            if c["name"] == name:
                return c["margin"]
        raise KeyError(name)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "verdict": "pass" if self.verdict else "fail",
            "tol_cert": self.tol_cert,
            "conditions": [
                {
                    "name": c["name"],
                    "margin": c["margin"],
                    "witness_z": [c["witness"].real, c["witness"].imag],
                }
                for c in self.conditions
            ],
            "grid": self.grid.to_json(),
        }


def _value(F: Evaluator, z: complex) -> np.ndarray:
    try:
        V = F.raw(z)
    except Exception as exc:  # noqa: BLE001 - wrapped with the witness point
        raise EvaluationFailed(f"evaluator raised at z = {z}: {exc}", witness=z) from exc
    if not np.isfinite(V).all():
        raise EvaluationFailed(f"evaluator returned a non-finite value at z = {z}", witness=z)
    return V


def _herm(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.conj().T)


def _im(M: np.ndarray) -> np.ndarray:
    return (M - M.conj().T) / 2j


def _psd_margin(H: np.ndarray, scale: float) -> float:
    return float(np.linalg.eigvalsh(_herm(H))[0]) / scale


def _worst(points, score):
    """Minimize score(z) over points; returns (margin, witness).

    A NaN score fails: it is returned at once as the margin, and no
    comparison with a tolerance passes it.
    """
    best = math.inf
    witness = points[0]
    for z in points:
        m = score(z)
        if math.isnan(m):
            return m, z
        if m < best:
            best = m
            witness = z
    return best, witness


def cr_residual(F: Evaluator, z: complex) -> float:
    """Normalized Cauchy-Riemann residual of symmetric difference quotients.

    The step is capped by the distance to the excluded set so the stencil
    stays well inside the domain and the second-order truncation term stays
    below TOL_CR even near the ray.
    """
    d = F.distance(z)
    h = CR_STEP * (1.0 + abs(z))
    if math.isfinite(d):
        h = min(h, d / 3000.0)
    dx = (_value(F, z + h) - _value(F, z - h)) / (2.0 * h)
    dy = (_value(F, z + 1j * h) - _value(F, z - 1j * h)) / (2j * h)
    scale = 1.0 + float(np.linalg.norm(dx)) + float(np.linalg.norm(dy))
    return float(np.linalg.norm(dx - dy)) / scale


def _growth_ratio(F: Evaluator, base: float = 2.0**20) -> tuple[float, complex]:
    """Ratio of y*||F(iy)|| between 2*base and base; ~1 for bounded decay."""
    s1 = base * float(np.linalg.norm(_value(F, 1j * base)))
    s2 = 2.0 * base * float(np.linalg.norm(_value(F, 2j * base)))
    if s1 <= 1e-300:
        return 1.0, 2j * base
    return s2 / s1, 2j * base


def certify_class(
    F: Evaluator,
    endpoint: float,
    kind: str,
    grid: GridConfig = DEFAULT_GRID,
    tol_cert: float = TOL_CERT,
) -> Certificate:
    """Certify membership of an evaluator in one of the supported classes.

    kind in {"s", "s_via_pair", "s0", "sdot", "sinf",
             "t", "t_via_pair", "t0", "tdot", "tinf"}.
    """
    kind = kind.lower()
    if kind not in S_KINDS + T_KINDS:
        raise UnsupportedKind(f"unknown class kind {kind!r}")
    side = "right" if kind in S_KINDS else "left"
    upper, lower, gap = build_grid(endpoint, side, grid)
    all_points = upper + lower + gap

    def scaled(fn):
        def score(z):
            V = _value(F, z)
            return fn(z, V, 1.0 + float(np.linalg.norm(V, 2)))

        return score

    conditions = []

    def add(name, points, score):
        margin, witness = _worst(points, score)
        conditions.append({"name": name, "margin": margin, "witness": witness})

    # A gap point on the evaluator's own excluded ray (a class claimed for
    # the other side) leaves the difference stencil no room: holomorphy is
    # sampled only where the evaluator is defined.
    defined = [z for z in all_points if F.distance(z) > 0.0]
    add("holomorphic", defined, lambda z: TOL_CR - cr_residual(F, z))
    add("herglotz_upper", upper, scaled(lambda z, V, s: _psd_margin(_im(V), s)))
    add("herglotz_lower_conj", lower, scaled(lambda z, V, s: _psd_margin(-_im(V), s)))

    if kind in ("s", "s0", "sdot"):
        add("psd_on_gap", gap, scaled(lambda z, V, s: _psd_margin(V, s)))
        left_pts = [z for z in upper + lower if z.real < endpoint] + gap
        add("re_psd_left", left_pts, scaled(lambda z, V, s: _psd_margin(_herm(V), s)))
    elif kind == "sinf":
        add("npsd_on_gap", gap, scaled(lambda z, V, s: _psd_margin(-V, s)))
    elif kind == "s_via_pair":
        Fm = mulz_evaluator(F, endpoint)
        add("herglotz_upper_mulz", upper, lambda z: _psd_margin(_im(_value(Fm, z)), 1.0 + float(np.linalg.norm(_value(Fm, z), 2))))
    elif kind in ("t", "t0", "tdot"):
        add("npsd_on_gap", gap, scaled(lambda z, V, s: _psd_margin(-V, s)))
        right_pts = [z for z in upper + lower if z.real > endpoint] + gap
        add("re_npsd_right", right_pts, scaled(lambda z, V, s: _psd_margin(-_herm(V), s)))
    elif kind == "tinf":
        add("psd_on_gap", gap, scaled(lambda z, V, s: _psd_margin(V, s)))
    elif kind == "t_via_pair":
        Gm = Evaluator(F.q, F.excluded, lambda z: (endpoint - z) * F.fn(z))
        add("herglotz_upper_mulz", upper, lambda z: _psd_margin(_im(_value(Gm, z)), 1.0 + float(np.linalg.norm(_value(Gm, z), 2))))

    if kind in ("s0", "t0"):
        ratio, witness = _growth_ratio(F)
        conditions.append({"name": "y_norm_bounded", "margin": 0.5 - (ratio - 1.0), "witness": witness})
    if kind in ("sdot", "tdot"):
        try:
            est = limit_at_infinity(F, "plain_iy")
            margin = 1e-7 - float(np.linalg.norm(est.value))
        except NoConvergence:
            margin = -1.0
        conditions.append({"name": "decay_at_infinity", "margin": margin, "witness": 1j * 2.0**20})

    verdict = all(c["margin"] >= -tol_cert for c in conditions)
    return Certificate(kind, verdict, tuple(conditions), grid, tol_cert)


# ---------------------------------------------------------------------------
# Structural subspace checks
# ---------------------------------------------------------------------------


def sample_points(endpoint: float, side: str, n: int = 10, seed: int = 7):
    """Deterministic off-ray sample points mixing both half-planes and the gap."""
    rng = np.random.default_rng(seed)
    pts = []
    for j in range(n):
        off = rng.uniform(-3.0, 3.0)
        im = rng.uniform(0.5, 2.0) * (1 if j % 2 == 0 else -1)
        if j % 5 == 4:  # every fifth point on the real gap
            d = rng.uniform(0.5, 3.0)
            pts.append(complex(endpoint - d if side == "right" else endpoint + d, 0.0))
        else:
            pts.append(complex(endpoint + off, im))
    return pts


def range_projector(M: np.ndarray, rtol: float = 1e-10) -> np.ndarray:
    """Orthogonal projector onto the range of a Hermitian PSD matrix."""
    vals, vecs = np.linalg.eigh(_herm(M))
    top = float(vals[-1]) if vals.size else 0.0
    keep = vals > rtol * max(top, 1e-300)
    V = vecs[:, keep]
    return V @ V.conj().T


def _svd_projectors(M: np.ndarray, rtol: float = RTOL_RANK):
    """(range projector, null projector, rank) of a general complex matrix."""
    U, s, Vh, r = svd_rank(M, rtol, RANK_ZERO)
    if r == 0:
        q = M.shape[0]
        return np.zeros_like(M), np.eye(q, dtype=complex), 0
    Ur = U[:, :r]
    Vr = Vh[:r, :].conj().T
    q = M.shape[1]
    return Ur @ Ur.conj().T, np.eye(q, dtype=complex) - Vr @ Vr.conj().T, r


def _structural_sum(repr_: Representation) -> np.ndarray:
    """PSD matrix whose range/null space equal those predicted for F(z).

    For PSD summands, N(A) ∩ N(B) = N(A + B) and R(A) + R(B) = R(A + B),
    so the predicted intersection/sum is realized by a single matrix sum.
    """
    names = KINDS[repr_.KIND].structural
    if names is None:
        raise UnsupportedKind(f"no structural subspace statement for kind {repr_.KIND}")
    terms = [getattr(repr_, name) for name in names] + [total_mass(measure_of(repr_))]
    return sum(terms[1:], terms[0])


def kernel_range_report(repr_: Representation, n_samples: int = 10, seed: int = 7) -> dict:
    """Compare parameter-level null/range projectors with those of F(z).

    The null space of F(z) is z-independent and equals the null space of
    the structural parameter sum; dually for ranges.  Reports the common
    rank and the worst projector deviation over the samples.
    """
    S = _structural_sum(repr_)
    P_range = range_projector(S)
    q = S.shape[0]
    P_null = np.eye(q, dtype=complex) - P_range
    endpoint, side = endpoint_side(repr_)
    F = evaluator(repr_)
    worst = 0.0
    ranks = set()
    for z in sample_points(endpoint, side, n_samples, seed):
        Pr, Pn, r = _svd_projectors(F.raw(z))
        ranks.add(r)
        worst = max(
            worst,
            float(np.linalg.norm(Pr - P_range, 2)),
            float(np.linalg.norm(Pn - P_null, 2)),
        )
    rank_param = int(round(float(np.real(np.trace(P_range)))))
    ok = worst <= PROJ_TOL and ranks == {rank_param}
    return {
        "rank": rank_param,
        "sampled_ranks": sorted(ranks),
        "max_projector_deviation": worst,
        "ok": ok,
    }


def rank_constancy(F: Evaluator, samples) -> tuple[int, bool]:
    """Numerical rank of F at each sample; raises on any disagreement."""
    samples = list(samples)
    if len(samples) < 2:
        raise ValueError("need at least two sample points")
    ranks = []
    for z in samples:
        _, _, r = _svd_projectors(_value(F, z))
        ranks.append(r)
    if len(set(ranks)) != 1:
        raise RankInstability(f"ranks {sorted(set(ranks))} disagree across samples")
    return ranks[0], True


def eigen_invariance(repr_: Representation, lam: float, n_samples: int = 10, seed: int = 7) -> bool:
    """Check that the lambda-eigenspaces of F(z) do not depend on z.

    Requires the class-specific PSD precondition on (parameters, lambda);
    otherwise PreconditionUnmet is raised.
    """
    precond = KINDS[repr_.KIND].eigen
    if precond is None:
        raise UnsupportedKind(f"eigen invariance not stated for kind {repr_.KIND}")
    name, sign = precond
    if not is_psd(getattr(repr_, name) + sign * lam * np.eye(repr_.q)):
        raise PreconditionUnmet(f"{name} {'+' if sign > 0 else '-'} lam*I is not PSD for lambda = {lam}")
    endpoint, side = endpoint_side(repr_)
    F = evaluator(repr_)
    q = repr_.q
    projectors = []
    for z in sample_points(endpoint, side, n_samples, seed):
        projectors.append(_svd_projectors(F.raw(z) - lam * np.eye(q))[1])
    worst = 0.0
    for i in range(len(projectors)):
        for j in range(i + 1, len(projectors)):
            worst = max(worst, float(np.linalg.norm(projectors[i] - projectors[j], 2)))
    return worst <= PROJ_TOL


def null_domination(repr_, A, n_samples: int = 10, seed: int = 7, tol: float = 1e-8) -> dict:
    """Test the equivalent forms of 'the null space of A dominates F'.

    Conditions checked (all provably equivalent for class members):
      null_sampled:    N(A) subset of N(F(z)) at sampled z
      null_params:     N(A) subset of N(gamma) and N(mu(Omega))
      right_projector: F(z) A^+ A = F(z)
      left_projector:  A^+ A F(z) = F(z)
      range_params:    R(gamma) + R(mu(Omega)) subset of R(A*)
    """
    if not isinstance(repr_, StieltjesPair):
        raise UnsupportedKind("null domination is stated for StieltjesPair")
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[1] != repr_.q:
        raise ValueError(f"A must have q = {repr_.q} columns")
    q = repr_.q
    Aplus = np.linalg.pinv(A)
    P = Aplus @ A  # orthogonal projector onto R(A*) = N(A)^perp
    Pn = np.eye(q, dtype=complex) - P
    S = _structural_sum(repr_)
    F = evaluator(repr_)
    pts = sample_points(repr_.alpha, "right", n_samples, seed)

    worst_null = worst_right = worst_left = 0.0
    for z in pts:
        V = F.raw(z)
        s = 1.0 + float(np.linalg.norm(V, 2))
        worst_null = max(worst_null, float(np.linalg.norm(V @ Pn, 2)) / s)
        worst_right = max(worst_right, float(np.linalg.norm(V @ P - V, 2)) / s)
        worst_left = max(worst_left, float(np.linalg.norm(P @ V - V, 2)) / s)
    s_par = 1.0 + float(np.linalg.norm(S, 2))
    dev_params = float(np.linalg.norm(S @ Pn, 2)) / s_par
    dev_range = float(np.linalg.norm(Pn @ S, 2)) / s_par

    report = {
        "null_sampled": worst_null <= tol,
        "null_params": dev_params <= tol,
        "right_projector": worst_right <= tol,
        "left_projector": worst_left <= tol,
        "range_params": dev_range <= tol,
    }
    values = set(report.values())
    if len(values) != 1:
        raise InconsistentEquivalence(f"equivalent conditions disagree: {report}")
    report["all"] = values.pop()
    return report
