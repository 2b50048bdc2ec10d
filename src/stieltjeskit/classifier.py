"""Sampled certification of class membership and structural subspace checks.

Certification is evidence, not proof: every condition is evaluated on a
deterministic grid, and the certificate records the worst signed margin per
condition together with the witness point, so failures are reproducible.

Margins are scale-free: PSD conditions use lambda_min(.)/(1 + ||F(z)||),
holomorphy uses a normalized Cauchy-Riemann residual of fourth-order
(Richardson-combined) symmetric difference quotients in two directions.
Each certificate evaluates F once per grid point, in one batch, and the
stencil in fixed-size batches.
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
from .matmeasure import is_psd, norm2, svd_rank, total_mass
from .representations import (
    KINDS,
    Evaluator,
    Representation,
    StieltjesPair,
    endpoint_side,
    evaluator,
    measure_of,
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


def _values(F: Evaluator, zs: np.ndarray) -> np.ndarray:
    """F at each point (unguarded); a raise or a non-finite value fails at the first such point."""
    try:
        V = F.batch_raw(zs)
    except Exception as exc:  # noqa: BLE001 - found again point by point for the witness
        for z in zs.tolist():
            _value(F, z)
        raise EvaluationFailed(f"batch evaluation raised, no single point does: {exc}") from exc
    return _finite(zs, V)


def _finite(zs: np.ndarray, V: np.ndarray) -> np.ndarray:
    bad = ~np.isfinite(V).all(axis=(1, 2))
    if bad.any():
        z = complex(zs[np.argmax(bad)])
        raise EvaluationFailed(f"evaluator returned a non-finite value at z = {z}", witness=z)
    return V


def _value(F: Evaluator, z: complex) -> np.ndarray:
    try:
        V = F.raw(z)
    except Exception as exc:  # noqa: BLE001 - wrapped with the witness point
        raise EvaluationFailed(f"evaluator raised at z = {z}: {exc}", witness=z) from exc
    if not np.isfinite(V).all():
        raise EvaluationFailed(f"evaluator returned a non-finite value at z = {z}", witness=z)
    return V


def _herm(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.conj().swapaxes(-1, -2))


def _im(M: np.ndarray) -> np.ndarray:
    return (M - M.conj().swapaxes(-1, -2)) / 2j


def _lam_min(H: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the Hermitian part of each matrix of a stack."""
    return np.linalg.eigvalsh(_herm(H))[:, 0]


def _worst(points, margins):
    """Minimum of the margins over points; returns (margin, witness).

    A NaN margin fails: the first one is returned at once, and no
    comparison with a tolerance passes it.  Otherwise the witness is the
    first minimum in the order of ``points``.
    """
    i = int(np.argmin(margins))  # argmin stops at the first NaN
    return float(margins[i]), points[i]


# Stencil offsets in units of h: +-h, +-ih, then +-h/2, +-ih/2.
_STENCIL = np.array([1.0, -1.0, 1j, -1j, 0.5, -0.5, 0.5j, -0.5j])
CR_BLOCK = 64  # grid points per stencil batch, so 512 evaluations at most


def _cr_residuals(F: Evaluator, zs: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Normalized Cauchy-Riemann residuals of fourth-order difference quotients.

    Each quotient is the Richardson combination (4 D(h/2) - D(h)) / 3 of
    the symmetric quotient D in the x or the y direction, so the
    truncation error is O(h^4) and stays far below TOL_CR even where |F|
    is large against |F'|.  The step is capped by the distance to the
    excluded set so the stencil stays well inside the domain.
    """
    h = np.minimum(CR_STEP * (1.0 + np.abs(zs)), dist / 3000.0)
    out = np.empty(zs.size)
    for start in range(0, zs.size, CR_BLOCK):
        block = slice(start, start + CR_BLOCK)
        hb = h[block, None, None]
        V = _values(F, (zs[block, None] + h[block, None] * _STENCIL).reshape(-1))
        V = V.reshape(-1, _STENCIL.size, F.q, F.q)
        D = lambda i, step: (V[:, i] - V[:, i + 1]) / step  # noqa: E731
        dx = (4.0 * D(4, hb) - D(0, 2.0 * hb)) / 3.0
        dy = (4.0 * D(6, 1j * hb) - D(2, 2j * hb)) / 3.0
        fro = lambda A: np.linalg.norm(A, axis=(1, 2))  # noqa: E731
        out[block] = fro(dx - dy) / (1.0 + fro(dx) + fro(dy))
    return out


def _growth_ratio(F: Evaluator, base: float) -> tuple[float, complex]:
    """Ratio of y*||F(iy)|| between 2*base and base; ~1 for bounded decay."""
    s1 = base * float(np.linalg.norm(_value(F, 1j * base)))
    s2 = 2.0 * base * float(np.linalg.norm(_value(F, 2j * base)))
    if s1 <= 1e-300:
        return 1.0, 2j * base
    return s2 / s1, 2j * base


def _y_norm_bounded(F: Evaluator, mode: str) -> tuple[float, complex]:
    """(margin, witness) of the bounded-growth condition of s0 / t0.

    The growth ratio is probed at y = max(2^20, 2^depth), depth being
    where the mass ladder converges: only there is y past the scale of the
    atoms, so an atom far out does not read as unbounded growth.
    """
    base = 2.0**20
    try:
        depth = limit_at_infinity(F, mode).ladder_depth
    except NoConvergence:
        return -1.0, 2j * base
    ratio, witness = _growth_ratio(F, max(base, 2.0**depth))
    return 0.5 - (ratio - 1.0), witness


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

    F is evaluated once on the whole grid (one batch); every condition
    reads those values.
    """
    kind = kind.lower()
    if kind not in S_KINDS + T_KINDS:
        raise UnsupportedKind(f"unknown class kind {kind!r}")
    side = "right" if kind in S_KINDS else "left"
    upper, lower, gap = build_grid(endpoint, side, grid)
    points = upper + lower + gap
    zs = np.array(points)
    V = _values(F, zs)
    scale = 1.0 + norm2(V)  # PSD margins are lambda_min / (1 + ||F(z)||)
    dist = F.distance(zs)
    index = np.arange(zs.size)
    is_upper = index < len(upper)
    on_gap = index >= len(upper) + len(lower)

    conditions = []

    def add(name, mask, margins):
        """Worst of margins(values, scales at the masked points), witnessed in grid order."""
        sub = np.flatnonzero(mask)
        margin, witness = _worst([points[i] for i in sub], margins(V[sub], scale[sub]))
        conditions.append({"name": name, "margin": margin, "witness": witness})

    psd = lambda W, s: _lam_min(W) / s  # noqa: E731
    npsd = lambda W, s: _lam_min(-W) / s  # noqa: E731

    # A gap point on the evaluator's own excluded ray (a class claimed for
    # the other side) leaves the difference stencil no room: holomorphy is
    # sampled only where the evaluator is defined.
    defined = dist > 0.0
    add("holomorphic", defined, lambda *_: TOL_CR - _cr_residuals(F, zs[defined], dist[defined]))
    herglotz = lambda W, s: _lam_min(_im(W)) / s  # noqa: E731
    add("herglotz_upper", is_upper, herglotz)
    add("herglotz_lower_conj", ~is_upper & ~on_gap, lambda W, s: _lam_min(-_im(W)) / s)

    if kind in ("s", "s0", "sdot", "tinf"):
        add("psd_on_gap", on_gap, psd)
    if kind in ("sinf", "t", "t0", "tdot"):
        add("npsd_on_gap", on_gap, npsd)
    if kind in ("s", "s0", "sdot"):
        add("re_psd_left", (zs.real < endpoint) | on_gap, psd)
    if kind in ("t", "t0", "tdot"):
        add("re_npsd_right", (zs.real > endpoint) | on_gap, npsd)
    if kind in ("s_via_pair", "t_via_pair"):
        # (z - a) F(z) resp. (b - z) F(z) from the shared values.
        factor = zs - endpoint if kind == "s_via_pair" else endpoint - zs

        def mulz(W, _):
            P = _finite(zs[is_upper], factor[is_upper, None, None] * W)
            return herglotz(P, 1.0 + norm2(P))

        add("herglotz_upper_mulz", is_upper, mulz)

    if kind in ("s0", "t0"):
        margin, witness = _y_norm_bounded(F, "y_scaled" if kind == "s0" else "neg_y_scaled")
        conditions.append({"name": "y_norm_bounded", "margin": margin, "witness": witness})
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


def _svd_projectors(M: np.ndarray):
    """(range projectors, null projectors, ranks) of a stack of general complex matrices."""
    U, _, Vh, r = svd_rank(M, RTOL_RANK, RANK_ZERO)
    keep = np.arange(M.shape[-1]) < r[:, None]  # the first r singular vectors
    Ur = U * keep[:, None, :]
    Vr = Vh.conj().swapaxes(-1, -2) * keep[:, None, :]
    eye = np.eye(M.shape[-1], dtype=complex)
    return Ur @ Ur.conj().swapaxes(-1, -2), eye - Vr @ Vr.conj().swapaxes(-1, -2), r


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
    Pr, Pn, r = _svd_projectors(evaluator(repr_).batch_raw(sample_points(endpoint, side, n_samples, seed)))
    ranks = set(r.tolist())
    worst = float(np.max(np.maximum(norm2(Pr - P_range), norm2(Pn - P_null)), initial=0.0))
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
    zs = np.array(list(samples), dtype=complex)
    if zs.size < 2:
        raise ValueError("need at least two sample points")
    ranks = set(_svd_projectors(_values(F, zs))[2].tolist())
    if len(ranks) != 1:
        raise RankInstability(f"ranks {sorted(ranks)} disagree across samples")
    return ranks.pop(), True


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
    V = evaluator(repr_).batch_raw(sample_points(endpoint, side, n_samples, seed))
    P = _svd_projectors(V - lam * np.eye(repr_.q))[1]
    i, j = np.triu_indices(len(P), 1)
    return float(np.max(norm2(P[i] - P[j]), initial=0.0)) <= PROJ_TOL


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
    V = evaluator(repr_).batch_raw(sample_points(repr_.alpha, "right", n_samples, seed))
    s = 1.0 + norm2(V)
    worst = lambda D: float(np.max(norm2(D) / s, initial=0.0))  # noqa: E731
    worst_null, worst_right, worst_left = worst(V @ Pn), worst(V @ P - V), worst(P @ V - V)
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
