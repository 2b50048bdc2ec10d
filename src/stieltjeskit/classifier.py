"""Sampled certification of class membership and structural subspace checks.

Certification is evidence, not proof: every condition is evaluated on a
deterministic grid, and the certificate records the worst signed margin per
condition together with the witness point, so failures are reproducible.

Margins are scale-free: PSD conditions use lambda_min(.)/(1 + ||F(z)||_2),
norms (scaled Gram eigenvalues) and lambda_min from one stacked eigvalsh.
From q = 4 on, ``_screen`` first drops every point whose margin provably
lies above its condition's worst; LAPACK factors each matrix of a stack on
its own, so the margins kept, worst margins and witnesses keep their bits.
Holomorphy is exact for an atomic evaluator (built from a representation,
its only poles are the nodes, which must lie in the claimed ray).  For an
opaque one it reads the grid values already taken: a set-valued AAA
rational fit of the q^2 entries says where poles may lie, and a Cauchy
circle around each fitted pole off the claimed ray, all read in one batch,
decides whether F has one there.  F itself is evaluated once per grid
point, in one batch.  Every sampled value, here and in the structural
checks, is read through ``representations.sampled_values``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .errors import (
    ClassMismatch,
    DimensionMismatch,
    InconsistentEquivalence,
    InvalidArgument,
    NoConvergence,
    PreconditionUnmet,
    UnsupportedKind,
)
from .limits import K_MAX, limit_at_infinity
from .matmeasure import DECAY_TOL, EPS_MERGE, FIT_RTOL, NULL_RTOL_FACTOR, NULL_TOL, PARAMS_TOL, PROJ_TOL, RANK_ZERO
from .matmeasure import RTOL_RANK, RUNG_CEILING, TOL_CERT, TOL_FIT, _finite_entries, _herm, _im, _scaled_gram, is_psd
from .matmeasure import finite, fro, least_singular_vector, left_ray, norm2, pow2_scaled, range_split, right_ray
from .matmeasure import svd_rank
from .representations import (
    KINDS,
    Evaluator,
    Representation,
    StieltjesPair,
    _non_finite_at,
    _structural_sum,
    endpoint_side,
    evaluator,
    offset_scale,
    sample_points,
    sampled_values,
)


@dataclass(frozen=True)
class GridConfig:
    n_upper: int = 64
    n_lower: int = 64
    n_gap: int = 32
    seed: int = 42

    def __post_init__(self):
        if min(self.n_upper, self.n_lower, self.n_gap) < 1:
            raise InvalidArgument("all grid counts must be >= 1")


DEFAULT_GRID = GridConfig()

# Every grid's |Im z| off the gap, and its gap points' distance from the endpoint, run log-evenly over
# [GRID_IM_MIN, GRID_IM_MAX]; Re z off the gap lies within GRID_RE_SPREAD of it.  All three scale by
# offset_scale(endpoint), and certificates echo the scaled extents.
GRID_IM_MIN, GRID_IM_MAX, GRID_RE_SPREAD = 1e-3, 1e3, 5.0


@lru_cache(maxsize=64)
def _grid_offsets(side: str, grid: GridConfig) -> np.ndarray:
    """Grid points less the endpoint, read-only: upper, then lower, then gap points.

    ``side`` is "right" when the excluded ray extends to the right of the
    endpoint (gap points to the left) and "left" for the mirror case.
    """
    rng = np.random.default_rng(grid.seed)
    ims = lambda n: np.logspace(math.log10(GRID_IM_MIN), math.log10(GRID_IM_MAX), n)  # noqa: E731
    n_u, n_l = grid.n_upper, grid.n_lower
    out = np.zeros(n_u + n_l + grid.n_gap, dtype=complex)
    out.real[:n_u] = rng.uniform(-GRID_RE_SPREAD, GRID_RE_SPREAD, n_u)
    out.imag[:n_u] = ims(n_u)
    out.real[n_u : n_u + n_l] = rng.uniform(-GRID_RE_SPREAD, GRID_RE_SPREAD, n_l)
    out.imag[n_u : n_u + n_l] = -ims(n_l)
    out.real[n_u + n_l :] = (-1.0 if side == "right" else 1.0) * ims(grid.n_gap)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ClassSpec:
    """One class: the conditions that certify it and the limits it has.

    Every class is holomorphic and Herglotz off its excluded ray; the fields add the rest.  An S class
    lives off [alpha, inf), its T mirror off (-inf, beta], with the definite conditions flipped.
    """

    side: str  # "right" or "left": where the excluded ray lies from the endpoint
    phi: float  # radial direction from the endpoint along the real gap
    gap: int = 0  # +1 / -1: F resp. -F PSD on the real gap; 0: no gap condition
    half_plane: bool = False  # F (S) resp. -F (T) PSD where Re z lies on the gap's side; needs gap = sign
    mulz: bool = False  # Herglotz condition on (z - alpha) F(z) resp. (beta - z) G(z)
    infinity: str | None = None  # condition at infinity, a key of _AT_INFINITY
    params: bool = False  # extract_params reads gamma, and the mass of a bounded class

    @property
    def sign(self) -> int:
        return 1 if self.side == "right" else -1


def _mirror(spec: ClassSpec) -> ClassSpec:
    """The T class of an S class."""
    return replace(spec, side="left", phi=0.0, gap=-spec.gap)


_S = partial(ClassSpec, "right", math.pi)
_S_CLASSES = {
    "s": _S(gap=1, half_plane=True, params=True),
    "s_via_pair": _S(mulz=True),
    "s0": _S(gap=1, half_plane=True, infinity="y_norm_bounded", params=True),
    "sdot": _S(gap=1, half_plane=True, infinity="decay_at_infinity", params=True),
    "sinf": _S(gap=-1),
}
CLASSES = {**_S_CLASSES, **{"t" + name[1:]: _mirror(spec) for name, spec in _S_CLASSES.items()}}


def _class_spec(kind: str) -> ClassSpec:
    spec = CLASSES.get(kind)
    if spec is None:
        raise UnsupportedKind(f"unknown class kind {kind!r}")
    return spec


@dataclass(frozen=True)
class Certificate:
    kind: str
    verdict: bool
    conditions: tuple
    grid: GridConfig
    tol_cert: float = TOL_CERT
    scale: float = 1.0  # offset_scale(endpoint), the factor on the grid's offsets and on the extents echoed

    def margin(self, name: str) -> float:
        for c in self.conditions:
            if c["name"] == name:
                return c["margin"]
        raise KeyError(name)

    def to_json(self) -> dict:
        extents = {"im_min": GRID_IM_MIN, "im_max": GRID_IM_MAX, "re_spread": GRID_RE_SPREAD}
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
            "grid": {**asdict(self.grid), **{key: self.scale * v for key, v in extents.items()}},
        }


def _worst(points, margins):
    """Minimum of the margins over points; returns (margin, witness).

    A NaN margin fails: the first one is returned at once, and no
    comparison with a tolerance passes it.  Otherwise the witness is the
    first minimum in the order of ``points``.
    """
    i = int(np.argmin(margins))  # argmin stops at the first NaN
    return float(margins[i]), complex(points[i])


# The fit's Loewner matrix takes at most _PROBES columns of values a step: the q^2 entries' own, else a fixed Gaussian
# sketch of them.  A candidate pole is read on a circle of _CIRCLE.size points, at half steps so that none is real.
_PROBES = 4
_CIRCLE = np.exp(2j * np.pi * (np.arange(8) + 0.5) / 8)


@np.errstate(divide="ignore", invalid="ignore")
def _fit(zs: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(poles, residuals) of set-valued AAA on the columns of F (points x entries, parts below 1) at zs.

    Each step makes the first point of largest residual over every entry a support point and takes the barycentric
    weights from the least singular vector of the probes' stacked Loewner matrices.  The fit stops once no residual
    exceeds FIT_RTOL or half the points are support points; a point's residual is its largest over the entries, 0
    at a support point.  The poles are the zeros of the weights' denominator sum_j w_j / (z - s_j): the finite
    eigenvalues of the arrowhead pencil, whose two infinite ones the shift-invert at a free point maps nearest 0.
    """
    m, k = F.shape
    probes = F if k <= _PROBES else F @ np.random.default_rng(0).standard_normal((k, _PROBES))
    residual, support = np.abs(F - F.mean(axis=0)).max(axis=1, initial=0.0), []
    while residual.max(initial=0.0) > FIT_RTOL and len(support) < m // 2:
        support.append(int(np.argmax(residual)))
        free = np.ones(m, dtype=bool)
        free[support] = False
        C = 1.0 / (zs[free, None] - zs[support])
        loewner = (probes[free, None, :] - probes[support]) * C[:, :, None]
        w = least_singular_vector(loewner.transpose(0, 2, 1).reshape(-1, len(support)))
        D = C @ w
        residual = np.zeros(m)
        residual[free] = np.abs(F[free] - (C @ (w[:, None] * F[support])) / D[:, None]).max(axis=1)
    if len(support) < 2:  # a constant or one support point: no pole
        return np.zeros(0, dtype=complex), residual
    sigma = zs[free][np.argmax(np.abs(D))]
    pencil = np.diag(np.concatenate(([0.0], zs[support] - sigma)))
    pencil[0, 1:], pencil[1:, 0] = w, 1.0
    B = np.eye(len(support) + 1)
    B[0, 0] = 0.0
    mu = np.linalg.eigvals(np.linalg.solve(pencil, B))
    poles = sigma + 1.0 / mu[np.argsort(np.abs(mu), kind="stable")[2:]]
    return poles[np.isfinite(poles)], residual


@np.errstate(divide="ignore", invalid="ignore")
def _confirmed(F: Evaluator, poles: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """The poles a Cauchy circle confirms, each located by its circle: the fit says where to look, the circles decide.

    A candidate lies farther than rounding, EPS_MERGE (1 + |p|), from the claimed ray, at ``dist``.  Its circle has
    radius r a quarter of its distance to the ray and to the other poles, so the disc lies off the ray; every circle
    is read in one batch.  With X the circle's values scaled by pow2_scaled, the contour sum c_1 = mean(X e^{i theta})
    is the residue over r and about X's variation max ||X - mean X|| at a simple pole, while holomorphy on the disc
    makes it of order 4^-(n - 2) of it, n = _CIRCLE.size.  A pole is confirmed where the sum exceeds a quarter of the
    variation plus TOL_FIT ||X||, so that a circle on which F is constant to rounding confirms nothing.  It is then
    p + r <c_1, c_2> / <c_1, c_1>, c_2 = mean(X e^{2i theta}), the pole of a simple one, if that lies in the disc.
    """
    candidate = dist > EPS_MERGE * (1.0 + np.abs(poles))
    if not candidate.any():
        return np.zeros(0, dtype=complex)
    apart = np.abs(poles[:, None] - poles)
    np.fill_diagonal(apart, np.inf)
    p, r = poles[candidate], 0.25 * np.minimum(dist, apart.min(axis=1))[candidate]
    V = sampled_values(F, (p[:, None] + r[:, None] * _CIRCLE).reshape(-1)).reshape(p.size, _CIRCLE.size, -1)
    X = pow2_scaled(V, axis=(1, 2))[0]
    c1, c2 = ((X * _CIRCLE[:, None] ** j).mean(axis=1) for j in (1, 2))
    variation = fro(X - X.mean(axis=1, keepdims=True), axis=2).max(axis=1)
    sure = fro(c1, axis=1) > 0.25 * (variation + TOL_FIT * fro(X, axis=2).max(axis=1))
    shift = r * np.einsum("ck,ck->c", c1.conj(), c2) / np.einsum("ck,ck->c", c1.conj(), c1)
    return np.where(np.abs(shift) < r, p + shift, p)[sure]


def _holomorphy(
    F: Evaluator, zs: np.ndarray, V: np.ndarray, defined: np.ndarray, endpoint: float, sign: int
) -> tuple[float, complex]:
    """(margin, witness) of holomorphy off the claimed ray; an opaque F's from its values V at the ``defined`` points zs.

    An atomic F is exact: a node at depth sign (endpoint - t) / (1 + |endpoint|) > 0 is a pole in the gap.  An opaque
    one is fitted (_fit) and its off-ray poles read on Cauchy circles (_confirmed): the deepest confirmed pole p
    fails at -dist(p, ray) / (1 + |endpoint|), witnessed at p; without one the margin is TOL_FIT less the fit's
    residual, witnessed at the first worst grid point, so a fit that does not converge fails.
    """
    if F._kernel is None:
        ray = (right_ray if sign > 0 else left_ray)(endpoint)
        zs, V = zs[defined], V[defined]
        poles, residual = _fit(zs, pow2_scaled(V)[0].reshape(zs.size, -1))
        confirmed = _confirmed(F, poles, ray.distance(poles))
        if not confirmed.size:
            return _worst(zs, TOL_FIT - residual)
        dist = ray.distance(confirmed)
        i = int(np.argmax(dist))  # the first of the deepest
        return -float(dist[i]) / (1.0 + abs(endpoint)), complex(confirmed[i])
    nodes = F._kernel[0]
    depth = sign * (endpoint - nodes) / (1.0 + abs(endpoint))
    if depth.max(initial=0.0) <= 0.0:
        return TOL_FIT, complex(zs[0])  # residual 0 at every point; the first, an upper one, is defined
    i = int(np.argmax(depth))  # the first of the deepest
    return -float(depth[i]), complex(nodes[i])


def _y_norm_bounded(F: Evaluator) -> tuple[float, complex]:
    """(margin, witness) of the bounded-growth condition: the ratio of y ||F(iy)|| from y to 2y, ~1 if bounded.

    y is the least power of two past ||mass|| / PARAMS_TOL, where a constant of PARAMS_TOL (the largest
    plain limit extract_params lets a bounded class keep) would match the mass, and no nearer than the
    stop of the mass ladder: a constant under a heavy far atom hides on every rung the ladder runs, and a
    probe farther out would read y times the rounding of a value at infinity that cancels.  y stays at
    or below the top rung of a ladder at the ceiling.
    """
    try:
        mass = limit_at_infinity(F, "y_scaled")
    except NoConvergence as exc:
        return -1.0, 1j * (exc.last_rung or 2.0**RUNG_CEILING)  # None: no rung ran, a node lies past the ceiling
    past = math.frexp(float(fro(mass.value)) / PARAMS_TOL)[1]
    y = 2.0 ** min(max(mass.ladder_depth, past), RUNG_CEILING + K_MAX)
    s1, s2 = (v * float(fro(sampled_values(F, [1j * v]))) for v in (y, 2.0 * y))
    return 0.5 - ((1.0 if s1 <= 1e-300 else s2 / s1) - 1.0), 2j * y


def _decay_at_infinity(F: Evaluator) -> tuple[float, complex]:
    """(margin, witness) of the vanishing plain limit of the decaying classes, witnessed at the ladder's stop."""
    try:
        plain = limit_at_infinity(F, "plain_iy")
    except NoConvergence as exc:
        return -1.0, 1j * (exc.last_rung or 2.0**RUNG_CEILING)  # None: no rung ran (a node or horizon past the ceiling)
    return DECAY_TOL - float(fro(plain.value)), 1j * 2.0**plain.ladder_depth


# Condition at infinity -> (its certificate margin, what a nonzero gamma contradicts in extract_params).
_AT_INFINITY = {
    "y_norm_bounded": (_y_norm_bounded, "bounded class requires a vanishing plain limit"),
    "decay_at_infinity": (_decay_at_infinity, "plain limit does not vanish for the decaying class"),
}


# Certificates screen from q = _SCREEN_MIN_Q on.  The screen's cost is mostly numpy's per-call overhead, 140, 190
# and 280 us a certificate at q = 2, 4 and 8 (one Xeon core, OpenBLAS 0.3.31), while a stacked eigvalsh costs about
# 0.06, 1.2, 2.4, 3.7 and 8.5 us a matrix at q = 1, 2, 3, 4 and 8.  Screened, certificates of 1-5 atoms ran 58%
# slower at q = 1 and within noise at q = 2 and 3; certificates of 50 atoms ran 31% faster at q = 4, 34% at q = 8.
_SCREEN_MIN_Q = 4


@np.errstate(over="ignore", invalid="ignore")
def _screen(V: np.ndarray, blocks: list) -> tuple[np.ndarray, list]:
    """(need, blocks): the grid points whose scaled Gram is needed, each block narrowed to the points it keeps.

    A margin lambda_min(H) / (1 + c ||V||_2) is bounded on both sides without an eigen-solve.  lambda_min(H)
    lies between Gershgorin's min_k (H_kk - sum_{j != k} |H_kj|) and min_k H_kk, each widened by 64 q (eps rho
    + tiny), rho the largest absolute row sum of H: eigvalsh's backward error (Weyl, ||H||_2 <= rho) and the
    bounds' rounding, down to underflow.  ||V||_2 lies between fro(V) / sqrt(q) (the largest float / sqrt(q)
    if fro(V) overflows) and fro(V), each widened by a relative 1e-12.  Rounding is monotone, so the computed
    margin lies between the computed bounds.  Under each condition's mask a point is dropped only if its lower
    bound is strictly above the least upper bound: it is no minimum and ties none.  A NaN bound is never above
    and a NaN upper bound keeps its whole mask, so overflow here keeps points and warns of nothing.
    """
    q = V.shape[-1]
    fmax, eps, tiny = np.finfo(float).max, np.finfo(float).eps, np.finfo(float).tiny
    f = fro(V, axis=(1, 2))
    n_lo, n_hi = np.minimum(f, fmax) * ((1.0 - 1e-12) / math.sqrt(q)), f * (1.0 + 1e-12)
    need = np.zeros(len(V), dtype=bool)
    kept_blocks = []
    for points, H, c, names in blocks:
        d, rows = H.diagonal(axis1=1, axis2=2).real, np.abs(H).sum(axis=2)
        slack = 64 * q * (eps * rows.max(axis=1) + tiny)
        lam_lo, lam_hi = (d + np.abs(d) - rows).min(axis=1) - slack, d.min(axis=1) + slack
        # the smaller the denominator, the larger |lambda| / (1 + c ||V||_2)
        lo = lam_lo / (1.0 + c * np.where(lam_lo >= 0, n_hi[points], n_lo[points]))
        hi = lam_hi / (1.0 + c * np.where(lam_hi >= 0, n_lo[points], n_hi[points]))
        keep = np.zeros(len(H), dtype=bool)
        for _, mask in names:
            sub = mask[points]
            keep |= sub & ~(lo > hi[sub].min())
        kept = points.copy()
        kept[points] = keep
        need |= kept
        kept_blocks.append((kept, H[keep], c if np.isscalar(c) else c[keep], names))
    return need, kept_blocks


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _margins(lam: np.ndarray, c, m: np.ndarray, root: np.ndarray) -> np.ndarray:
    """lam / (1 + c m root); where that denominator overflows, its equal (lam / m) / (1 / m + c root), not +-0."""
    den = 1.0 + c * (m * root)
    if den.max(initial=0.0) < np.inf:
        return lam / den
    return np.where(den < np.inf, lam / den, (lam / m) / (1.0 / m + c * root))


def certify_class(
    F: Evaluator,
    endpoint: float,
    kind: str,
    grid: GridConfig = DEFAULT_GRID,
    tol_cert: float = TOL_CERT,
) -> Certificate:
    """Certify membership of an evaluator in one of the classes of ``CLASSES``.

    F is evaluated once on the whole grid (one batch); every condition
    reads those values, and every PSD margin reads one stacked eigvalsh.
    """
    kind = kind.lower()
    spec = _class_spec(kind)
    scale = offset_scale(endpoint)
    zs = endpoint + scale * _grid_offsets(spec.side, grid)
    V = sampled_values(F, zs)
    dist = F.distance(zs)
    is_upper = np.arange(zs.size) < grid.n_upper
    on_gap = np.arange(zs.size) >= grid.n_upper + grid.n_lower

    # A gap point on the evaluator's own excluded ray (a class claimed for
    # the other side) has no value to fit: holomorphy reads the values where
    # the evaluator is defined.
    margin, witness = _holomorphy(F, zs, V, dist > 0.0, endpoint, spec.sign)
    conditions = [{"name": "holomorphic", "margin": margin, "witness": witness}]

    # PSD margins lambda_min(H) / (1 + ||c V||_2); a block holds H at its points, c there and the conditions it
    # serves: +-Im V off the gap; sign F on the gap and, for a half_plane class (its gap has its side's sign),
    # where Re z lies left of alpha (S) resp. right of beta (T); Im(c V) for mulz, c = z - alpha resp. beta - z.
    off = ~on_gap
    herglotz = (("herglotz_upper", is_upper), ("herglotz_lower_conj", off & ~is_upper))
    blocks = [(off, _herm(np.where(is_upper[off], 1.0, -1.0)[:, None, None] * _im(V[off])), 1.0, herglotz)]
    if spec.gap:
        half = (spec.sign * (zs.real - endpoint) < 0) | on_gap if spec.half_plane else on_gap
        names = ("psd_on_gap", "re_psd_left") if spec.gap > 0 else ("npsd_on_gap", "re_npsd_right")
        blocks.append((half, _herm(spec.gap * V[half]), 1.0, tuple(zip(names, (on_gap, half)))[: 1 + spec.half_plane]))
    if spec.mulz:
        factor = spec.sign * (zs[is_upper] - endpoint)
        product = f"{'(z - alpha)' if spec.sign > 0 else '(beta - z)'} F(z) is not finite"
        P = finite(lambda: factor[:, None, None] * V[is_upper], lambda P: _non_finite_at(zs[is_upper], P, product))
        blocks.append((is_upper, _herm(_im(P)), np.abs(factor), (("herglotz_upper_mulz", is_upper),)))
    need, blocks = _screen(V, blocks) if F.q >= _SCREEN_MIN_Q else (slice(None), blocks)
    gram, m = _scaled_gram(V[need])  # then one eigvalsh, per matrix: each lambda_min keeps its bits
    lam = np.linalg.eigvalsh(np.concatenate([gram] + [H for _, H, _, _ in blocks]))
    peak, root = np.zeros(zs.size), np.zeros(zs.size)  # ||V||_2 = peak root, kept apart: the product may overflow
    peak[need], root[need] = m, np.sqrt(lam[: len(gram), -1])
    ends = np.cumsum([len(gram)] + [len(H) for _, H, _, _ in blocks])
    for (points, _, c, names), start, stop in zip(blocks, ends, ends[1:]):
        margins = np.full(zs.size, np.inf)  # a point screened out holds no worst margin
        margins[points] = _margins(lam[start:stop, 0], c, peak[points], root[points])
        for name, mask in names:  # the worst margin at the masked points, witnessed in grid order
            margin, witness = _worst(zs[mask], margins[mask])
            conditions.append({"name": name, "margin": margin, "witness": witness})
    if spec.infinity is not None:
        margin, witness = _AT_INFINITY[spec.infinity][0](F)
        conditions.append({"name": spec.infinity, "margin": margin, "witness": witness})

    verdict = all(c["margin"] >= -tol_cert for c in conditions)
    return Certificate(kind, verdict, tuple(conditions), grid, tol_cert, scale)


def extract_params(F: Evaluator, alpha: float, claimed: str) -> dict:
    """Extract and cross-check the limit parameters of a class with ``params`` in ``CLASSES``.

    The record carries gamma, and the mass of a bounded class; otherwise also ``gamma_radial``,
    gamma read along the real gap, which must agree with gamma.  The bounded and decaying classes
    need gamma to vanish.  Raises ``ClassMismatch`` when a check fails beyond PARAMS_TOL, when the
    plain limit diverges, or at once when F is singular on a ray of the other side than the class's.
    """
    claimed = claimed.lower()
    spec = _class_spec(claimed)
    if not spec.params:
        raise UnsupportedKind(f"no limit parameters for class {claimed}; use --mode")
    if F.excluded is not None and F.excluded.side not in (None, spec.side):
        raise ClassMismatch(f"class {claimed} lives off a {spec.side} ray; F is singular on a {F.excluded.side} ray")
    gamma = lambda est: est if spec.sign > 0 else replace(est, value=-est.value)  # noqa: E731 - G tends to -gamma
    try:
        plain = gamma(limit_at_infinity(F, "plain_iy"))
    except NoConvergence as exc:  # F grows at infinity, as no class with parameters does
        if exc.last_estimates is None:  # no ladder ran: a node of F or its horizon lies past the ceiling
            raise
        raise ClassMismatch(f"the plain limit of class {claimed} diverges: {exc}") from exc
    record: dict = {"claimed": claimed, "alpha": alpha, "gamma": plain}
    if spec.infinity != "y_norm_bounded":
        radial = gamma(limit_at_infinity(F, "radial", alpha=alpha, phi=spec.phi))
        record["gamma_radial"] = radial
        gap = float(fro(plain.value - radial.value))
        budget = 2.0 * (plain.error_bound + radial.error_bound) + PARAMS_TOL
        if gap > budget:
            raise ClassMismatch(f"vertical and radial limits disagree by {gap:.3e} (budget {budget:.3e})")
    if spec.infinity is not None and float(fro(plain.value)) > PARAMS_TOL:
        raise ClassMismatch(_AT_INFINITY[spec.infinity][1])
    if spec.infinity == "y_norm_bounded":
        record["mass"] = limit_at_infinity(F, "y_scaled")
    return record


# ---------------------------------------------------------------------------
# Structural subspace checks
# ---------------------------------------------------------------------------


def _svd_projectors(M: np.ndarray):
    """(range projectors, null projectors, ranks) of a stack of general complex matrices."""
    U, _, V, r = svd_rank(M, RTOL_RANK, RANK_ZERO)
    return U @ U.conj().swapaxes(-1, -2), np.eye(M.shape[-1]) - V @ V.conj().swapaxes(-1, -2), r


def kernel_range_report(repr_: Representation) -> dict:
    """Compare parameter-level null/range projectors with those of F(z).

    The null space of F(z) is z-independent and equals the null space of
    the structural parameter sum; dually for ranges.  Reports the common
    rank and the worst projector deviation over the samples.
    """
    Pr, Pn, r = _svd_projectors(sampled_values(evaluator(repr_), sample_points(*endpoint_side(repr_))))
    _, vecs, keep = range_split(_structural_sum(repr_))  # after the samples, whose read fails first and typed
    P_range = vecs[:, keep] @ vecs[:, keep].conj().T
    P_null = np.eye(repr_.q, dtype=complex) - P_range
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


def eigen_invariance(repr_: Representation, lam: float) -> bool:
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
    V = sampled_values(evaluator(repr_), sample_points(*endpoint_side(repr_)))
    P = _svd_projectors(V - lam * np.eye(repr_.q))[1]
    i, j = np.triu_indices(len(P), 1)
    return float(np.max(norm2(P[i] - P[j]), initial=0.0)) <= PROJ_TOL


def null_domination(repr_, A) -> dict:
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
        raise DimensionMismatch(f"A must have q = {repr_.q} columns")
    Vr = svd_rank(_finite_entries(A), NULL_RTOL_FACTOR * max(A.shape))[2]
    P = Vr @ Vr.conj().T  # orthogonal projector onto R(A*) = N(A)^perp
    Pn = np.eye(repr_.q, dtype=complex) - P
    V = sampled_values(evaluator(repr_), sample_points(repr_.alpha, "right"))
    S = _structural_sum(repr_)
    s = 1.0 + norm2(V)
    worst = lambda D: float(np.max(norm2(D) / s, initial=0.0))  # noqa: E731
    worst_null, worst_right, worst_left = worst(V @ Pn), worst(V @ P - V), worst(P @ V - V)
    s_par = 1.0 + float(norm2(S))
    dev_params = float(norm2(S @ Pn)) / s_par
    dev_range = float(norm2(Pn @ S)) / s_par

    report = {
        "null_sampled": worst_null <= NULL_TOL,
        "null_params": dev_params <= NULL_TOL,
        "right_projector": worst_right <= NULL_TOL,
        "left_projector": worst_left <= NULL_TOL,
        "range_params": dev_range <= NULL_TOL,
    }
    values = set(report.values())
    if len(values) != 1:
        raise InconsistentEquivalence(f"equivalent conditions disagree: {report}")
    report["all"] = values.pop()
    return report
