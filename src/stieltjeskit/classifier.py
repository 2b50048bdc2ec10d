"""Sampled certification of class membership and structural subspace checks.

Certification is evidence, not proof: every condition is evaluated on a
deterministic grid, and the certificate records the worst signed margin per
condition together with the witness point, so failures are reproducible.

Margins are scale-free: PSD conditions use lambda_min(.)/(1 + ||F(z)||).
Holomorphy is exact for an atomic evaluator (built from a representation,
its only poles are the nodes, which must lie in the claimed ray); for an
opaque one it is a normalized Cauchy-Riemann residual of fourth-order
(Richardson-combined) symmetric difference quotients in two directions,
evaluated in fixed-size batches.  F itself is evaluated once per grid
point, in one batch.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .errors import (
    ClassMismatch,
    EvaluationFailed,
    InconsistentEquivalence,
    NoConvergence,
    PreconditionUnmet,
    RankInstability,
    UnsupportedKind,
)
from .limits import limit_at_infinity
from .matmeasure import CR_STEP, DECAY_TOL, NULL_RTOL_FACTOR, NULL_TOL, PARAMS_TOL, PROJ_TOL, RANK_ZERO, RTOL_RANK
from .matmeasure import TOL_CERT, TOL_CR, _herm, is_psd, norm2, range_split, svd_rank, total_mass
from .representations import (
    KINDS,
    Evaluator,
    Representation,
    StieltjesPair,
    endpoint_side,
    evaluator,
    measure_of,
)


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


DEFAULT_GRID = GridConfig()


@lru_cache(maxsize=64)
def _grid_offsets(side: str, grid: GridConfig) -> np.ndarray:
    """Grid points less the endpoint, read-only: upper, then lower, then gap points.

    ``side`` is "right" when the excluded ray extends to the right of the
    endpoint (gap points to the left) and "left" for the mirror case.
    """
    rng = np.random.default_rng(grid.seed)
    ims = lambda n: np.logspace(math.log10(grid.im_min), math.log10(grid.im_max), n)  # noqa: E731
    n_u, n_l = grid.n_upper, grid.n_lower
    out = np.zeros(n_u + n_l + grid.n_gap, dtype=complex)
    out.real[:n_u] = rng.uniform(-grid.re_spread, grid.re_spread, n_u)
    out.imag[:n_u] = ims(n_u)
    out.real[n_u : n_u + n_l] = rng.uniform(-grid.re_spread, grid.re_spread, n_l)
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
            "grid": asdict(self.grid),
        }


def _values(F: Evaluator, zs: np.ndarray) -> np.ndarray:
    """F at each point (unguarded); a raise (found again point by point) or a non-finite value fails at the first."""
    try:
        V = F.batch_raw(zs)
    except Exception as exc:  # noqa: BLE001 - wrapped with the witness point
        if zs.size == 1:
            z = complex(zs[0])
            raise EvaluationFailed(f"evaluator raised at z = {z}: {exc}", witness=z) from exc
        for i in range(zs.size):
            _values(F, zs[i : i + 1])
        raise EvaluationFailed(f"batch evaluation raised, no single point does: {exc}") from exc
    return _finite(zs, V)


def _finite(zs: np.ndarray, V: np.ndarray) -> np.ndarray:
    bad = ~np.isfinite(V).all(axis=(1, 2))
    if bad.any():
        z = complex(zs[np.argmax(bad)])
        raise EvaluationFailed(f"evaluator returned a non-finite value at z = {z}", witness=z)
    return V


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
    return float(margins[i]), complex(points[i])


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


def _holomorphy(F: Evaluator, zs: np.ndarray, dist: np.ndarray, endpoint: float, sign: int) -> tuple[float, complex]:
    """(margin, witness) of holomorphy off the claimed ray, stencil-sampled at ``zs`` for an opaque F.

    An atomic F is exact: a node at depth sign (endpoint - t) / (1 + |endpoint|) > 0 is a pole in the gap.
    """
    if F._nodes is None:
        return _worst(zs, TOL_CR - _cr_residuals(F, zs, dist))
    depth = sign * (endpoint - F._nodes) / (1.0 + abs(endpoint))
    if depth.max(initial=0.0) <= 0.0:
        return TOL_CR, complex(zs[0])  # residual 0 at every point
    i = int(np.argmax(depth))  # the first of the deepest
    return -float(depth[i]), complex(F._nodes[i])


def _growth_ratio(F: Evaluator, base: float) -> tuple[float, complex]:
    """Ratio of y*||F(iy)|| between 2*base and base; ~1 for bounded decay."""
    s1 = base * float(np.linalg.norm(_values(F, np.array([1j * base]))))
    s2 = 2.0 * base * float(np.linalg.norm(_values(F, np.array([2j * base]))))
    if s1 <= 1e-300:
        return 1.0, 2j * base
    return s2 / s1, 2j * base


def _y_norm_bounded(F: Evaluator) -> tuple[float, complex]:
    """(margin, witness) of the bounded-growth condition of the bounded classes.

    The growth ratio is probed at y = max(2^20, 2^depth), depth being
    where the mass ladder converges: only there is y past the scale of the
    atoms, so an atom far out does not read as unbounded growth.
    """
    base = 2.0**20
    try:
        depth = limit_at_infinity(F, "y_scaled").ladder_depth
    except NoConvergence:
        return -1.0, 2j * base
    ratio, witness = _growth_ratio(F, max(base, 2.0**depth))
    return 0.5 - (ratio - 1.0), witness


def _decay_at_infinity(F: Evaluator) -> tuple[float, complex]:
    """(margin, witness) of the vanishing plain limit of the decaying classes."""
    try:
        margin = DECAY_TOL - float(np.linalg.norm(limit_at_infinity(F, "plain_iy").value))
    except NoConvergence:
        margin = -1.0
    return margin, 1j * 2.0**20


# Condition at infinity -> (its certificate margin, what a nonzero gamma contradicts in extract_params).
_AT_INFINITY = {
    "y_norm_bounded": (_y_norm_bounded, "bounded class requires a vanishing plain limit"),
    "decay_at_infinity": (_decay_at_infinity, "plain limit does not vanish for the decaying class"),
}


def certify_class(
    F: Evaluator,
    endpoint: float,
    kind: str,
    grid: GridConfig = DEFAULT_GRID,
    tol_cert: float = TOL_CERT,
) -> Certificate:
    """Certify membership of an evaluator in one of the classes of ``CLASSES``.

    F is evaluated once on the whole grid (one batch); every condition
    reads those values.
    """
    kind = kind.lower()
    spec = _class_spec(kind)
    zs = endpoint + _grid_offsets(spec.side, grid)
    V = _values(F, zs)
    scale = 1.0 + norm2(V)  # PSD margins are lambda_min / (1 + ||F(z)||)
    dist = F.distance(zs)
    index = np.arange(zs.size)
    is_upper = index < grid.n_upper
    on_gap = index >= grid.n_upper + grid.n_lower

    conditions = []

    def add(name, mask, margins):
        """Worst of margins(indices of the masked points), witnessed in grid order."""
        sub = np.flatnonzero(mask)
        margin, witness = _worst(zs[sub], margins(sub))
        conditions.append({"name": name, "margin": margin, "witness": witness})

    # A gap point on the evaluator's own excluded ray (a class claimed for
    # the other side) leaves the difference stencil no room: holomorphy is
    # sampled only where the evaluator is defined.
    defined = dist > 0.0
    margin, witness = _holomorphy(F, zs[defined], dist[defined], endpoint, spec.sign)
    conditions.append({"name": "holomorphic", "margin": margin, "witness": witness})
    herglotz = lambda W, s: _lam_min(_im(W)) / s  # noqa: E731
    add("herglotz_upper", is_upper, lambda i: herglotz(V[i], scale[i]))
    add("herglotz_lower_conj", ~is_upper & ~on_gap, lambda i: _lam_min(-_im(V[i])) / scale[i])

    if spec.gap:
        # sign F PSD on the gap and, for a half_plane class (whose gap has its side's sign), where
        # Re z lies left of alpha (S) resp. right of beta (T) or on the gap: one lambda_min of sign F
        # on those points serves both conditions (per matrix, so each margin keeps its bits).
        half = (spec.sign * (zs.real - endpoint) < 0) | on_gap if spec.half_plane else on_gap
        lam = np.zeros(zs.size)
        lam[half] = _lam_min(V[half] if spec.gap > 0 else -V[half]) / scale[half]
        add("psd_on_gap" if spec.gap > 0 else "npsd_on_gap", on_gap, lam.__getitem__)
        if spec.half_plane:
            add("re_psd_left" if spec.sign > 0 else "re_npsd_right", half, lam.__getitem__)
    if spec.mulz:
        factor = spec.sign * (zs - endpoint)  # (z - alpha) resp. (beta - z), from the shared values

        def mulz(i):
            P = _finite(zs[i], factor[i, None, None] * V[i])
            return herglotz(P, 1.0 + norm2(P))

        add("herglotz_upper_mulz", is_upper, mulz)
    if spec.infinity is not None:
        margin, witness = _AT_INFINITY[spec.infinity][0](F)
        conditions.append({"name": spec.infinity, "margin": margin, "witness": witness})

    verdict = all(c["margin"] >= -tol_cert for c in conditions)
    return Certificate(kind, verdict, tuple(conditions), grid, tol_cert)


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
        if exc.last_estimates is None:  # no ladder ran: a node of F lies past its last rung
            raise
        raise ClassMismatch(f"the plain limit of class {claimed} diverges: {exc}") from exc
    record: dict = {"claimed": claimed, "alpha": alpha, "gamma": plain}
    if spec.infinity != "y_norm_bounded":
        radial = gamma(limit_at_infinity(F, "radial", alpha=alpha, phi=spec.phi))
        record["gamma_radial"] = radial
        gap = float(np.linalg.norm(plain.value - radial.value))
        budget = 2.0 * (plain.error_bound + radial.error_bound) + PARAMS_TOL
        if gap > budget:
            raise ClassMismatch(f"vertical and radial limits disagree by {gap:.3e} (budget {budget:.3e})")
    if spec.infinity is not None and float(np.linalg.norm(plain.value)) > PARAMS_TOL:
        raise ClassMismatch(_AT_INFINITY[spec.infinity][1])
    if spec.infinity == "y_norm_bounded":
        record["mass"] = limit_at_infinity(F, "y_scaled")
    return record


# ---------------------------------------------------------------------------
# Structural subspace checks
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _sample_offsets(side: str, n: int, seed: int) -> np.ndarray:
    """Sample points less the endpoint, read-only."""
    rng = np.random.default_rng(seed)
    out = np.zeros(n, dtype=complex)
    for j in range(n):
        off = rng.uniform(-3.0, 3.0)
        im = rng.uniform(0.5, 2.0) * (1 if j % 2 == 0 else -1)
        if j % 5 == 4:  # every fifth point on the real gap
            out[j] = (-1.0 if side == "right" else 1.0) * rng.uniform(0.5, 3.0)
        else:
            out[j] = complex(off, im)
    out.flags.writeable = False
    return out


def sample_points(endpoint: float, side: str, n: int = 10, seed: int = 7):
    """Deterministic off-ray sample points mixing both half-planes and the gap."""
    return (endpoint + _sample_offsets(side, n, seed)).tolist()


def range_projector(M: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the range of a Hermitian PSD matrix."""
    _, vecs, keep = range_split(M)
    V = vecs[:, keep]
    return V @ V.conj().T


def _svd_projectors(M: np.ndarray):
    """(range projectors, null projectors, ranks) of a stack of general complex matrices."""
    U, _, V, r = svd_rank(M, RTOL_RANK, RANK_ZERO)
    return U @ U.conj().swapaxes(-1, -2), np.eye(M.shape[-1]) - V @ V.conj().swapaxes(-1, -2), r


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


def kernel_range_report(repr_: Representation) -> dict:
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
    Pr, Pn, r = _svd_projectors(evaluator(repr_).batch_raw(sample_points(endpoint, side)))
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
    ranks = set(svd_rank(_values(F, zs), RTOL_RANK, RANK_ZERO)[3].tolist())
    if len(ranks) != 1:
        raise RankInstability(f"ranks {sorted(ranks)} disagree across samples")
    return ranks.pop(), True


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
    endpoint, side = endpoint_side(repr_)
    V = evaluator(repr_).batch_raw(sample_points(endpoint, side))
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
        raise ValueError(f"A must have q = {repr_.q} columns")
    Vr = svd_rank(A, NULL_RTOL_FACTOR * max(A.shape))[2]
    P = Vr @ Vr.conj().T  # orthogonal projector onto R(A*) = N(A)^perp
    Pn = np.eye(repr_.q, dtype=complex) - P
    S = _structural_sum(repr_)
    V = evaluator(repr_).batch_raw(sample_points(repr_.alpha, "right"))
    s = 1.0 + norm2(V)
    worst = lambda D: float(np.max(norm2(D) / s, initial=0.0))  # noqa: E731
    worst_null, worst_right, worst_left = worst(V @ Pn), worst(V @ P - V), worst(P @ V - V)
    s_par = 1.0 + float(np.linalg.norm(S, 2))
    dev_params = float(np.linalg.norm(S @ Pn, 2)) / s_par
    dev_range = float(np.linalg.norm(Pn @ S, 2)) / s_par

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
