"""Finite atomic nonnegative Hermitian matrix measures.

A :class:`MatrixMeasure` on a real support set is stored once, as two
read-only arrays: ``nodes`` of shape (n,), ascending, and ``weights`` of
shape (n, q, q), PSD Hermitian.  ``atoms`` is a tuple of (t, W) pairs
derived from them.  All measure-level plumbing lives here and works on
the whole stack at once: total mass, integration of scalar kernels,
affine pushforwards, power moments, quadrature discretization of
densities, and scalar projections u* mu u.  Sums over the atoms add them
in node order, as a loop over the atoms would.

Everything is immutable and canonicalized at construction, by stacked
array operations.  Input is checked here, in the constructors, and the
JSON loaders only read fields.  The weight stack is checked whole, one
check at a time: its shape, finiteness, hermiticity, then PSD (the last
two read off one stacked ``eigvalsh``); the first failing check raises.
Then nodes are stably sorted ascending, near-duplicate nodes merged by
weight addition and zero weights dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DegenerateMap,
    DimensionMismatch,
    InvalidArgument,
    NonFiniteKernel,
    NonPsdDensity,
    NotHermitian,
    NotPsd,
    StieltjesKitError,
    SupportViolation,
    UnsupportedKind,
)

# Tolerance policy: every cutoff of the library, each with its reason; the
# modules import the names they use.  Relative ones scale by 1 + magnitude.
EPS_PSD = 1e-10  # ||M - M*||_2, and lambda_min below zero, allowed in a Hermitian (PSD) input, relative: its rounding
EPS_MERGE = 1e-12  # nodes closer than this, relative, are one atom
EPS_NEAR = 1e-9  # evaluation is refused within EPS_NEAR (1 + |z|) of the excluded set
EPS_CONVERT = 1e-13  # a term a conversion drops must vanish to rounding: gamma relative, B absolute
RESIDUE_TOL = 1e-6  # numeric residue (step 2^-26) against the analytic one, relative
TOL_CERT = 1e-9  # a certificate condition fails below margin -TOL_CERT
TOL_FIT = 1e-6  # holomorphy of an opaque F: rational-fit residual allowed on the grid, relative to F's largest value
FIT_RTOL = 1e-13  # the fit stops below this residual, relative: near rounding, so it resolves every pole the grid shows
DECAY_TOL = 1e-7  # ||lim F(iy)|| allowed for a decaying class: above the ladder's error bound
RTOL_RANK = 1e-8  # rank cut of a sampled F(z), relative to sigma_1: far above its rounding, so stable
RANK_ZERO = 1e-12  # sigma_1 at or below this: F(z) counts as the zero matrix
PROJ_TOL = 1e-9  # projector deviation allowed: samples against parameters, and the range projectors of is_ep
RANGE_RTOL = 1e-10  # rank cut of a given matrix, not a sample, relative to its largest eigen- or singular value
NULL_TOL = 1e-8  # deviation allowed in each null_domination condition, relative to ||F||
NULL_RTOL_FACTOR = np.finfo(float).eps  # null_domination cuts its k x q A at this max(k, q) sigma_1: A's rounding
EPS_LIM = 1e-10  # the ladder stops once the diagonal moves less than this, relative
RUNG_CEILING = 180  # first rung <= 2^180: past it, top rungs' y^2-growing samples, tableau or stop norm could overflow
PARAMS_TOL = 1e-6  # slack of the limits extract_params compares, on top of their error bounds
PINV_RTOL_FACTOR = 1e-12  # pinv cuts at PINV_RTOL_FACTOR q sigma_1, so Penrose holds to rounding
EP_ZERO = 1e-14  # sigma_1 at or below this: the matrix is EP trivially

# Support kind -> ((t, endpoint) -> whether t lies in the set, the side the ray extends to, the mirror image).
_SUPPORT = {
    "right_ray": (np.greater_equal, "right", "left_ray"),
    "open_right_ray": (np.greater, "right", "open_left_ray"),
    "left_ray": (np.less_equal, "left", "right_ray"),
    "open_left_ray": (np.less, "left", "open_right_ray"),
    "line": (lambda t, _: True, None, "line"),
}
_NORM_OVERFLOW = "a matrix's spectral norm exceeds the largest float"  # no bound or rank cut relative to it decides


def _numbers(data, what: str, kinds: str = "biuf") -> np.ndarray:
    """``data`` as an array of dtype ``kinds``; ragged, a string, null or an int past 64 bits is a DimensionMismatch."""
    try:
        A = np.asarray(data)
    except ValueError as exc:
        raise DimensionMismatch(f"{what} is not a regular array: {exc}") from None
    if A.dtype.kind not in kinds:
        raise DimensionMismatch(f"{what} must hold numbers, not strings, null or integers past 64 bits ({A.dtype})")
    return A.astype(complex if "c" in kinds else float, copy=False)


def _finite_entries(M: np.ndarray) -> np.ndarray:
    return finite(lambda: M, "matrix has a non-finite entry", StieltjesKitError)


def _square(M) -> np.ndarray:
    """M as a finite square complex matrix: the shape is checked first, then finiteness."""
    M = _numbers(M, "matrix", "biufc")
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    return _finite_entries(M)


def as_endpoint(value) -> float:
    """The endpoint as a float if it is one finite real number; not a number is a DimensionMismatch."""
    e = _numbers(value, "endpoint")
    if e.shape or not np.isfinite(e):
        raise StieltjesKitError(f"endpoint must be one finite number, got {value!r}")
    return float(e)


def is_count(n, least: int = 1) -> bool:
    """Whether n is an integer, numpy's too, of at least ``least``."""
    return isinstance(n, (int, np.integer)) and n >= least


def _scaled_gram(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(X* X, m) per matrix of a stack: m its largest |entry|, nan if one is not finite; X = M / m, 0 if m is 0 or nan.

    ||M||_2 = m sqrt(lambda_max(X* X)); as |X| <= 1, X* X cannot overflow as M* M does past |M| ~ 1e154.
    """
    m = np.abs(M).max(axis=(-2, -1), initial=0.0)
    X = np.where(np.isfinite(m)[..., None, None], M, 0j)
    X.view(float)[...] /= np.where(m > 0.0, m, 1.0)[..., None, None]  # not complex: that takes 1/m, inf if subnormal
    return X.conj().swapaxes(-1, -2) @ X, np.where(np.isfinite(m), m, np.nan)


def norm2(M: np.ndarray) -> np.ndarray:
    """Spectral norm of each matrix of a stack, from the largest eigenvalue of its scaled Gram matrix."""
    G, m = _scaled_gram(M)
    return m * np.sqrt(np.linalg.eigvalsh(G).max(axis=-1, initial=0.0))


def pow2_scaled(M: np.ndarray, axis=None) -> tuple[np.ndarray, np.ndarray]:
    """(M / 2^e, e), 2^e the scale of the largest |Re| or |Im| of M, or of each slice over ``axis`` (e keeps its axes).

    Exact, by ldexp: every real and imaginary part of the result lies below 1, and none over- or underflows on the way.
    """
    top = lambda part: np.abs(part).max(axis=axis, keepdims=True, initial=0.0)  # noqa: E731
    e = np.frexp(np.maximum(top(M.real), top(M.imag)))[1]
    X = np.ldexp(M.real, -e).astype(M.dtype)
    if np.iscomplexobj(M):
        X.imag = np.ldexp(M.imag, -e)
    return X, e


@np.errstate(over="ignore", under="ignore", invalid="ignore")
def fro(M, axis=None):
    """Frobenius norm of M, or over the pair of axes ``axis`` of each matrix of a stack, as np.linalg.norm takes it.

    Outside [2^-480, inf), where its sum of squares may over- or underflow, Blue's scaling as in LAPACK's nrm2: the
    norm of pow2_scaled(M) times 2^e; exact, so elsewhere the bits are numpy's."""
    n = np.linalg.norm(M, axis=axis)
    if (2.0**-480 <= n < np.inf) if axis is None else ((n >= 2.0**-480) & (n < np.inf)).all():
        return n
    X, e = pow2_scaled(np.asarray(M), axis)
    return np.ldexp(np.linalg.norm(X, axis=axis, keepdims=True), e).reshape(np.shape(n))[()]


@np.errstate(over="ignore", invalid="ignore")
def finite(compute: Callable[[], np.ndarray], message, error=NonFiniteKernel) -> np.ndarray:
    """compute() without numpy's overflow or invalid-value warnings; a non-finite entry raises error(message).

    The one overflow rule: a value past the largest float is a typed error, never a silent inf or a warning.
    ``message`` may instead be a function of the result that returns the error, so that it can name a point."""
    if not np.isfinite(value := compute()).all():
        raise message(value) if callable(message) else error(message)
    return value


def _hermitian_stack(M: np.ndarray, psd: bool) -> np.ndarray:
    """Read-only symmetrized copies H = (M + M*)/2 of a stack of finite square matrices, validated.

    One stacked eigvalsh over H and the skew parts K = (M - M*)/2i where M != M* decides, on the whole
    stack, hermiticity (the first ||M - M*||_2 = 2 ||K||_2 above EPS_PSD (1 + ||H||_2) raises NotHermitian),
    then with ``psd`` PSD (the first lambda_min(H) below -EPS_PSD (1 + ||H||_2) raises NotPsd).  An
    exactly Hermitian stack checked without ``psd`` runs none.  ||K||_2 meets half the bound: 2 ||K||_2 may overflow.
    """
    H, K = _herm(M), _im(M)
    asym = K.any(axis=(1, 2))
    if M.shape[-1] and (psd or asym.any()):
        Hs = H if psd else H[asym]  # the H whose norm (and, with psd, lambda_min) is read
        lam = finite(lambda: np.linalg.eigvalsh(np.concatenate((Hs, K[asym]))), _NORM_OVERFLOW, StieltjesKitError)
        lam_H, lam_K = lam[: len(Hs)], lam[len(Hs) :]
        bound = EPS_PSD * (1.0 + np.maximum(-lam_H[:, 0], lam_H[:, -1]))
        skew, cut = np.maximum(-lam_K[:, 0], lam_K[:, -1]), bound[asym] if psd else bound
        if (over := skew > 0.5 * cut).any():
            k = int(np.argmax(over))
            raise NotHermitian(f"hermiticity defect {2.0 * float(skew[k]):.3e} exceeds {cut[k]:.3e}")
        if psd and (under := lam_H[:, 0] < -bound).any():
            k = int(np.argmax(under))
            raise NotPsd(f"lambda_min {lam_H[k, 0]:.3e} below {-bound[k]:.3e}")
    H.flags.writeable = False
    return H


def as_hermitian(M) -> np.ndarray:
    """Validate finiteness and hermiticity within EPS_PSD; return the symmetrized copy."""
    return _hermitian_stack(_square(M)[None], psd=False)[0]


def as_psd(M) -> np.ndarray:
    """Validate that M is finite Hermitian PSD within EPS_PSD; returns symmetrized copy."""
    return _hermitian_stack(_square(M)[None], psd=True)[0]


def svd_rank(M, rtol: float, zero: float = 0.0):
    """Rank-cut SVD (U_r, s, V_r, r) of M, or of each matrix of a stack: every rank is decided here.

    r counts the singular values above rtol * sigma_1 (0 when sigma_1 <= zero); a sigma_1 past the largest float
    raises.  U_r and V_r hold the singular vectors of the min(p, q) singular values s with the columns past r zeroed,
    so U_r U_r* and V_r V_r* project onto the ranges of M and M*.  For a stack of shape (m, p, q), r has shape (m,).
    """
    U, s, Vh = np.linalg.svd(M)
    k = s.shape[-1]
    s1 = finite(lambda: s[..., :1] if k else np.zeros((*s.shape[:-1], 1)), _NORM_OVERFLOW, StieltjesKitError)
    r = np.where(s1[..., 0] <= zero, 0, np.sum(s > rtol * s1, axis=-1))
    keep = np.arange(k) < r[..., None, None]  # the first r columns
    return U[..., :k] * keep, s, Vh[..., :k, :].conj().swapaxes(-1, -2) * keep, r


def least_singular_vector(A: np.ndarray) -> np.ndarray:
    """The right singular vector of the least singular value of a p x m matrix A, p >= m: ||A v|| is least at it."""
    return np.linalg.svd(A, full_matrices=False)[2][-1].conj()


def _halved(M: np.ndarray) -> np.ndarray:
    """M / 2 by halving each real component (a complex product adds cross terms): M + M* overflows past 9e307."""
    return (np.ascontiguousarray(M, dtype=complex).view(float) * 0.5).view(complex)


def _herm(M: np.ndarray) -> np.ndarray:
    X = _halved(M)
    return X + X.conj().swapaxes(-1, -2)


def _im(M: np.ndarray) -> np.ndarray:
    X = _halved(M)
    return (X - X.conj().swapaxes(-1, -2)) / 1j


def range_split(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors, range mask) of a Hermitian PSD matrix or of each matrix of a stack.

    The mask keeps the eigenvalues above RANGE_RTOL * lambda_max; the masked eigenvectors are an
    orthonormal basis of the range and the others one of the null space.
    """
    vals, vecs = np.linalg.eigh(_herm(M))
    return vals, vecs, vals > RANGE_RTOL * np.maximum(vals[..., -1:], 1e-300)


def is_psd(M) -> bool:
    try:
        as_psd(M)
        return True
    except (NotHermitian, NotPsd):
        return False


@dataclass(frozen=True)
class SupportSet:
    """A ray or the whole line; the carrier of a measure's atoms.

    kind is one of right_ray [a, inf), open_right_ray (a, inf),
    left_ray (-inf, b], open_left_ray (-inf, b), or line.
    """

    kind: str
    endpoint: float = 0.0

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _SUPPORT:
            raise UnsupportedKind(f"unknown support kind {self.kind!r}")
        object.__setattr__(self, "endpoint", as_endpoint(self.endpoint))

    @property
    def side(self) -> str | None:
        """Where the ray extends from the endpoint, "right" or "left"; None for the line."""
        return _SUPPORT[self.kind][1]

    def contains(self, t):
        """Whether t lies in the set, elementwise for an array; a non-finite t never does."""
        t = np.asarray(t, dtype=float)
        inside = np.isfinite(t) & _SUPPORT[self.kind][0](t, self.endpoint)
        return inside if inside.ndim else bool(inside)

    def distance(self, z):
        """Distance from z to the closure of the support set; elementwise for an array of points."""
        z = np.asarray(z, dtype=complex)
        a = self.endpoint
        if self.side is None:
            d = np.abs(z.imag)
        else:  # hypot is abs() of a Python complex bit for bit; np.abs may differ in the last bit
            beside = z.real >= a if self.side == "right" else z.real <= a
            d = np.where(beside, np.abs(z.imag), np.hypot(z.real - a, z.imag))
        return d if d.ndim else float(d)

    def to_json(self) -> dict:
        return {"kind": self.kind, "endpoint": self.endpoint}

    @staticmethod
    def from_json(obj: dict) -> "SupportSet":
        return SupportSet(obj["kind"], obj.get("endpoint", 0.0))


def right_ray(alpha: float) -> SupportSet:
    return SupportSet("right_ray", alpha)


def open_right_ray(alpha: float) -> SupportSet:
    return SupportSet("open_right_ray", alpha)


def left_ray(beta: float) -> SupportSet:
    return SupportSet("left_ray", beta)


def open_left_ray(beta: float) -> SupportSet:
    return SupportSet("open_left_ray", beta)


def whole_line() -> SupportSet:
    return SupportSet("line", 0.0)


def _merge(t: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Add every sorted node within EPS_MERGE (1 + |t|) of its group's first node into that node."""
    ts = t.tolist()
    starts = [0]
    for i in range(1, len(ts)):
        if abs(ts[i] - ts[starts[-1]]) > EPS_MERGE * (1.0 + abs(ts[i])):
            starts.append(i)
    ends = starts[1:] + [len(ts)]
    return t[starts], np.stack([np.cumsum(W[i:j], axis=0)[-1] for i, j in zip(starts, ends)])


@dataclass(frozen=True, init=False)
class MatrixMeasure:
    """Finite atomic nonnegative Hermitian q x q measure on a real support set.

    Stored once as two read-only arrays: ``nodes`` of shape (n,), ascending,
    and ``weights`` of shape (n, q, q).  ``MatrixMeasure(q, support, atoms)``
    takes (t, W) pairs and ``from_arrays`` the two stacks; both run the same
    canonicalization.
    """

    q: int
    support: SupportSet
    nodes: np.ndarray
    weights: np.ndarray

    def __init__(self, q: int, support: SupportSet, atoms=()):
        atoms = list(atoms)
        self._canonical(q, support, [t for t, _ in atoms], [W for _, W in atoms])

    @classmethod
    def from_arrays(cls, q: int, support: SupportSet, nodes, weights) -> "MatrixMeasure":
        """The measure with atoms at ``nodes`` (n,) carrying ``weights`` (n, q, q)."""
        mu = cls.__new__(cls)
        mu._canonical(q, support, nodes, weights)
        return mu

    def _canonical(self, q, support, nodes, weights) -> None:
        """Set the fields: validated, stably sorted, near-duplicates merged, zero weights dropped, read-only.

        q is checked first, then the weight stack in one fixed order (its shape
        (n, q, q), finiteness, hermiticity and PSD), then the nodes.  A
        non-finite node lies outside every support set, whatever its weight.
        """
        if not is_count(q):
            raise DimensionMismatch(f"q must be a positive integer, got {q!r}")
        if not len(weights):
            try:
                W = np.zeros((0, q, q), dtype=complex)
            except ValueError as exc:  # a q past numpy's shape limit
                raise DimensionMismatch(f"no ({q}, {q}) matrix can be shaped: {exc}") from exc
        else:
            W = _numbers(weights, "weights", "biufc")
            if W.shape[1:] != (q, q):
                raise DimensionMismatch(f"weights of shape {W.shape} are not a stack of ({q}, {q}) matrices")
            W = _hermitian_stack(_finite_entries(W), psd=True)
        t = _numbers(nodes, "nodes")
        if t.shape != (len(W),):
            raise DimensionMismatch(f"{t.shape} nodes for {len(W)} weights")
        if np.isfinite(t).all():
            order = np.argsort(t, kind="stable")
            t, W = t[order], W[order]
            if np.any(np.diff(t) <= EPS_MERGE * (1.0 + np.abs(t[1:]))):
                t, W = _merge(t, W)
            keep = W.any(axis=(1, 2))
            t, W = t[keep], W[keep]
        outside = ~support.contains(t)
        if outside.any():
            node = float(t[np.argmax(outside)])
            raise SupportViolation(f"node {node} outside support {support.kind}({support.endpoint})")
        t.flags.writeable = False
        W.flags.writeable = False
        for name, value in (("q", q), ("support", support), ("nodes", t), ("weights", W)):
            object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixMeasure):
            return NotImplemented
        same = (self.q, self.support) == (other.q, other.support)
        return same and np.array_equal(self.nodes, other.nodes) and np.array_equal(self.weights, other.weights)

    def __reduce__(self):
        # Copies and unpickled measures are rebuilt, so their arrays are read-only too.
        return MatrixMeasure.from_arrays, (self.q, self.support, self.nodes, self.weights)

    @property
    def atoms(self) -> tuple:
        """The (t, W) pairs, a read-only view derived from the arrays."""
        return tuple(zip(self.nodes.tolist(), self.weights))

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "support": self.support.to_json(),
            "atoms": [{"t": t, "W": W} for t, W in zip(self.nodes.tolist(), matrix_to_json(self.weights))],
        }

    @staticmethod
    def from_json(obj: dict) -> "MatrixMeasure":
        """Load a measure: ``read_fields`` reads its fields (the weights as one array), the constructor checks them."""
        reads = {"q": None, "support": SupportSet.from_json, "atoms": _atoms_from_json}
        q, support, (nodes, weights) = read_fields(obj, "measure", reads, atoms=[])
        return MatrixMeasure.from_arrays(q, support, nodes, weights)


def atom_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the leading (atom) axis, bit for bit as a loop adding each atom to zero in order.

    cumsum adds in atom order where np.sum may add pairwise; adding 0.0
    turns a -0.0 total into 0.0, as starting from zero does.
    """
    if not len(terms):
        return np.zeros(terms.shape[1:], dtype=complex)
    return np.cumsum(terms, axis=0)[-1] + 0.0


def total_mass(mu: MatrixMeasure) -> np.ndarray:
    """mu(Omega) = sum of all atom weights; PSD Hermitian.  A sum that overflows raises NonFiniteKernel."""
    return finite(lambda: atom_sum(mu.weights), "the total mass is not finite: the sum of the weights overflows")


def integrate(mu: MatrixMeasure, f: Callable[[float], complex]) -> np.ndarray:
    """Sum of f(t_k) W_k over the atoms; linear in f, integrate(1) = total mass.  Not finite: NonFiniteKernel."""
    values = []
    for t in mu.nodes.tolist():
        try:
            v = complex(f(t))
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise NonFiniteKernel(f"kernel raised at node {t}: {exc}") from exc
        if not np.isfinite(v.real) or not np.isfinite(v.imag):
            raise NonFiniteKernel(f"kernel not finite at node {t}: {v}")
        values.append(v)
    message = "the integral is not finite: a term f(t) W or the sum over the atoms overflows"
    return finite(lambda: atom_sum(np.array(values, dtype=complex)[:, None, None] * mu.weights), message)


def _map_support(support: SupportSet, a: float, b: float) -> SupportSet:
    """Image of a support set under t -> a*t + b (a != 0); a < 0 mirrors a ray."""
    if support.side is None:
        return support
    return SupportSet(support.kind if a > 0 else _SUPPORT[support.kind][2], a * support.endpoint + b)


def image_measure(mu: MatrixMeasure, a: float, b: float) -> MatrixMeasure:
    """Pushforward of mu under the affine map t -> a*t + b.

    Satisfies integrate(image, f) = integrate(mu, f o map) exactly for
    atomic measures.
    """
    a = float(a)
    b = float(b)
    if a == 0.0:
        raise DegenerateMap("affine map must have nonzero slope")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing node fails the support check
        nodes = a * mu.nodes + b
    return MatrixMeasure.from_arrays(mu.q, _map_support(mu.support, a, b), nodes, mu.weights)


def moments(mu: MatrixMeasure, m: int) -> list[np.ndarray]:
    """Power moments s_0 .. s_m, s_j = sum t_k^j W_k, each Hermitian; one that is not finite raises NonFiniteKernel."""
    if not is_count(m, 0):
        raise InvalidArgument(f"m must be an integer >= 0, got {m!r}")
    return [integrate(mu, lambda t, j=j: t**j) for j in range(m + 1)]


QUADRATURE_MAX_NODES = 4096  # leggauss's companion matrix: 4096^2 doubles, 128 MiB


def quadrature_ingest(
    density: Callable[[float], np.ndarray],
    q: int,
    a: float,
    b: float,
    n: int,
    support: SupportSet | None = None,
) -> MatrixMeasure:
    """Discretize a matrix density on [a, b] with n-point Gauss-Legendre, 1 <= n <= QUADRATURE_MAX_NODES.

    The atom at node t_i carries weight w_i * density(t_i); every sampled
    density value must pass the PSD tolerance.  numpy's leggauss builds a
    dense n x n companion matrix, so the ceiling keeps it at 128 MiB.
    """
    if not ((a := as_endpoint(a)) < (b := as_endpoint(b))):  # typed before any arithmetic: a non-finite end raises
        raise InvalidArgument("interval must satisfy a < b")
    if not (is_count(n) and n <= QUADRATURE_MAX_NODES):
        raise InvalidArgument(f"the node count must be an integer from 1 to {QUADRATURE_MAX_NODES}, got {n!r}")
    x, w = np.polynomial.legendre.leggauss(n)
    nodes = 0.5 * (b - a) * x + 0.5 * (b + a)
    scale = 0.5 * (b - a)
    atoms = []
    for t, wi in zip(nodes, w):
        D = np.asarray(density(t), dtype=complex)
        try:
            D = as_psd(D)
        except (NotHermitian, NotPsd) as exc:
            raise NonPsdDensity(f"density at t={t} fails PSD tolerance: {exc}") from exc
        atoms.append((t, scale * wi * D))
    if support is None:
        support = whole_line()
    return MatrixMeasure(q, support, atoms)


def scalar_projection(mu: MatrixMeasure, u) -> MatrixMeasure:
    """The scalar measure u* mu u, as a 1 x 1 measure on the support of mu."""
    u = np.asarray(u, dtype=complex).reshape(-1)
    if u.shape[0] != mu.q:
        raise DimensionMismatch(f"vector length {u.shape[0]} != q = {mu.q}")
    if not np.any(u):
        raise InvalidArgument("u must be nonzero")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing weight fails the measure's finiteness check
        w = np.maximum(((u.conj() @ mu.weights) @ u).real, 0.0)
    return MatrixMeasure.from_arrays(1, mu.support, mu.nodes, w[:, None, None])


# --- JSON helpers for complex matrices ([re, im] pairs, row-major) ---


def matrix_to_json(M) -> list:
    """[re, im] pairs, row-major; a stack of matrices gives a list of matrices."""
    M = np.asarray(M, dtype=complex)
    return np.stack((M.real, M.imag), axis=-1).tolist()


def _json_complex(data, ndim: int) -> np.ndarray:
    """Complex array of ``ndim`` axes from nested JSON lists of [re, im] number pairs, in one conversion.

    The one array reader of the JSON loaders: anything but a regular array of number pairs is a
    DimensionMismatch, an empty list an empty array; the constructors check the values.
    """
    A = _numbers(data, "matrix")
    if A.shape == (0,):
        return np.zeros((0,) * ndim, dtype=complex)
    if A.ndim != ndim + 1 or A.shape[-1] != 2:
        raise DimensionMismatch(f"expected {ndim} axes of [re, im] pairs, got shape {A.shape}")
    return np.ascontiguousarray(A).view(complex)[..., 0]


def matrix_from_json(rows: list) -> np.ndarray:
    """Inverse of matrix_to_json for one matrix."""
    return _json_complex(rows, 2)


def _atoms_from_json(atoms) -> tuple[list, np.ndarray]:
    return [a["t"] for a in atoms], _json_complex([a["W"] for a in atoms], 3)


def read_fields(obj, what: str, reads: dict, **defaults) -> list:
    """[read(obj[name]) for name, read in reads], None reading a value as it is: the error boundary of a JSON loader.

    ``obj`` not a JSON object, a field missing from it and from ``defaults``, or a value its read
    cannot take (a KeyError or TypeError inside the read) is a DimensionMismatch naming the field.
    """
    if not isinstance(obj, dict):
        raise DimensionMismatch(f"{what} must be a JSON object, got {type(obj).__name__}")
    values = []
    for name, read in reads.items():
        if name not in obj and name not in defaults:
            raise DimensionMismatch(f"{what}: missing field {name!r}")
        value = obj.get(name, defaults.get(name))
        try:
            values.append(value if read is None else read(value))
        except (KeyError, TypeError) as exc:
            raise DimensionMismatch(f"{what}: malformed field {name!r}: {exc!r}") from exc
    return values
