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
array operations: weights are checked finite, symmetrized and PSD-checked
(one stacked ``eigvalsh``; the first failing atom in input order raises),
nodes stably sorted ascending, near-duplicate nodes merged by weight
addition, zero weights dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DegenerateMap,
    DimensionMismatch,
    NonFiniteKernel,
    NonPsdDensity,
    NotHermitian,
    NotPsd,
    StieltjesKitError,
    SupportViolation,
)

# Tolerance policy: every cutoff of the library, each with its reason; the
# modules import the names they use.  Relative ones scale by 1 + magnitude.
EPS_HERM = 1e-10  # ||M - M*||_2 allowed in a Hermitian input, relative: its rounding
EPS_PSD = 1e-10  # lambda_min allowed below zero in a PSD input, relative: its rounding
EPS_MERGE = 1e-12  # nodes closer than this, relative, are one atom
EPS_NEAR = 1e-9  # evaluation is refused within EPS_NEAR (1 + |z|) of the excluded set
EPS_CONVERT = 1e-13  # a term a conversion drops must vanish to rounding: gamma relative, B absolute
RESIDUE_TOL = 1e-6  # numeric residue (step 2^-26) against the analytic one, relative
TOL_CERT = 1e-9  # a certificate condition fails below margin -TOL_CERT
TOL_CR = 1e-6  # Cauchy-Riemann residual allowed: far above the O(h^4) error of the stencil
CR_STEP = 1e-5  # stencil step, relative to |z|
DECAY_TOL = 1e-7  # ||lim F(iy)|| allowed for a decaying class: above the ladder's error bound
RTOL_RANK = 1e-8  # rank cut of a sampled F(z), relative to sigma_1: far above its rounding, so stable
RANK_ZERO = 1e-12  # sigma_1 at or below this: F(z) counts as the zero matrix
PROJ_TOL = 1e-9  # projector deviation allowed between samples and parameters
RANGE_RTOL = 1e-10  # rank cut of a PSD parameter sum, relative to lambda_max
NULL_TOL = 1e-8  # deviation allowed in each null_domination condition, relative to ||F||
NULL_RTOL_FACTOR = np.finfo(float).eps  # null_domination cuts its k x q A at this max(k, q) sigma_1: A's rounding
EPS_LIM = 1e-10  # the ladder stops once the diagonal moves less than this, relative
PARAMS_TOL = 1e-6  # slack of the limits extract_params compares, on top of their error bounds
PINV_RTOL_FACTOR = 1e-12  # pinv cuts at PINV_RTOL_FACTOR q sigma_1, so Penrose holds to rounding
EP_RTOL = 1e-10  # rank cut of is_ep, relative: given matrices, not samples, so between pinv's and RTOL_RANK
EP_ZERO = 1e-14  # sigma_1 at or below this: the matrix is EP trivially
EP_TOL = 1e-9  # range projectors of M and M* may differ by this in is_ep

# Support kind -> ((t, endpoint) -> whether t lies in the set, the side the ray extends to, the mirror image).
_SUPPORT = {
    "right_ray": (np.greater_equal, "right", "left_ray"),
    "open_right_ray": (np.greater, "right", "open_left_ray"),
    "left_ray": (np.less_equal, "left", "right_ray"),
    "open_left_ray": (np.less, "left", "open_right_ray"),
    "line": (lambda t, _: True, None, "line"),
}


def _square(M) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    return M


def norm2(M: np.ndarray) -> np.ndarray:
    """Spectral norm of each matrix of a stack."""
    return np.linalg.norm(M, 2, axis=(-2, -1))


def _hermitian_stack(M: np.ndarray, psd: bool) -> np.ndarray:
    """Read-only symmetrized copies (M + M*)/2 of a stack of square matrices, validated.

    The first matrix in stack order that fails raises: a non-finite entry
    (StieltjesKitError, before any arithmetic touches it), a hermiticity
    defect ||M - M*||_2 above eps (1 + ||M||_2) (NotHermitian) or, with
    ``psd``, lambda_min(H) below -eps (1 + ||H||_2) (NotPsd); eps is EPS_PSD
    with ``psd`` and EPS_HERM without.  ||H||_2 is read off the eigenvalues;
    the two SVDs of the defect test run only for matrices that differ from
    their conjugate transpose.
    """
    eps = EPS_PSD if psd else EPS_HERM
    finite = np.isfinite(M).all(axis=(1, 2))
    m = len(M) if finite.all() else int(np.argmin(finite))
    M = M[:m]  # the matrices before the first non-finite one are checked first
    Mh = M.conj().swapaxes(1, 2)
    H = 0.5 * (M + Mh)
    D = M - Mh
    asym = D.any(axis=(1, 2))
    defect, scale = np.zeros(m), np.ones(m)
    if asym.any():
        defect[asym], scale[asym] = norm2(D[asym]), 1.0 + norm2(M[asym])
    lam_min, psd_scale = np.zeros(m), np.ones(m)
    if psd and M.shape[-1]:
        lam = np.linalg.eigvalsh(H)
        lam_min, psd_scale = lam[:, 0], 1.0 + np.maximum(-lam[:, 0], lam[:, -1])
    herm_bad = defect > eps * scale
    fail = herm_bad | (lam_min < -eps * psd_scale)
    if fail.any():
        k = int(np.argmax(fail))
        if herm_bad[k]:
            raise NotHermitian(f"hermiticity defect {defect[k]:.3e} exceeds {eps * scale[k]:.3e}")
        raise NotPsd(f"lambda_min {lam_min[k]:.3e} below -{eps * psd_scale[k]:.3e}")
    if m < len(finite):
        raise StieltjesKitError("matrix has a non-finite entry")
    H.flags.writeable = False
    return H


def as_hermitian(M) -> np.ndarray:
    """Validate finiteness and hermiticity within EPS_HERM; return the symmetrized copy."""
    return _hermitian_stack(_square(M)[None], psd=False)[0]


def as_psd(M) -> np.ndarray:
    """Validate that M is finite Hermitian PSD within EPS_PSD; returns symmetrized copy."""
    return _hermitian_stack(_square(M)[None], psd=True)[0]


def svd_rank(M, rtol: float, zero: float = 0.0):
    """Rank-cut SVD (U_r, s, V_r, r) of M, or of each matrix of a stack: every rank is decided here.

    r counts the singular values above rtol * sigma_1 (0 when sigma_1 <= zero).  U_r and V_r hold the
    singular vectors of the min(p, q) singular values s with the columns past r zeroed, so U_r U_r* and
    V_r V_r* project onto the ranges of M and M*.  For a stack of shape (m, p, q), r has shape (m,).
    """
    U, s, Vh = np.linalg.svd(M)
    k = s.shape[-1]
    s1 = s[..., :1] if k else np.zeros((*s.shape[:-1], 1))  # sigma_1: 0 for an empty matrix
    r = np.where(s1[..., 0] <= zero, 0, np.sum(s > rtol * s1, axis=-1))
    keep = np.arange(k) < r[..., None, None]  # the first r columns
    return U[..., :k] * keep, s, Vh[..., :k, :].conj().swapaxes(-1, -2) * keep, r


def _herm(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.conj().swapaxes(-1, -2))


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
        if self.kind not in _SUPPORT:
            raise ValueError(f"unknown support kind {self.kind!r}")
        object.__setattr__(self, "endpoint", float(self.endpoint))

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


def _weight_stack(q: int, weights) -> np.ndarray:
    """Validated symmetrized weights of shape (n, q, q), checked atom by atom in input order.

    An atom fails on its first failing check: square shape, finite
    entries, hermiticity, PSD, then the shape (q, q).
    """
    if not len(weights):
        return np.zeros((0, q, q), dtype=complex)
    try:
        W = np.asarray(weights, dtype=complex)
    except ValueError:  # ragged: the atoms differ in shape
        W = None
    if W is not None and W.shape[1:] == (q, q):
        return _hermitian_stack(W, psd=True)
    for w in weights:  # some atom is not q x q: the first failing atom raises
        shape = as_psd(w).shape
        if shape != (q, q):
            raise DimensionMismatch(f"weight shape {shape} != ({q}, {q})")


def _merge(t: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Add every sorted node within EPS_MERGE (1 + |t|) of its group's first node into that node."""
    ts = t.tolist()
    starts = [0]
    for i in range(1, len(ts)):
        if abs(ts[i] - ts[starts[-1]]) > EPS_MERGE * (1.0 + abs(ts[i])):
            starts.append(i)
    ends = starts[1:] + [len(ts)]
    return t[starts], np.stack([np.cumsum(W[i:j], axis=0)[-1] for i, j in zip(starts, ends)])


def _canonicalize(q: int, support: SupportSet, nodes, weights) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (nodes, weights): validated, stably sorted, near-duplicates merged, zero weights dropped.

    The weights are checked first, then the nodes.  A non-finite node lies
    outside every support set, whatever its weight.
    """
    W = _weight_stack(q, weights)
    t = np.asarray(nodes, dtype=float)
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
        raise SupportViolation(f"node {float(t[np.argmax(outside)])} outside support {support.kind}({support.endpoint})")
    t.flags.writeable = False
    W.flags.writeable = False
    return t, W


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
        if q < 1:
            raise DimensionMismatch("q must be a positive integer")
        nodes, weights = _canonicalize(q, support, nodes, weights)
        for name, value in (("q", q), ("support", support), ("nodes", nodes), ("weights", weights)):
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
        """Load a measure; all atom weights are read in one array conversion.

        Input that is not a regular array of finite [re, im] number pairs
        falls back to ``matrix_from_json`` atom by atom, which raises its
        typed error; atoms of differing shapes raise at construction.
        """
        support = SupportSet.from_json(obj["support"])
        atoms = obj.get("atoms", [])
        weights = _json_stack([a["W"] for a in atoms])
        if weights is None:
            weights = [matrix_from_json(a["W"]) for a in atoms]
        elif not np.isfinite(weights).all():
            raise StieltjesKitError("matrix has a non-finite entry")
        return MatrixMeasure.from_arrays(obj["q"], support, [a["t"] for a in atoms], weights)


def atom_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the leading (atom) axis, bit for bit as a loop adding each atom to zero in order.

    cumsum adds in atom order where np.sum may add pairwise; adding 0.0
    turns a -0.0 total into 0.0, as starting from zero does.
    """
    if not len(terms):
        return np.zeros(terms.shape[1:], dtype=complex)
    return np.cumsum(terms, axis=0)[-1] + 0.0


def total_mass(mu: MatrixMeasure) -> np.ndarray:
    """mu(Omega) = sum of all atom weights; PSD Hermitian."""
    return atom_sum(mu.weights)


def integrate(mu: MatrixMeasure, f: Callable[[float], complex]) -> np.ndarray:
    """Sum of f(t_k) W_k over the atoms; linear in f, integrate(1) = total mass."""
    values = []
    for t in mu.nodes.tolist():
        try:
            v = complex(f(t))
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise NonFiniteKernel(f"kernel raised at node {t}: {exc}") from exc
        if not np.isfinite(v.real) or not np.isfinite(v.imag):
            raise NonFiniteKernel(f"kernel not finite at node {t}: {v}")
        values.append(v)
    return atom_sum(np.array(values, dtype=complex)[:, None, None] * mu.weights)


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
    return MatrixMeasure.from_arrays(mu.q, _map_support(mu.support, a, b), a * mu.nodes + b, mu.weights)


def moments(mu: MatrixMeasure, m: int) -> list[np.ndarray]:
    """Power moments s_0 .. s_m, s_j = sum t_k^j W_k, each Hermitian."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return [integrate(mu, lambda t, j=j: t**j) for j in range(m + 1)]


def quadrature_ingest(
    density: Callable[[float], np.ndarray],
    q: int,
    a: float,
    b: float,
    n: int,
    support: SupportSet | None = None,
) -> MatrixMeasure:
    """Discretize a matrix density on [a, b] with n-point Gauss-Legendre.

    The atom at node t_i carries weight w_i * density(t_i); every sampled
    density value must pass the PSD tolerance.
    """
    if not (a < b):
        raise ValueError("interval must satisfy a < b")
    if n < 1:
        raise ValueError("need at least one node")
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
        raise ValueError("u must be nonzero")
    w = np.maximum(((u.conj() @ mu.weights) @ u).real, 0.0)
    return MatrixMeasure.from_arrays(1, mu.support, mu.nodes, w[:, None, None])


# --- JSON helpers for complex matrices ([re, im] pairs, row-major) ---


def matrix_to_json(M) -> list:
    """[re, im] pairs, row-major; a stack of matrices gives a list of matrices."""
    M = np.asarray(M, dtype=complex)
    return np.stack((M.real, M.imag), axis=-1).tolist()


def _json_stack(data) -> np.ndarray | None:
    """Stack of complex matrices from a list of JSON matrices, in one array conversion.

    None when ``data`` is not a regular (n, p, r) array of [re, im] number
    pairs (ragged, a non-pair entry, a string or null); the caller then
    finds the typed error matrix by matrix.
    """
    try:
        A = np.array(data)
    except ValueError:  # ragged
        return None
    if A.dtype.kind not in "biuf" or A.ndim != 4 or A.shape[-1] != 2:
        return None
    return np.ascontiguousarray(A, dtype=float).view(complex)[..., 0]


def matrix_from_json(rows: list) -> np.ndarray:
    """Inverse of matrix_to_json; ragged, non-2-D or non-finite input raises."""
    try:
        M = np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"malformed matrix: {exc}") from exc
    if M.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise StieltjesKitError("matrix has a non-finite entry")
    return M
