"""Finite atomic nonnegative Hermitian matrix measures.

A :class:`MatrixMeasure` is a finite list of (node, weight) atoms on a real
support set, with PSD Hermitian weights.  All measure-level plumbing lives
here: total mass, integration of scalar kernels, affine pushforwards,
power moments, quadrature discretization of densities, and scalar
projections u* mu u.

Everything is immutable and canonicalized at construction: weights are
symmetrized and PSD-checked, nodes sorted ascending, near-duplicate nodes
merged by weight addition, zero weights dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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

# Tolerance policy (relative, scaled by 1 + magnitude).
EPS_HERM = 1e-10
EPS_PSD = 1e-10
EPS_MERGE = 1e-12

_RAY_KINDS = ("right_ray", "open_right_ray", "left_ray", "open_left_ray", "line")


def _opnorm(M: np.ndarray) -> float:
    return float(np.linalg.norm(M, 2)) if M.size else 0.0


def as_hermitian(M, eps: float = EPS_HERM) -> np.ndarray:
    """Validate hermiticity within tolerance and return the symmetrized copy."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    scale = 1.0 + _opnorm(M)
    defect = _opnorm(M - M.conj().T)
    if defect > eps * scale:
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds {eps * scale:.3e}")
    H = 0.5 * (M + M.conj().T)
    H.flags.writeable = False
    return H


def as_psd(M, eps: float = EPS_PSD) -> np.ndarray:
    """Validate that M is Hermitian PSD within tolerance; returns symmetrized copy."""
    H = as_hermitian(M, eps)
    scale = 1.0 + _opnorm(H)
    lam_min = float(np.linalg.eigvalsh(H)[0]) if H.size else 0.0
    if lam_min < -eps * scale:
        raise NotPsd(f"lambda_min {lam_min:.3e} below -{eps * scale:.3e}")
    return H


def svd_rank(M, rtol: float, zero: float = 0.0):
    """SVD (U, s, Vh) of M, or of each matrix of a stack, with the numerical rank r.

    r counts the singular values above rtol * sigma_1; it is 0 when
    sigma_1 <= zero.  For a stack of shape (m, p, q), r has shape (m,).
    """
    U, s, Vh = np.linalg.svd(M)
    s1 = s[..., :1]
    r = np.where(s1[..., 0] <= zero, 0, np.sum(s > rtol * s1, axis=-1))
    return U, s, Vh, r


def is_psd(M, eps: float = EPS_PSD) -> bool:
    try:
        as_psd(M, eps)
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
        if self.kind not in _RAY_KINDS:
            raise ValueError(f"unknown support kind {self.kind!r}")
        object.__setattr__(self, "endpoint", float(self.endpoint))

    def contains(self, t: float) -> bool:
        if not math.isfinite(t):
            return False
        a = self.endpoint
        if self.kind == "right_ray":
            return t >= a
        if self.kind == "open_right_ray":
            return t > a
        if self.kind == "left_ray":
            return t <= a
        if self.kind == "open_left_ray":
            return t < a
        return True  # line

    def distance(self, z: complex) -> float:
        """Distance from z to the closure of the support set."""
        z = complex(z)
        a = self.endpoint
        if self.kind == "line":
            return abs(z.imag)
        if self.kind in ("right_ray", "open_right_ray"):
            if z.real >= a:
                return abs(z.imag)
            return abs(z - a)
        if z.real <= a:
            return abs(z.imag)
        return abs(z - a)

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


def _canonicalize(q: int, support: SupportSet, atoms) -> tuple:
    """Sort, merge near-duplicates, drop zero weights, validate support."""
    cleaned = []
    for t, W in atoms:
        t = float(t)
        W = as_psd(W)
        if W.shape != (q, q):
            raise DimensionMismatch(f"weight shape {W.shape} != ({q}, {q})")
        cleaned.append((t, W))
    cleaned.sort(key=lambda tw: tw[0])

    merged: list[tuple[float, np.ndarray]] = []
    for t, W in cleaned:
        if merged and abs(t - merged[-1][0]) <= EPS_MERGE * (1.0 + abs(t)):
            t0, W0 = merged[-1]
            merged[-1] = (t0, W0 + W)
        else:
            merged.append((t, W))

    out = []
    for t, W in merged:
        if not np.any(W):
            continue
        if not support.contains(t):
            raise SupportViolation(f"node {t} outside support {support.kind}({support.endpoint})")
        W = np.ascontiguousarray(W)
        W.flags.writeable = False
        out.append((t, W))
    return tuple(out)


@dataclass(frozen=True)
class MatrixMeasure:
    """Finite atomic nonnegative Hermitian q x q measure on a real support set."""

    q: int
    support: SupportSet
    atoms: tuple = field(default=())

    def __post_init__(self):
        if self.q < 1:
            raise DimensionMismatch("q must be a positive integer")
        object.__setattr__(self, "atoms", _canonicalize(self.q, self.support, self.atoms))

    @property
    def nodes(self) -> np.ndarray:
        return np.array([t for t, _ in self.atoms], dtype=float)

    @property
    def weights(self) -> np.ndarray:
        """Stacked weights, shape (n_atoms, q, q)."""
        if not self.atoms:
            return np.zeros((0, self.q, self.q), dtype=complex)
        return np.stack([W for _, W in self.atoms])

    def is_zero(self) -> bool:
        return not self.atoms

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "support": self.support.to_json(),
            "atoms": [{"t": t, "W": matrix_to_json(W)} for t, W in self.atoms],
        }

    @staticmethod
    def from_json(obj: dict) -> "MatrixMeasure":
        support = SupportSet.from_json(obj["support"])
        atoms = [(a["t"], matrix_from_json(a["W"])) for a in obj.get("atoms", [])]
        return MatrixMeasure(obj["q"], support, atoms)


@dataclass(frozen=True)
class ScalarMeasure:
    """Finite atomic nonnegative scalar measure."""

    support: SupportSet
    atoms: tuple = field(default=())

    def __post_init__(self):
        cleaned = sorted((float(t), float(w)) for t, w in self.atoms)
        for t, w in cleaned:
            if w < -EPS_PSD:
                raise NotPsd(f"negative scalar weight {w} at node {t}")
            if not self.support.contains(t):
                raise SupportViolation(f"node {t} outside support")
        object.__setattr__(self, "atoms", tuple((t, max(w, 0.0)) for t, w in cleaned if w > 0.0))

    def integrate(self, f: Callable[[float], complex]) -> complex:
        return sum((complex(f(t)) * w for t, w in self.atoms), start=0.0 + 0.0j)

    def total_mass(self) -> float:
        return sum(w for _, w in self.atoms)


def total_mass(mu: MatrixMeasure) -> np.ndarray:
    """mu(Omega) = sum of all atom weights; PSD Hermitian."""
    out = np.zeros((mu.q, mu.q), dtype=complex)
    for _, W in mu.atoms:
        out += W
    return out


def integrate(mu: MatrixMeasure, f: Callable[[float], complex]) -> np.ndarray:
    """Sum of f(t_k) W_k over the atoms; linear in f, integrate(1) = total mass."""
    out = np.zeros((mu.q, mu.q), dtype=complex)
    for t, W in mu.atoms:
        try:
            v = complex(f(t))
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise NonFiniteKernel(f"kernel raised at node {t}: {exc}") from exc
        if not np.isfinite(v.real) or not np.isfinite(v.imag):
            raise NonFiniteKernel(f"kernel not finite at node {t}: {v}")
        out += v * W
    return out


_MIRROR = {
    "right_ray": "left_ray",
    "open_right_ray": "open_left_ray",
    "left_ray": "right_ray",
    "open_left_ray": "open_right_ray",
}


def _map_support(support: SupportSet, a: float, b: float) -> SupportSet:
    """Image of a support set under t -> a*t + b (a != 0); a < 0 mirrors a ray."""
    if support.kind == "line":
        return support
    return SupportSet(support.kind if a > 0 else _MIRROR[support.kind], a * support.endpoint + b)


def image_measure(mu: MatrixMeasure, a: float, b: float) -> MatrixMeasure:
    """Pushforward of mu under the affine map t -> a*t + b.

    Satisfies integrate(image, f) = integrate(mu, f o map) exactly for
    atomic measures.
    """
    a = float(a)
    b = float(b)
    if a == 0.0:
        raise DegenerateMap("affine map must have nonzero slope")
    support = _map_support(mu.support, a, b)
    atoms = [(a * t + b, W) for t, W in mu.atoms]
    return MatrixMeasure(mu.q, support, atoms)


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


def scalar_projection(mu: MatrixMeasure, u) -> ScalarMeasure:
    """The scalar measure u* mu u."""
    u = np.asarray(u, dtype=complex).reshape(-1)
    if u.shape[0] != mu.q:
        raise DimensionMismatch(f"vector length {u.shape[0]} != q = {mu.q}")
    if not np.any(u):
        raise ValueError("u must be nonzero")
    atoms = [(t, float(np.real(u.conj() @ W @ u))) for t, W in mu.atoms]
    return ScalarMeasure(mu.support, atoms)


# --- JSON helpers for complex matrices ([re, im] pairs, row-major) ---


def matrix_to_json(M) -> list:
    M = np.asarray(M, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in M]


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
