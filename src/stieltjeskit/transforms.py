"""Moore-Penrose machinery and class-preserving maps.

The pseudoinverse maps return lazy :class:`~.representations.Evaluator`
objects (no closed-form parameters exist for their measures); the duality
reflection, congruence sums, constant shifts, direct sums, and transposes
act on representations and return representations with exactly mapped
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifier import rank_constancy, sample_points
from .errors import DimensionMismatch, ShiftNotPsd, UnsupportedKind
from .matmeasure import MatrixMeasure, as_hermitian, image_measure, is_psd, svd_rank
from .representations import (
    KINDS,
    Evaluator,
    Representation,
    StieltjesPair,
    endpoint_side,
    evaluator,
    map_fields,
)

# pinv keeps every singular value above rounding level (default rtol =
# 1e-12 * q), so the Penrose identities hold to near machine precision.
PINV_RTOL_FACTOR = 1e-12
# is_ep compares range projectors of given matrices, not of sampled
# function values, so its rank cut sits between pinv's and RTOL_RANK.
EP_RTOL = 1e-10
EP_ZERO = 1e-14  # sigma_1 at or below this: the matrix is EP trivially


@dataclass(frozen=True)
class PinvResult:
    pinv: np.ndarray
    rank: int
    singular_values: np.ndarray


def _pinv_stack(M: np.ndarray, rtol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pseudoinverses, ranks, singular values) of a stack of square matrices.

    Singular values at or below rtol * sigma_1 are treated as zero; a zero
    matrix has rank 0 and pseudoinverse 0.
    """
    U, s, Vh, r = svd_rank(M, rtol)
    keep = np.arange(s.shape[-1]) < r[:, None]
    s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    P = (Vh.conj().swapaxes(-1, -2) * s_inv[:, None, :]) @ U.conj().swapaxes(-1, -2)
    return P, r, s


def pinv(M, rtol: float | None = None) -> PinvResult:
    """SVD pseudoinverse with a relative singular-value cutoff.

    Singular values below rtol * sigma_1 are treated as zero; the default
    rtol is 1e-12 * q.  The four Penrose identities hold for the result.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    q = M.shape[0]
    P, r, s = _pinv_stack(M[None], PINV_RTOL_FACTOR * q if rtol is None else rtol)
    return PinvResult(P[0], int(r[0]), s[0])


def is_ep(M, tol: float = 1e-9) -> bool:
    """EP test: range of M equals range of M* (as orthogonal projectors)."""
    U, _, Vh, r = svd_rank(np.asarray(M, dtype=complex), EP_RTOL, EP_ZERO)
    r = int(r)
    if r == 0:
        return True
    Pu = U[:, :r] @ U[:, :r].conj().T
    Pv = Vh[:r, :].conj().T @ Vh[:r, :]
    return float(np.linalg.norm(Pu - Pv, 2)) <= tol


def ep_im_identity_defect(M, rtol: float | None = None) -> float:
    """Defect of im(M^+) = -M^+ (im M) (M^+)* (valid for EP matrices)."""
    M = np.asarray(M, dtype=complex)
    P = pinv(M, rtol).pinv
    im = lambda A: (A - A.conj().T) / 2j  # noqa: E731
    lhs = im(P)
    rhs = -P @ im(M) @ P.conj().T
    return float(np.linalg.norm(lhs - rhs, 2))


def _guarded_input(F, endpoint: float | None, side: str, what: str) -> tuple[Evaluator, float, str]:
    """(evaluator, endpoint, side) of a representation or Evaluator input, rank-probed.

    A representation supplies its own endpoint and side.
    """
    if isinstance(F, Evaluator):
        ev = F
    elif KINDS[F.KIND].endpoint is None:
        raise UnsupportedKind(f"{what}: unsupported input kind {F.KIND}")
    else:
        ev = evaluator(F)
        endpoint, side = endpoint_side(F)
    if endpoint is None:
        raise ValueError("endpoint is required for a bare Evaluator input")
    rank_constancy(ev, sample_points(endpoint, side, n=8, seed=11))  # raises RankInstability
    return ev, endpoint, side


def _neg_pinv(ev: Evaluator, zs: np.ndarray) -> np.ndarray:
    return -_pinv_stack(ev.batch_raw(zs), PINV_RTOL_FACTOR * ev.q)[0]


def pinv_map(F, endpoint: float | None = None, side: str = "right") -> Evaluator:
    """z -> -(z - a)^{-1} F(z)^+ (right ray) or -(b - z)^{-1} F(z)^+ (left).

    Maps the right-ray class into itself and dually for the left-ray
    class.  The input must have constant rank off the ray; an 8-point rank
    probe refuses inputs whose numerical rank jumps.
    """
    ev, endpoint, side = _guarded_input(F, endpoint, side, "pinv_map")
    if side == "right":
        batch = lambda zs: _neg_pinv(ev, zs) / (zs - endpoint)[:, None, None]  # noqa: E731
    else:
        batch = lambda zs: _neg_pinv(ev, zs) / (endpoint - zs)[:, None, None]  # noqa: E731
    return Evaluator.of_batch(ev.q, ev.excluded, batch)


def neg_pinv_map(F, endpoint: float | None = None, side: str = "right") -> Evaluator:
    """z -> -F(z)^+; exchanges the plain and product-form classes.

    Involutive on class members: applying it twice returns the original
    values wherever the rank is constant.
    """
    ev, _, _ = _guarded_input(F, endpoint, side, "neg_pinv_map")
    return Evaluator.of_batch(ev.q, ev.excluded, lambda zs: _neg_pinv(ev, zs))


# ---------------------------------------------------------------------------
# Duality reflection
# ---------------------------------------------------------------------------


def dual_map(repr_: Representation, target: float) -> Representation:
    """Reflection duality G(z) = -[F(a + b - conj(z))]*.

    Maps right-ray representations with endpoint a to left-ray ones with
    endpoint b = ``target`` (and back), preserving the matrix parameters
    and pushing the measure forward under t -> a + b - t.  Involution:
    dual_map(dual_map(r, b), a) == r exactly on atoms.
    """
    dual = KINDS[repr_.KIND].dual
    if dual is None:
        raise UnsupportedKind(f"dual_map not defined for kind {repr_.KIND}")
    e, _ = endpoint_side(repr_)
    b = float(target)
    values = map_fields(repr_, lambda _: b, lambda M: M, lambda mu: image_measure(mu, -1.0, e + b))
    return KINDS[dual].cls(*values.values())  # alpha and beta trade places


# ---------------------------------------------------------------------------
# Congruence arithmetic
# ---------------------------------------------------------------------------


def congruence_sum(terms) -> StieltjesPair:
    """sum_k A_k* F_k A_k for pairs F_k with a common alpha.

    Each term is (A_k, pair_k) with A_k of shape (q_k, q); the result is a
    StieltjesPair of size q with gamma = sum A* gamma_k A and the atom-wise
    congruence of the measures (shared nodes merged).
    """
    terms = list(terms)
    if not terms:
        raise ValueError("need at least one term")
    alphas = {p.alpha for _, p in terms}
    if len(alphas) != 1:
        raise DimensionMismatch(f"terms do not share alpha: {sorted(alphas)}")
    alpha = alphas.pop()
    q_out = None
    gamma = None
    nodes, weights = [], []
    for A, p in terms:
        A = np.asarray(A, dtype=complex)
        if A.ndim != 2 or A.shape[0] != p.q:
            raise DimensionMismatch(f"A has shape {A.shape}, pair has q = {p.q}")
        if q_out is None:
            q_out = A.shape[1]
            gamma = np.zeros((q_out, q_out), dtype=complex)
        elif A.shape[1] != q_out:
            raise DimensionMismatch("terms map to different output dimensions")
        gamma = gamma + A.conj().T @ p.gamma @ A
        nodes.append(p.mu.nodes)
        weights.append(A.conj().T @ p.mu.weights @ A)
    mu = MatrixMeasure.from_arrays(q_out, terms[0][1].mu.support, np.concatenate(nodes), np.concatenate(weights))
    return StieltjesPair(alpha, gamma, mu)


def shift(pair: StieltjesPair, A) -> StieltjesPair:
    """Add a constant Hermitian matrix A; legal only if gamma + A stays PSD."""
    A = as_hermitian(A)
    new_gamma = pair.gamma + A
    if not is_psd(new_gamma):
        raise ShiftNotPsd("gamma + A is not positive semidefinite")
    return StieltjesPair(pair.alpha, new_gamma, pair.mu)


def direct_sum(pairs) -> StieltjesPair:
    """Block-diagonal direct sum of pairs with a common alpha."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one pair")
    alphas = {p.alpha for p in pairs}
    if len(alphas) != 1:
        raise DimensionMismatch("pairs do not share alpha")
    qs = [p.q for p in pairs]
    q = sum(qs)
    offsets = np.cumsum([0] + qs[:-1])
    gamma = np.zeros((q, q), dtype=complex)
    weights = []
    for off, p in zip(offsets, pairs):
        sl = slice(off, off + p.q)
        gamma[sl, sl] = p.gamma
        big = np.zeros((len(p.mu.nodes), q, q), dtype=complex)
        big[:, sl, sl] = p.mu.weights
        weights.append(big)
    nodes = np.concatenate([p.mu.nodes for p in pairs])
    mu = MatrixMeasure.from_arrays(q, pairs[0].mu.support, nodes, np.concatenate(weights))
    return StieltjesPair(alphas.pop(), gamma, mu)


def _transpose_measure(mu: MatrixMeasure) -> MatrixMeasure:
    return MatrixMeasure.from_arrays(mu.q, mu.support, mu.nodes, mu.weights.swapaxes(1, 2))


def transpose_map(repr_: Representation) -> Representation:
    """Transpose every matrix parameter and atom weight.

    eval(transpose_map(r), z) equals eval(r, z) transposed, exactly.
    """
    return type(repr_)(**map_fields(repr_, float, np.transpose, _transpose_measure))
