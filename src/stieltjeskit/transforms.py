"""Moore-Penrose machinery and class-preserving maps.

The pseudoinverse maps build the image of a representation in closed
form: the image of an affine term plus atoms is again one, whose poles
are the eigenvalues of a Hermitian matrix, and they return its atomic
evaluator.  A bare :class:`~.representations.Evaluator`, an sinf/tinf
triple under ``pinv_map`` and a measure of more than _CLOSED_FORM_COLUMNS
columns take the lazy map instead, one SVD per point.  The duality
reflection, congruence sums, constant shifts, direct sums and transposes
act on representations and return representations with exactly mapped
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, ShiftNotPsd, UnsupportedKind
from .matmeasure import EP_ZERO, EPS_MERGE, PINV_RTOL_FACTOR, PROJ_TOL, RANGE_RTOL, MatrixMeasure, _square, as_hermitian
from .matmeasure import _im, finite, image_measure, is_psd, norm2, range_split, right_ray, svd_rank
from .representations import (
    KINDS,
    Evaluator,
    Representation,
    StieltjesPair,
    _structural_sum,
    convert,
    endpoint_side,
    evaluator,
    map_fields,
    measure_of,
    rank_constancy,
    sample_points,
    sampled_values,
)


@dataclass(frozen=True)
class PinvResult:
    pinv: np.ndarray
    rank: int
    singular_values: np.ndarray


def _pinv_stack(M: np.ndarray, rtol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pseudoinverses, ranks, singular values) of a stack of matrices.

    Singular values at or below rtol * sigma_1 are treated as zero; a zero
    matrix has rank 0 and pseudoinverse 0.
    """
    U, s, V, r = svd_rank(M, rtol)
    # The mask, not the cut columns alone: 1/s of a cut 0 or subnormal s is inf, and 0 * inf is nan.
    s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=np.arange(s.shape[-1]) < r[:, None])
    return (V * s_inv[:, None, :]) @ U.conj().swapaxes(-1, -2), r, s


def pinv(M) -> PinvResult:
    """SVD pseudoinverse with a relative singular-value cutoff.

    Singular values at or below PINV_RTOL_FACTOR * q * sigma_1 are treated
    as zero.  The four Penrose identities hold for the result.
    """
    M = _square(M)
    P, r, s = _pinv_stack(M[None], PINV_RTOL_FACTOR * M.shape[0])
    return PinvResult(P[0], int(r[0]), s[0])


def is_ep(M) -> bool:
    """EP test: range of M equals range of M* (as orthogonal projectors)."""
    U, _, V, _ = svd_rank(_square(M), RANGE_RTOL, EP_ZERO)
    return float(norm2(U @ U.conj().T - V @ V.conj().T)) <= PROJ_TOL


def ep_im_identity_defect(M) -> float:
    """Defect of im(M^+) = -M^+ (im M) (M^+)* (valid for EP matrices)."""
    M = _square(M)
    P = pinv(M).pinv
    lhs = _im(P)
    rhs = -P @ _im(M) @ P.conj().T
    return float(norm2(lhs - rhs))


def _svd_input(F, endpoint: float | None, side: str) -> tuple[Evaluator, float, str]:
    """(evaluator, endpoint, side) for the SVD path; a bare Evaluator is rank-probed first.

    A representation supplies its own endpoint and side, and its rank is that of its structural sum.
    """
    if not isinstance(F, Evaluator):
        return evaluator(F), *endpoint_side(F)
    if endpoint is None:
        raise InvalidArgument("endpoint is required for a bare Evaluator input")
    rank_constancy(F, sample_points(endpoint, side, n=8, seed=11))  # raises RankInstability
    return F, endpoint, side


def _neg_pinv(ev: Evaluator, zs: np.ndarray) -> np.ndarray:
    return -_pinv_stack(sampled_values(ev, zs), PINV_RTOL_FACTOR * ev.q)[0]


def _pair_pinv(p: StieltjesPair) -> StieltjesPair:
    """The pair of G(z) = -(z - alpha)^{-1} F(z)^+ for a pair F, in closed form.

    On R(S), S the structural sum and U an orthonormal basis of it, F = U F~ U* and G = -U H^{-1} U*
    with H(z) = (z - alpha) F~(z) = Hc + z g + L' (T' - z)^{-1} L'*: g = U* gamma U,
    L = U* [sqrt(c_k) L_k] with W_k = L_k L_k* at its rank, T the nodes repeated per column,
    Hc = -alpha g - L L*, and L' = L E* with E the rows of sqrt(T - alpha) off alpha.  Split g into
    its range P (eigenvalues Gam) and null space N, and set A = P* L, B = N* L, Y = N (B^+)*.
    H x = y is the Hermitian pencil [[Hc + z g, L'], [L'*, z - T']] [x; w] = [y; 0]; its N rows
    hold no z, and eliminating them (N* Hc N = -B B*) leaves a pencil on (P* x, w) with z-part
    J = diag(Gam, I).  With X = [A; -E] and the projector Pi = B^+ B onto R(B*), its constant part
    is -alpha J - X (I - Pi) X*, so

        -H^{-1}(z) = Y Y* + sum_j R_j R_j* / (Lam_j - z),  Lam = alpha + s^2,  O = J^{-1/2} X (I - Pi),

    with s the singular values of O, V its left singular vectors and R = ([P, 0] - Y X*) J^{-1/2} V;
    the left null space of O, if any, carries the poles at alpha.  Hence gamma' = Y Y*, and each pole
    carries the rank-one weight R_j R_j* over its kernel numerator 1 + Lam_j - alpha: every weight
    is PSD as built, with no sum cancelled and no division by Lam_j - alpha.  Lam_j - alpha = s_j^2,
    so every pole lies on the ray.  One within EPS_MERGE of alpha is placed at alpha, as
    canonicalization merges nodes.

    A column of L or E for a node t has size about sqrt(1 + t - alpha), so with a far node the
    columns of B and O are graded.  They are taken in descending node order and B^+ is that of the
    tall B*: an SVD then keeps the small singular values to relative accuracy.  The eigenvalues of
    O O*, or the SVD of the wide B, would lose eps (1 + t - alpha) absolutely: with a node at 8e12,
    a spurious pole 8e-4 from alpha.
    """
    a, q, mu = p.alpha, p.q, p.mu
    _, vecs, keep = range_split(_structural_sum(p))
    U = vecs[:, keep]
    nodes = mu.nodes[::-1]  # descending: the columns of B and O fall off with the node
    w, vecs, keep = range_split(mu.weights[::-1])
    message = "a weight times its kernel numerator 1 + t - alpha overflows"
    factors = finite(lambda: vecs * np.sqrt(np.where(keep, w, 0.0) * (1.0 + nodes - a)[:, None])[:, None, :], message)
    cols = keep.reshape(-1)  # atom k, column j at k q + j
    L = U.conj().T @ factors.transpose(1, 0, 2).reshape(q, -1)[:, cols]
    t = np.repeat(nodes, q)[cols]
    g, vecs, keep = range_split(U.conj().T @ p.gamma @ U)
    P, N, gam = vecs[:, keep], vecs[:, ~keep], g[keep]
    B = N.conj().T @ L
    B_pinv = _pinv_stack(B.conj().T[None], PINV_RTOL_FACTOR * max(B.shape))[0][0].conj().T
    Y = N @ B_pinv.conj().T
    off = t > a
    X = np.vstack((P.conj().T @ L, -np.eye(t.size)[off] * np.sqrt(t[off] - a)[:, None]))
    scale = 1.0 / np.sqrt(np.concatenate((gam, np.ones(off.sum()))))
    O = scale[:, None] * (X - X @ B_pinv @ B)
    V, s, _, r = svd_rank(O[None], 0.0)  # every singular value but an exact 0 keeps its vector
    V, s = V[0], s[0]
    M = (np.hstack((P, np.zeros((P.shape[0], off.sum())))) - Y @ X.conj().T) * scale
    R = M @ V  # column j is R_j
    Z = M - R @ V.conj().T if r[0] < O.shape[0] else M[:, :0]  # M on N(O*): the poles at alpha
    poles = finite(lambda: a + s**2, "a pole alpha + s^2 of the image lies past the largest float")
    lam = np.where(s**2 <= EPS_MERGE * (1.0 + np.abs(poles)), a, poles)  # as canonicalization merges
    nodes = np.concatenate(([a], lam))
    rank_one = R.T[:, :, None] * R.conj().T[:, None, :]  # R_j R_j*
    weights = np.concatenate(((Z @ Z.conj().T)[None], rank_one / (1.0 + lam - a)[:, None, None]))
    mu = MatrixMeasure.from_arrays(q, right_ray(a), nodes, U @ weights @ U.conj().T)
    return StieltjesPair(a, U @ Y @ Y.conj().T @ U.conj().T, mu)


# Each pair kind and its product form: F(z) = (z - alpha) P(z) resp. (beta - z) P(z), P the pair.
_PRODUCT = {"stieltjes_pair": "sinf_triple", "t_pair": "tinf_triple"}
_PAIR = {product: pair for pair, product in _PRODUCT.items()}

# The closed form is dense and cubic in the measure's columns m (nodes times q); the SVD map costs
# O(m q^2) per point.  Single runs on one BLAS thread of a 2-CPU x86-64 machine, a pair's closed-form
# build and one s certificate against the SVD map of the same pair as a bare Evaluator and one (ms):
#   m = 128: 6-12 against 19-161 (q = 2, 4, 8);  m = 256: 31-38 against 20-27 (q = 2),
#   27-39 against 52 (q = 4), 34 against 192 (q = 8);  m = 512: 196-266 against 24-220;
#   m = 1024: 1292-1354 against 32-133;  m = 2000: 8418 against 145 (q = 4).
# So the crossover lies between 128 and 256 columns at q = 2 and between 256 and 512 at q = 4 and 8.
# The bound stays at 128: moving it would change the certificates of 129- to 512-column inputs, it
# keeps the test suite's largest pinned inputs (q = 8, n = 500) on the SVD map, and no benchmark pinv
# input has more than 15 columns.
_CLOSED_FORM_COLUMNS = 128


def _closed_form(F, what: str) -> bool:
    """Whether F's image is built in closed form: F is a representation with at most _CLOSED_FORM_COLUMNS columns."""
    if isinstance(F, Evaluator):
        return False
    if KINDS[F.KIND].endpoint is None:
        raise UnsupportedKind(f"{what}: unsupported input kind {F.KIND}")
    return measure_of(F).nodes.size * F.q <= _CLOSED_FORM_COLUMNS


def _pinv_image(r: Representation) -> Representation:
    """The pair of z -> -(z - a)^{-1} r(z)^+ (right ray) or t-pair of -(b - z)^{-1} r(z)^+ (left ray).

    r is a pair, kk_pair or s0, or a left-ray kind, which goes through dual_map.
    """
    e, side = endpoint_side(r)
    if side == "left":
        return dual_map(_pinv_image(dual_map(r, e)), e)
    return _pair_pinv(convert(r, "stieltjes_pair"))


def pinv_map(F, endpoint: float | None = None, side: str = "right") -> Evaluator:
    """z -> -(z - a)^{-1} F(z)^+ (right ray) or -(b - z)^{-1} F(z)^+ (left).

    Maps the right-ray class into itself and dually for the left-ray
    class.  A representation's image is built in closed form and returned
    as its atomic evaluator, except for an sinf/tinf triple (its image has
    a double pole at the endpoint) and a measure of more than
    _CLOSED_FORM_COLUMNS columns: those, and a bare Evaluator, take one SVD
    per point.  A bare Evaluator must have constant rank off the ray; an
    8-point rank probe refuses one whose numerical rank jumps.
    """
    if _closed_form(F, "pinv_map") and F.KIND not in _PAIR:
        return evaluator(_pinv_image(F))
    ev, endpoint, side = _svd_input(F, endpoint, side)
    sign = 1.0 if side == "right" else -1.0  # (z - a) resp. (b - z)
    return Evaluator.of_batch(ev.q, ev.excluded, lambda zs: _neg_pinv(ev, zs) / (sign * (zs - endpoint))[:, None, None])


def neg_pinv_map(F, endpoint: float | None = None, side: str = "right") -> Evaluator:
    """z -> -F(z)^+; exchanges the plain and product-form classes.

    Involutive on class members: applying it twice returns the original
    values wherever the rank is constant.  A representation's image is
    built in closed form as pinv_map's is: -F^+ = (z - a) G for a plain F
    with pinv_map image G, and -F^+ = -(z - a)^{-1} P^+ for a product form
    F = (z - a) P (mirrored on the left ray).
    """
    if not _closed_form(F, "neg_pinv_map"):
        ev, _, _ = _svd_input(F, endpoint, side)
        return Evaluator.of_batch(ev.q, ev.excluded, lambda zs: _neg_pinv(ev, zs))
    if F.KIND in _PAIR:
        return evaluator(_pinv_image(convert(F, _PAIR[F.KIND])))
    image = _pinv_image(F)
    return evaluator(convert(image, _PRODUCT[image.KIND]))


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
        raise InvalidArgument("need at least one term")
    alphas = {p.alpha for _, p in terms}
    if len(alphas) != 1:
        raise DimensionMismatch(f"terms do not share alpha: {sorted(alphas)}")
    As = []
    for A, p in terms:  # every term is checked, in order, before any arithmetic
        A = np.asarray(A, dtype=complex)
        if A.ndim != 2 or A.shape[0] != p.q:
            raise DimensionMismatch(f"A has shape {A.shape}, pair has q = {p.q}")
        As.append(A)
        if A.shape[1] != As[0].shape[1]:
            raise DimensionMismatch("terms map to different output dimensions")
    q_out = As[0].shape[1]
    gamma, nodes, weights = np.zeros((q_out, q_out), dtype=complex), [], []  # from zero: a -0.0 sum is 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing entry fails the constructors' finiteness check
        for A, (_, p) in zip(As, terms):
            gamma = gamma + A.conj().T @ p.gamma @ A
            nodes.append(p.mu.nodes)
            weights.append(A.conj().T @ p.mu.weights @ A)
    mu = MatrixMeasure.from_arrays(q_out, terms[0][1].mu.support, np.concatenate(nodes), np.concatenate(weights))
    return StieltjesPair(alphas.pop(), gamma, mu)


def shift(pair: StieltjesPair, A) -> StieltjesPair:
    """Add a constant Hermitian matrix A; legal only if gamma + A stays PSD."""
    A = as_hermitian(A)
    new_gamma = pair.gamma + A
    if not is_psd(new_gamma):
        raise ShiftNotPsd("gamma + A is not positive semidefinite")
    return StieltjesPair(pair.alpha, new_gamma, pair.mu)


def direct_sum(pairs) -> StieltjesPair:
    """Block-diagonal direct sum of pairs with a common alpha.

    The congruence sum of the pairs with the block-selection rows of the identity.
    """
    pairs = list(pairs)
    rows = np.eye(sum(p.q for p in pairs))
    ends = np.cumsum([p.q for p in pairs])
    return congruence_sum((rows[end - p.q : end], p) for end, p in zip(ends, pairs))


def _transpose_measure(mu: MatrixMeasure) -> MatrixMeasure:
    return MatrixMeasure.from_arrays(mu.q, mu.support, mu.nodes, mu.weights.swapaxes(1, 2))


def transpose_map(repr_: Representation) -> Representation:
    """Transpose every matrix parameter and atom weight.

    eval(transpose_map(r), z) equals eval(r, z) transposed, exactly.
    """
    return type(repr_)(**map_fields(repr_, float, np.transpose, _transpose_measure))
