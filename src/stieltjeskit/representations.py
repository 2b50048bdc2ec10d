"""Parameterizations of matrix Stieltjes-class functions and their evaluators.

An S-class function (holomorphic off a right ray [alpha, inf), PSD imaginary
part in the upper half-plane, PSD values left of alpha) admits several
equivalent parameterizations; the dual T-class lives on a left ray.  Each is
a small immutable record of matrices plus a :class:`~.matmeasure.MatrixMeasure`,
and evaluation is always a finite atomic sum:

* ``StieltjesPair(alpha, gamma, mu)``:       F(z) = gamma + sum (1+t-a)/(t-z) W
* ``KKPair(alpha, C, eta)``:                 F(z) = C + sum (1+t^2)/(t-z) W
* ``NevanlinnaTriple(A, B, nu)``:            F(z) = A + z B + sum (1+t z)/(t-z) W
* ``S0Measure(alpha, sigma)``:               F(z) = sum 1/(t-z) W
* ``SInfTriple(alpha, D, E, rho)``:          F(z) = -D + (z-a)[E + sum (1+t-a)/(t-z) W]
* ``TPair(beta, gamma, mu)``:                G(z) = -gamma + sum (1+b-t)/(t-z) W
* ``T0Measure(beta, sigma)``:                G(z) = sum 1/(t-z) W
* ``TInfTriple(beta, D, E, rho)``:           G(z) = D + (b-z)[-E + sum (1+b-t)/(t-z) W]

Conversions between them are exact atom-wise reweightings, never numeric
integration.

What a kind is (its fields and their constraints, support ray, kernel
numerator, affine part, default class, dual) is written once, in its
:class:`KindSpec` in the ``KINDS`` table; every function below that
depends on the kind reads that table.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatch,
    EvaluationFailed,
    IllegalConversion,
    InvalidArgument,
    NotAnAtom,
    PoleProximity,
    RankInstability,
    UnsupportedKind,
    UnsupportedPath,
)
from .matmeasure import EPS_CONVERT, EPS_MERGE, EPS_NEAR, RANK_ZERO, RESIDUE_TOL, RTOL_RANK, MatrixMeasure, SupportSet
from .matmeasure import as_endpoint, as_hermitian, as_psd, atom_sum, left_ray, matrix_from_json, matrix_to_json
from .matmeasure import finite, fro, read_fields, right_ray, svd_rank, total_mass, whole_line

# Field roles in a KindSpec.
ENDPOINT, PSD, HERM, MEASURE = "endpoint", "psd", "herm", "measure"
_COERCE = {ENDPOINT: as_endpoint, PSD: as_psd, HERM: as_hermitian}


# ---------------------------------------------------------------------------
# Representation records
# ---------------------------------------------------------------------------


class _Record:
    """Validation and ``q`` shared by the records, driven by their KindSpec."""

    def __post_init__(self):
        spec = KINDS[self.KIND]
        mu = getattr(self, spec.measure)
        for name, role in spec.fields:
            if role != MEASURE:
                object.__setattr__(self, name, _COERCE[role](getattr(self, name)))
        matrices = [name for name, role in spec.fields if role in (PSD, HERM)]
        if any(getattr(self, name).shape != (mu.q, mu.q) for name in matrices):
            raise DimensionMismatch(f"{', '.join(matrices)} and {spec.measure} dimensions differ")
        if spec.support is not None:
            endpoint = getattr(self, spec.endpoint)
            if mu.support.kind != spec.support or mu.support.endpoint != endpoint:
                raise DimensionMismatch(
                    f"{spec.measure} must live on {spec.support}({endpoint}), got "
                    f"{mu.support.kind}({mu.support.endpoint})"
                )

    @property
    def q(self) -> int:
        return measure_of(self).q

    def __eq__(self, other) -> bool:
        """Exact equality: same kind, equal endpoints, matrices and measures."""
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            if role in (PSD, HERM)
            else getattr(self, name) == getattr(other, name)
            for name, role in KINDS[self.KIND].fields
        )

    def __reduce__(self):
        # Copies and unpickled records are rebuilt, so their matrices are read-only too.
        return type(self), tuple(getattr(self, name) for name, _ in KINDS[self.KIND].fields)


@dataclass(frozen=True, eq=False)
class StieltjesPair(_Record):
    """(gamma, mu) with gamma PSD and mu on [alpha, inf)."""

    KIND = "stieltjes_pair"

    alpha: float
    gamma: np.ndarray
    mu: MatrixMeasure


@dataclass(frozen=True, eq=False)
class KKPair(_Record):
    """(C, eta) with C PSD and eta on [alpha, inf); kernel (1+t^2)/(t-z)."""

    KIND = "kk_pair"

    alpha: float
    C: np.ndarray
    eta: MatrixMeasure


@dataclass(frozen=True, eq=False)
class NevanlinnaTriple(_Record):
    """(A, B, nu): A Hermitian, B PSD, nu on the real line."""

    KIND = "nevanlinna"

    A: np.ndarray
    B: np.ndarray
    nu: MatrixMeasure

    @cached_property
    def gamma(self) -> np.ndarray:
        """A - integral of t dnu: the limit of F(iy) - iy B, the constant of the kernel (1 + t^2)/(t - z)."""
        return as_hermitian(self.A - _first_moment(self.nu))


@dataclass(frozen=True, eq=False)
class S0Measure(_Record):
    """Plain resolvent transform of a measure on [alpha, inf)."""

    KIND = "s0"

    alpha: float
    sigma: MatrixMeasure


@dataclass(frozen=True, eq=False)
class SInfTriple(_Record):
    """(D, E, rho) with rho on the open ray (alpha, inf); no atom at alpha."""

    KIND = "sinf_triple"

    alpha: float
    D: np.ndarray
    E: np.ndarray
    rho: MatrixMeasure


@dataclass(frozen=True, eq=False)
class TPair(_Record):
    """(gamma, mu) with gamma PSD and mu on (-inf, beta]; kernel (1+beta-t)/(t-z)."""

    KIND = "t_pair"

    beta: float
    gamma: np.ndarray
    mu: MatrixMeasure


@dataclass(frozen=True, eq=False)
class T0Measure(_Record):
    """Plain resolvent transform of a measure on (-inf, beta]."""

    KIND = "t0"

    beta: float
    sigma: MatrixMeasure


@dataclass(frozen=True, eq=False)
class TInfTriple(_Record):
    """(D, E, rho) with rho on the open ray (-inf, beta); no atom at beta."""

    KIND = "tinf_triple"

    beta: float
    D: np.ndarray
    E: np.ndarray
    rho: MatrixMeasure


Representation = (
    StieltjesPair
    | KKPair
    | NevanlinnaTriple
    | S0Measure
    | SInfTriple
    | TPair
    | T0Measure
    | TInfTriple
)


# ---------------------------------------------------------------------------
# The kind table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KindSpec:
    """One representation kind: F(z) = affine(r, z, sum c(t)/(t - z) W).

    ``fields`` lists the record's fields in order as (name, role), the role
    being ENDPOINT (a float), PSD or HERM (a q x q matrix held to that
    constraint) or MEASURE.  The kernel numerator is c(t) = numerator(t, e)
    with e the endpoint.
    """

    cls: type
    fields: tuple
    support: str | None  # support kind the measure must have at the endpoint; None: any
    side: str  # "right" or "left": where the excluded ray lies from the endpoint
    numerator: Callable
    affine: Callable  # (record, z, kernel sum) -> F(z)
    default_class: str  # the certify_class kind claimed by default
    dual: str | None = None  # the kind dual_map reflects onto
    structural: tuple | None = None  # matrices whose sum with the total mass pins N(F(z)), R(F(z))
    eigen: tuple | None = None  # (matrix, sign): eigen_invariance needs matrix + sign*lam*I PSD
    residue: bool = False  # residue_weight is stated for this kind
    constant: Callable | None = None  # record -> +-lim F(iy) if the kernel sum enters F alone; None if z - e scales it

    @property
    def kind(self) -> str:
        return self.cls.KIND

    @cached_property
    def endpoint(self) -> str | None:
        """Name of the endpoint field; None for a kind without one."""
        return next((name for name, role in self.fields if role == ENDPOINT), None)

    @cached_property
    def measure(self) -> str:
        return next(name for name, role in self.fields if role == MEASURE)


def _right_numerator(t, a):
    return 1.0 + t - a


def _left_numerator(t, b):
    return 1.0 + b - t


def _unit_numerator(t, _):
    return np.ones_like(t)


KINDS = {
    spec.kind: spec
    for spec in (
        KindSpec(
            StieltjesPair, (("alpha", ENDPOINT), ("gamma", PSD), ("mu", MEASURE)), "right_ray", "right",
            _right_numerator, lambda r, z, S: r.gamma + S, "s",
            dual="t_pair", structural=("gamma",), eigen=("gamma", -1.0), residue=True, constant=lambda r: r.gamma,
        ),
        KindSpec(
            KKPair, (("alpha", ENDPOINT), ("C", PSD), ("eta", MEASURE)), "right_ray", "right",
            lambda t, _: 1.0 + t * t, lambda r, z, S: r.C + S, "s", constant=lambda r: r.C,
        ),
        KindSpec(
            NevanlinnaTriple, (("A", HERM), ("B", PSD), ("nu", MEASURE)), None, "right",
            # (1 + tz)/(t - z) = (1 + t^2)/(t - z) - t: sum t W leaves A once, in gamma, not in every sample
            lambda t, _: 1.0 + t * t, lambda r, z, S: r.gamma + z * r.B + S, "s", constant=lambda r: r.gamma,
        ),
        KindSpec(
            S0Measure, (("alpha", ENDPOINT), ("sigma", MEASURE)), "right_ray", "right",
            _unit_numerator, lambda r, z, S: S, "s0",
            dual="t0", structural=(), residue=True, constant=lambda r: 0.0,
        ),
        KindSpec(
            SInfTriple, (("alpha", ENDPOINT), ("D", PSD), ("E", PSD), ("rho", MEASURE)), "open_right_ray", "right",
            _right_numerator, lambda r, z, S: -r.D + (z - r.alpha) * (r.E + S), "sinf",
            dual="tinf_triple", structural=("D", "E"), eigen=("D", 1.0),
        ),
        KindSpec(
            TPair, (("beta", ENDPOINT), ("gamma", PSD), ("mu", MEASURE)), "left_ray", "left",
            _left_numerator, lambda r, z, S: -r.gamma + S, "t",
            dual="stieltjes_pair", structural=("gamma",), eigen=("gamma", 1.0), residue=True, constant=lambda r: r.gamma,
        ),
        KindSpec(
            T0Measure, (("beta", ENDPOINT), ("sigma", MEASURE)), "left_ray", "left",
            _unit_numerator, lambda r, z, S: S, "t0",
            dual="s0", structural=(), residue=True, constant=lambda r: 0.0,
        ),
        KindSpec(
            TInfTriple, (("beta", ENDPOINT), ("D", PSD), ("E", PSD), ("rho", MEASURE)), "open_left_ray", "left",
            _left_numerator, lambda r, z, S: r.D + (r.beta - z) * (-r.E + S), "tinf",
            dual="sinf_triple", structural=("D", "E"), eigen=("D", -1.0),
        ),
    )
}


def map_fields(repr_: Representation, endpoint: Callable, matrix: Callable, measure: Callable) -> dict:
    """The record's fields in order, name -> value mapped by the function for its role."""
    by_role = {ENDPOINT: endpoint, PSD: matrix, HERM: matrix, MEASURE: measure}
    return {name: by_role[role](getattr(repr_, name)) for name, role in KINDS[repr_.KIND].fields}


def measure_of(repr_: Representation) -> MatrixMeasure:
    return getattr(repr_, KINDS[repr_.KIND].measure)


def endpoint_side(repr_: Representation) -> tuple[float, str]:
    """Endpoint and side of the ray the function is holomorphic off.

    A Nevanlinna triple has no endpoint field; it reports its lowest node
    (0.0 without atoms) on the right.
    """
    spec = KINDS[repr_.KIND]
    if spec.endpoint is not None:
        return getattr(repr_, spec.endpoint), spec.side
    nodes = measure_of(repr_).nodes
    return (float(nodes.min()) if nodes.size else 0.0), spec.side


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


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Evaluator:
    """Pure map z -> q x q matrix with a declared excluded set.

    ``excluded=None`` means the map is defined on the whole plane.
    ``batch`` reads many points at once, shape (m, q, q), through the pole
    guard (PoleProximity) and then the gate ``sampled_values``
    (EvaluationFailed); calling the evaluator is ``batch`` at one point.
    ``batch_raw``, the raw hook, with neither, runs ``batch_fn`` (a 1-D complex
    array of m points -> (m, q, q) values) if given, else loops over ``fn``.
    ``_kernel``, the nodes t, the kernel's numerators c(t), its weights viewed
    as (n, q^2) and the record's ``KindSpec.constant`` (None if it has none),
    is set by :func:`evaluator` only; any other evaluator, ``dataclasses.replace``
    copies too, is opaque (None).
    """

    q: int
    excluded: SupportSet | None
    fn: Callable[[complex], np.ndarray]
    batch_fn: Callable[[np.ndarray], np.ndarray] | None = None
    _kernel: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def of_batch(cls, q: int, excluded: SupportSet | None, batch_fn: Callable) -> "Evaluator":
        """Evaluator whose scalar call is the batch of one."""
        return cls(q, excluded, lambda z: batch_fn(np.array([z]))[0], batch_fn)

    def distance(self, z):
        """Distance from z to the excluded set; elementwise for an array of points."""
        if self.excluded is not None:
            return self.excluded.distance(z)
        return np.full(np.shape(z), np.inf) if np.ndim(z) else np.inf

    def __call__(self, z: complex) -> np.ndarray:
        return self.batch([z])[0]

    def batch(self, zs) -> np.ndarray:
        """Guarded, gated values: PoleProximity names the first point within EPS_NEAR (1 + |z|) of the excluded set."""
        zs = _points(zs)
        near = self.distance(zs) < EPS_NEAR * (1.0 + np.hypot(zs.real, zs.imag))  # abs(z) bit for bit
        if near.any():
            raise PoleProximity(f"z = {complex(zs[np.argmax(near)])} is within tolerance of the excluded set")
        return sampled_values(self, zs)

    def batch_raw(self, zs) -> np.ndarray:
        zs = _points(zs)
        if self.batch_fn is not None:
            return self.batch_fn(zs)
        out = np.empty((zs.size, self.q, self.q), dtype=complex)
        for i, z in enumerate(zs.tolist()):
            out[i] = self.fn(z)
        return out


def _points(zs) -> np.ndarray:
    return np.asarray(zs, dtype=complex).reshape(-1)


def sampled_values(F: Evaluator, zs) -> np.ndarray:
    """F at each point, unguarded: the gate of every read, F.batch's after its guard; grids inside the guard read it.

    A raise (found again point by point) or a non-finite value is EvaluationFailed at the first such point.
    A RuntimeWarning (numpy's overflow, invalid value or division by zero) counts as a raise, as under the
    test suite's filter, so no warning is printed beside the typed error.
    """
    zs = _points(zs)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            V = F.batch_raw(zs)
    except Exception as exc:  # noqa: BLE001 - wrapped with the witness point
        if zs.size == 1:
            z = complex(zs[0])
            raise EvaluationFailed(f"evaluator raised at z = {z}: {exc}", witness=z) from exc
        for i in range(zs.size):
            sampled_values(F, zs[i : i + 1])
        raise EvaluationFailed(f"batch evaluation raised, no single point does: {exc}") from exc
    return finite(lambda: V, lambda V: _non_finite_at(zs, V, "evaluator returned a non-finite value"))


def _non_finite_at(zs: np.ndarray, V: np.ndarray, what: str) -> EvaluationFailed:
    """The EvaluationFailed of values V at zs, witnessed at the first point whose value is not finite."""
    z = complex(zs[np.argmin(np.isfinite(V).reshape(zs.size, -1).all(axis=1))])
    return EvaluationFailed(f"{what} at z = {z}", witness=z)


# Entries per block of the atomic kernel's (points, atoms) coefficient
# array: a block holds KERNEL_ENTRIES // n points, so its temporaries stay
# near 256 KB each (cache-resident) whatever the batch size.
KERNEL_ENTRIES = 16384


def _kernel_batch(repr_: Representation) -> tuple[Callable[[np.ndarray], np.ndarray], tuple]:
    """(zs -> F(zs) of shape (m, q, q), (t, c(t), W, constant)): affine(r, z, (c(t)/(t - z)) @ W) in blocks of points.

    The weights W are the measure's stored stack, viewed as (n, q^2); the
    numerator c(t) is computed once here.
    """
    spec = KINDS[repr_.KIND]
    mu = measure_of(repr_)
    endpoint, _ = endpoint_side(repr_)
    q, t, affine = mu.q, mu.nodes, spec.affine
    W = mu.weights.reshape(t.size, q * q)
    coeff = spec.numerator(t, endpoint)
    block = max(1, KERNEL_ENTRIES // max(1, t.size))

    def batch(zs):
        out = np.empty((zs.size, q, q), dtype=complex)
        for start in range(0, zs.size, block):
            z = zs[start : start + block, None]
            S = ((coeff / (t - z)) @ W).reshape(-1, q, q)
            out[start : start + block] = affine(repr_, z[:, :, None], S)
        return out

    return batch, (t, coeff, W, None if spec.constant is None else spec.constant(repr_))


def excluded_set(repr_: Representation) -> SupportSet | None:
    if KINDS[repr_.KIND].endpoint is None and not measure_of(repr_).nodes.size:
        return None  # a Nevanlinna triple without atoms is entire; otherwise the ray of endpoint_side
    endpoint, side = endpoint_side(repr_)
    return right_ray(endpoint) if side == "right" else left_ray(endpoint)


def evaluator(repr_: Representation) -> Evaluator:
    """Build the pure evaluator of a representation: rational, with poles at the measure's nodes only."""
    batch, kernel = _kernel_batch(repr_)
    F = Evaluator.of_batch(repr_.q, excluded_set(repr_), batch)
    object.__setattr__(F, "_kernel", kernel)
    return F


def offset_scale(endpoint: float) -> float:
    """Factor on sample and certificate offsets, 1 up to |endpoint| ~ 2.5e8: past it none rounds onto the endpoint."""
    return max(1.0, 4.0 * EPS_NEAR * (1.0 + abs(endpoint)))


@lru_cache(maxsize=64)
def _sample_offsets(side: str, n: int, seed: int) -> np.ndarray:
    """Sample points less the endpoint, read-only: 0.5 to 3.7 from it, at least 0.5 from the ray."""
    rng = np.random.default_rng(seed)
    out = np.zeros(n, dtype=complex)
    for j in range(n):  # every fifth point on the real gap, with one more draw
        z = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.5, 2.0) * (1 if j % 2 == 0 else -1))
        out[j] = (-1.0 if side == "right" else 1.0) * rng.uniform(0.5, 3.0) if j % 5 == 4 else z
    out.flags.writeable = False
    return out


def sample_points(endpoint: float, side: str, n: int = 10, seed: int = 7):
    """Deterministic off-ray sample points mixing both half-planes and the gap.

    Scaled by offset_scale, every point lies 2 EPS_NEAR (1 + |endpoint|) or more from the ray: past the pole guard."""
    return (endpoint + offset_scale(endpoint) * _sample_offsets(side, n, seed)).tolist()


def rank_constancy(F: Evaluator, samples) -> tuple[int, bool]:
    """Numerical rank of F at each sample; raises on any disagreement."""
    zs = np.array(list(samples), dtype=complex)
    if zs.size < 2:
        raise InvalidArgument("need at least two sample points")
    ranks = set(svd_rank(sampled_values(F, zs), RTOL_RANK, RANK_ZERO)[3].tolist())
    if len(ranks) != 1:
        raise RankInstability(f"ranks {sorted(ranks)} disagree across samples")
    return ranks.pop(), True


def evaluate(repr_: Representation, z: complex) -> np.ndarray:
    return evaluator(repr_)(z)


def _at(repr_: StieltjesPair, z: complex, value: Callable) -> np.ndarray:
    """value(z) of a pair read as F(z) is: the pole guard, then the gate."""
    return Evaluator.of_batch(repr_.q, excluded_set(repr_), lambda zs: value(complex(zs[0]))[None])(z)


def eval_mulz(repr_: StieltjesPair, z: complex) -> np.ndarray:
    """(z - alpha) * F(z), the product transform of a pair."""
    if not isinstance(repr_, StieltjesPair):
        raise DimensionMismatch("eval_mulz is defined for StieltjesPair only")
    F = evaluator(repr_)
    return _at(repr_, z, lambda z: (z - repr_.alpha) * F.fn(z))


def im_re_parts(repr_: StieltjesPair, z: complex) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (Re F(z), Im F(z)) of a pair via atomic sums.

    Re F(z) = gamma + sum (1+t-a)(t - Re z)/|t-z|^2 W
    Im F(z) = (Im z) * sum (1+t-a)/|t-z|^2 W
    """
    t, W = repr_.mu.nodes, repr_.mu.weights

    def parts(z):
        d = np.abs(t - z)  # divided by twice: |t - z|^2 overflows for a node past 1.3e154
        k = (1.0 + t - repr_.alpha) / d / d
        re = repr_.gamma + atom_sum((k * (t - z.real))[:, None, None] * W)
        return np.stack((re, z.imag * atom_sum(k[:, None, None] * W)))

    return tuple(_at(repr_, z, parts))


def im_mulz_closed(repr_: StieltjesPair, z: complex) -> np.ndarray:
    """Closed form of Im[(z-a)F(z)] for a pair:

    Im F_mul(z) = (Im z) * [gamma + sum (1+t-a)(t-a)/|t-z|^2 W]
    """
    t, W = repr_.mu.nodes, repr_.mu.weights

    def closed(z):
        d = np.abs(t - z)
        k = ((1.0 + t - repr_.alpha) / d) * ((t - repr_.alpha) / d)
        return z.imag * (repr_.gamma + atom_sum(k[:, None, None] * W))

    return _at(repr_, z, closed)


# ---------------------------------------------------------------------------
# Conversions (exact atom-wise reweightings)
# ---------------------------------------------------------------------------


def _first_moment(mu: MatrixMeasure) -> np.ndarray:
    return atom_sum(mu.nodes[:, None, None] * mu.weights)


def _rekernel(r, target: str, _alpha):
    """The same function with the target's kernel: W' = c(t) / c'(t) W.

    Serves pair <-> kk_pair, pair <-> s0 and t_pair <-> t0.  The PSD
    constant carries over; a target without one needs it to vanish.
    """
    src, dst = KINDS[r.KIND], KINDS[target]
    e, _ = endpoint_side(r)
    mu = measure_of(r)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing weight fails the measure's finiteness check
        weights = (src.numerator(mu.nodes, e) / dst.numerator(mu.nodes, e))[:, None, None] * mu.weights
    mu = MatrixMeasure.from_arrays(r.q, mu.support, mu.nodes, weights)
    const = next((getattr(r, name) for name, role in src.fields if role == PSD), None)
    if any(role == PSD for _, role in dst.fields):
        return dst.cls(e, np.zeros((r.q, r.q)) if const is None else const, mu)
    if np.any(np.abs(const) > EPS_CONVERT * (1.0 + fro(const))):
        raise IllegalConversion("gamma != 0: the function has a nonzero limit at i*inf")
    return dst.cls(e, mu)


def _kk_to_nev(k: KKPair, *_) -> NevanlinnaTriple:
    # A = C + integral of t deta; B = 0; nu = eta extended by zero to R.
    A = k.C + _first_moment(k.eta)
    nu = MatrixMeasure.from_arrays(k.q, whole_line(), k.eta.nodes, k.eta.weights)
    return NevanlinnaTriple(A, np.zeros((k.q, k.q)), nu)


def _nev_to_kk(n: NevanlinnaTriple, _target, alpha: float | None) -> KKPair:
    if float(fro(n.B)) > EPS_CONVERT:
        raise IllegalConversion("triple has B != 0; not a right-ray restriction")
    nodes = n.nu.nodes
    if alpha is None:
        alpha, _ = endpoint_side(n)
    if nodes.size and float(nodes.min()) < alpha:
        raise IllegalConversion(f"nu carries mass below alpha = {alpha}")
    C = as_psd(n.gamma)
    eta = MatrixMeasure.from_arrays(n.q, right_ray(alpha), n.nu.nodes, n.nu.weights)
    return KKPair(alpha, C, eta)


def _at_node(mu: MatrixMeasure, t0: float) -> np.ndarray:
    """Mask of the atoms within 10 EPS_MERGE (1 + |t0|) of t0."""
    return np.abs(mu.nodes - t0) <= 10 * EPS_MERGE * (1.0 + abs(t0))


# The product forms serve both rays: the target's support comes from the table.


def _product_to_pair(s, target: str, _alpha):
    """Pair of P(z) = F(z)/(z - alpha) (or G(z)/(beta - z)): gamma_P = E, mu_P = rho + delta_e D."""
    e, _ = endpoint_side(s)
    spec = KINDS[target]
    nodes, weights = np.concatenate(([e], s.rho.nodes)), np.concatenate((s.D[None], s.rho.weights))
    mu = MatrixMeasure.from_arrays(s.q, SupportSet(spec.support, e), nodes, weights)
    return spec.cls(e, s.E, mu)


def _pair_to_product(p, target: str, _alpha):
    """Inverse of the split: F(z) = (z - alpha) P(z) (or (beta - z) P(z)) from the pair of P."""
    e, _ = endpoint_side(p)
    spec = KINDS[target]
    at = _at_node(p.mu, e)
    rho = MatrixMeasure.from_arrays(p.q, SupportSet(spec.support, e), p.mu.nodes[~at], p.mu.weights[~at])
    return spec.cls(e, atom_sum(p.mu.weights[at]), p.gamma, rho)


_CONVERTERS = {
    ("stieltjes_pair", "kk_pair"): _rekernel,
    ("kk_pair", "stieltjes_pair"): _rekernel,
    ("kk_pair", "nevanlinna"): _kk_to_nev,
    ("nevanlinna", "kk_pair"): _nev_to_kk,
    ("stieltjes_pair", "s0"): _rekernel,
    ("s0", "stieltjes_pair"): _rekernel,
    ("sinf_triple", "stieltjes_pair"): _product_to_pair,
    ("stieltjes_pair", "sinf_triple"): _pair_to_product,
    ("t_pair", "t0"): _rekernel,
    ("t0", "t_pair"): _rekernel,
    ("tinf_triple", "t_pair"): _product_to_pair,
    ("t_pair", "tinf_triple"): _pair_to_product,
}


def convert(repr_: Representation, target_kind: str, alpha: float | None = None) -> Representation:
    """Convert a representation to another kind.

    Only the directly supported paths are implemented; unlisted pairs raise
    ``UnsupportedPath`` (compose via the listed ones).  Note that the
    sinf_triple <-> stieltjes_pair and tinf_triple <-> t_pair paths change
    the represented function by the factor (z - alpha) resp. (beta - z).
    """
    key = (repr_.KIND, target_kind)
    if key[0] == key[1]:
        return repr_
    fn = _CONVERTERS.get(key)
    if fn is None:
        raise UnsupportedPath(f"no direct conversion {key[0]} -> {target_kind}")
    return fn(repr_, target_kind, alpha)


# ---------------------------------------------------------------------------
# Residues
# ---------------------------------------------------------------------------


def residue_weight(repr_: Representation, t0: float, verify: bool = False) -> np.ndarray:
    """Mass recovered from the pole at an atom t0.

    For a pair this is (1 + t0 - alpha) W0 (the kernel numerator at the
    node); for an S0/T0 measure it is W0 itself.  With ``verify=True`` the
    analytic value is cross-checked against (t0 - z) F(z) at z = t0 + i 2^-26,
    read through ``sampled_values``.
    """
    spec = KINDS[repr_.KIND]
    if not spec.residue:
        raise UnsupportedPath(f"residue_weight not defined for kind {spec.kind}")
    mu = measure_of(repr_)
    at = _at_node(mu, t0)
    if not at.any():
        raise NotAnAtom(f"no atom within tolerance of t0 = {t0}")
    k = int(np.argmax(at))
    t, W = float(mu.nodes[k]), mu.weights[k]
    message = f"the residue weight at t0 = {t} is not finite: its kernel numerator times W overflows"
    value = finite(lambda: spec.numerator(t, endpoint_side(repr_)[0]) * W, message)
    if verify:
        eps = 2.0**-26
        approx = (-1j * eps) * sampled_values(evaluator(repr_), [t + 1j * eps])[0]
        err = fro(approx - value)
        if err > RESIDUE_TOL * (1.0 + fro(value)):
            raise NotAnAtom(f"numeric residue check failed: |diff| = {err:.3e}")
    return value


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def repr_to_json(repr_: Representation) -> dict:
    return {"kind": repr_.KIND, **map_fields(repr_, float, matrix_to_json, MatrixMeasure.to_json)}


_FROM_JSON = {ENDPOINT: None, PSD: matrix_from_json, HERM: matrix_from_json, MEASURE: MatrixMeasure.from_json}


def repr_from_json(obj: dict) -> Representation:
    """Load a representation: ``read_fields`` reads its fields, the record's constructor checks them."""
    (spec,) = read_fields(obj, "representation", {"kind": KINDS.get})
    if spec is None:
        raise UnsupportedPath(f"unknown kind {obj['kind']}")
    return spec.cls(*read_fields(obj, spec.kind, {name: _FROM_JSON[role] for name, role in spec.fields}))
