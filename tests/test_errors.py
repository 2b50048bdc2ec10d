"""Every argument check raises its typed error.

The first table holds the argument checks that raise ``InvalidArgument``, a
``StieltjesKitError`` that is also a ``ValueError``; the second the other
raises of the library that no test of its module reaches.  Each case
asserts the exact exception type.
"""

import numpy as np
import pytest

import stieltjeskit as sk
from stieltjeskit.classifier import sample_points

from genutil import random_pair, random_s0, random_tpair

I1 = np.eye(1)
I2 = np.eye(2)
PAIR = random_pair(np.random.default_rng(0), q=2, alpha=0.0)
F = sk.evaluator(PAIR)
KK = sk.convert(PAIR, "kk_pair")
MU = PAIR.mu
CERT = sk.certify_class(F, 0.0, "s", sk.GridConfig(n_upper=4, n_lower=4, n_gap=4))
NEAR_ATOMS = sk.S0Measure(0.0, sk.MatrixMeasure(1, sk.right_ray(0.0), [(1.0, I1), (1.0 + 1e-7, I1)]))
HUGE = np.full((2, 2), 1e308)  # finite entries, sigma_1 = 2e308 past the largest float
# Its values, its closed forms and its sums overflow: three finite atoms of 8e307.
OVERFLOWING = sk.StieltjesPair(0.0, I1, sk.MatrixMeasure(1, sk.right_ray(0.0), [(t, 8e307 * I1) for t in (1, 1.5, 2)]))
GAMMA_1E300 = sk.StieltjesPair(0.0, 1e300 * I1, sk.MatrixMeasure(1, sk.right_ray(0.0), [(1.0, I1)]))
HEAVY_ATOM = sk.StieltjesPair(0.0, I1, sk.MatrixMeasure(1, sk.right_ray(0.0), [(1.0, 1e308 * I1)]))
HEAVY_MU = sk.MatrixMeasure(1, sk.right_ray(0.0), [(1.0, 1e308 * I1), (2.0, 1e308 * I1)])
# An opaque evaluator, I2 but at 5i, where its value's sigma_1 is past the largest float.
SPIKED = sk.Evaluator(2, sk.right_ray(0.0), lambda z: HUGE if z == 5j else I2)
BARE = sk.Evaluator.of_batch(2, sk.right_ray(0.0), F.batch_raw)  # no endpoint of its own
S0 = sk.evaluator(random_s0(np.random.default_rng(3)))
T_PAIR = random_tpair(np.random.default_rng(3), q=2)
LEFT = sk.Evaluator(T_PAIR.q, sk.left_ray(T_PAIR.beta), sk.evaluator(T_PAIR).fn)  # bare, off a left ray
ENTIRE = sk.Evaluator(1, None, lambda z: -I1)  # no ray: a side is read, and must be one

INVALID_ARGUMENTS = {
    "grid count 0": lambda: sk.GridConfig(n_gap=0),
    "one rank sample": lambda: sk.rank_constancy(F, [1j]),
    "unknown ladder mode": lambda: sk.limit_at_infinity(F, "vertical"),
    "radial phi on the ray": lambda: sk.limit_at_infinity(F, "radial", phi=0.0),
    "negative moment order": lambda: sk.moments(MU, -1),
    "fractional moment order": lambda: sk.moments(MU, 1.5),
    "empty quadrature interval": lambda: sk.quadrature_ingest(lambda t: I1, 1, 1.0, 1.0, 4),
    "no quadrature node": lambda: sk.quadrature_ingest(lambda t: I1, 1, 0.0, 1.0, 0),
    "fractional quadrature node count": lambda: sk.quadrature_ingest(lambda t: I1, 1, 0.0, 1.0, 2.5),
    # leggauss's dense companion matrix of a million nodes asked for 7.28 TiB: a raw MemoryError
    "a million quadrature nodes": lambda: sk.quadrature_ingest(lambda t: I1, 1, 0.0, 1.0, 10**6),
    "zero projection vector": lambda: sk.scalar_projection(MU, [0.0, 0.0]),
    "bare evaluator, no endpoint": lambda: sk.pinv_map(BARE),
    "pinv map, side against the evaluator's ray": lambda: sk.pinv_map(LEFT, T_PAIR.beta, side="right"),
    "neg pinv map, side against the evaluator's ray": lambda: sk.neg_pinv_map(LEFT, T_PAIR.beta, side="right"),
    "pinv map, side up": lambda: sk.pinv_map(LEFT, T_PAIR.beta, side="up"),
    "neg pinv map, side up": lambda: sk.neg_pinv_map(LEFT, T_PAIR.beta, side="up"),
    "pinv map of an entire evaluator, side up": lambda: sk.pinv_map(ENTIRE, 0.0, side="up"),
    "neg pinv map of an entire evaluator, side up": lambda: sk.neg_pinv_map(ENTIRE, 0.0, side="up"),
    "sample points, side up": lambda: sample_points(0.0, "up"),
    "no sample point": lambda: sample_points(0.0, "right", n=0),
    "fractional sample count": lambda: sample_points(0.0, "right", n=2.5),
    "negative sample seed": lambda: sample_points(0.0, "right", seed=-1),
    "fractional grid count": lambda: sk.GridConfig(n_upper=2.5),
    "negative grid seed": lambda: sk.GridConfig(seed=-1),
    "fractional grid seed": lambda: sk.GridConfig(seed=1.5),
    "no congruence term": lambda: sk.congruence_sum([]),
}


@pytest.mark.parametrize("name", list(INVALID_ARGUMENTS))
def test_an_invalid_argument_is_typed_and_still_a_value_error(name):
    with pytest.raises(sk.InvalidArgument) as info:
        INVALID_ARGUMENTS[name]()
    assert type(info.value) is sk.InvalidArgument and isinstance(info.value, (sk.StieltjesKitError, ValueError))


OTHER_RAISES = {
    "unknown class": (lambda: sk.certify_class(F, 0.0, "s2"), sk.UnsupportedKind),
    "unknown certificate condition": (lambda: CERT.margin("herglotz_sideways"), KeyError),
    "no eigen precondition for s0": (lambda: sk.eigen_invariance(random_s0(np.random.default_rng(1)), 0.0),
                                     sk.UnsupportedKind),
    "null domination of a kk pair": (lambda: sk.null_domination(KK, I2), sk.UnsupportedKind),
    "two nodes, one weight": (lambda: sk.MatrixMeasure.from_arrays(1, sk.right_ray(0.0), [1.0, 2.0], [I1]),
                              sk.DimensionMismatch),
    "kernel inf at a node": (lambda: sk.integrate(MU, lambda t: np.inf), sk.NonFiniteKernel),
    "projection vector of length 3": (lambda: sk.scalar_projection(MU, [1.0, 0.0, 0.0]), sk.DimensionMismatch),
    "no structural sum for kk": (lambda: sk.kernel_range_report(KK), sk.UnsupportedKind),
    "eval_mulz of an s0": (lambda: sk.eval_mulz(random_s0(np.random.default_rng(2)), 1j), sk.DimensionMismatch),
    "no residue for kk": (lambda: sk.residue_weight(KK, float(KK.eta.nodes[0])), sk.UnsupportedPath),
    # the atom 1e-7 away spoils the numeric residue at 1 + i 2^-26 by about 2^-26 / 1e-7
    "numeric residue off": (lambda: sk.residue_weight(NEAR_ATOMS, 1.0, verify=True), sk.NotAnAtom),
    # a norm past the largest float: the rank decision had sigma_1 = inf and cut every singular value
    "pinv of sigma_1 past the largest float": (lambda: sk.pinv(HUGE), sk.StieltjesKitError),
    "is_ep of sigma_1 past the largest float": (lambda: sk.is_ep(HUGE), sk.StieltjesKitError),
    "null domination by A of sigma_1 past the largest float": (lambda: sk.null_domination(PAIR, HUGE),
                                                               sk.StieltjesKitError),
    "SVD map at a value of sigma_1 past the largest float": (lambda: sk.neg_pinv_map(SPIKED, 0.0)(5j),
                                                             sk.EvaluationFailed),
    # public results that were not finite, or warned before the typed error
    "closed-form parts that overflow": (lambda: sk.im_re_parts(OVERFLOWING, 1j), sk.EvaluationFailed),
    "product transform that overflows": (lambda: sk.eval_mulz(GAMMA_1E300, 1e10j), sk.EvaluationFailed),
    "closed-form Im of the product that overflows": (lambda: sk.im_mulz_closed(GAMMA_1E300, 1e10j),
                                                     sk.EvaluationFailed),
    "residue weight that overflows": (lambda: sk.residue_weight(HEAVY_ATOM, 1.0), sk.NonFiniteKernel),
    "integral that overflows": (lambda: sk.integrate(HEAVY_MU, lambda t: 10.0), sk.NonFiniteKernel),
    "image node that overflows": (lambda: sk.image_measure(HEAVY_MU, 1e308, 0.0), sk.SupportViolation),
    "congruence sum that overflows": (lambda: sk.congruence_sum([(1e200 * I1, HEAVY_ATOM)]), sk.StieltjesKitError),
    "scalar projection that overflows": (lambda: sk.scalar_projection(HEAVY_MU, [1e10]), sk.StieltjesKitError),
    # a non-finite endpoint, typed before any read: certify_class warned and blamed the evaluator at z = inf+infj,
    # the pinv builds warned, the radial ladder raised PoleProximity and extract_params gave a record at nan
    "certificate at an infinite endpoint": (lambda: sk.certify_class(F, np.inf, "s"), sk.StieltjesKitError),
    "sample points at a nan endpoint": (lambda: sample_points(np.nan, "right"), sk.StieltjesKitError),
    "pinv map of a bare evaluator at nan": (lambda: sk.pinv_map(BARE, np.nan), sk.StieltjesKitError),
    "neg pinv map of a bare evaluator at nan": (lambda: sk.neg_pinv_map(BARE, np.nan), sk.StieltjesKitError),
    "radial ladder at an infinite alpha": (lambda: sk.limit_at_infinity(F, "radial", alpha=np.inf),
                                           sk.StieltjesKitError),
    "parameters at a nan endpoint": (lambda: sk.extract_params(S0, np.nan, "s0"), sk.StieltjesKitError),
    "quadrature over an infinite interval": (lambda: sk.quadrature_ingest(lambda t: I1, 1, -np.inf, np.inf, 3),
                                              sk.StieltjesKitError),
}


@pytest.mark.parametrize("name", list(OTHER_RAISES))
def test_every_other_raise_is_typed(name):
    call, error = OTHER_RAISES[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error


def test_the_near_atom_residue_is_exact_unverified():
    """The analytic residue of the same atom: only the numeric cross-check fails."""
    assert np.array_equal(sk.residue_weight(NEAR_ATOMS, 1.0), I1)


def test_rank_constancy_takes_two_samples():
    assert sk.rank_constancy(F, sample_points(0.0, "right", 2)) == (2, True)
