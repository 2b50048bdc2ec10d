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

from genutil import random_pair, random_s0

I1 = np.eye(1)
I2 = np.eye(2)
PAIR = random_pair(np.random.default_rng(0), q=2, alpha=0.0)
F = sk.evaluator(PAIR)
KK = sk.convert(PAIR, "kk_pair")
MU = PAIR.mu
CERT = sk.certify_class(F, 0.0, "s", sk.GridConfig(n_upper=4, n_lower=4, n_gap=4))
NEAR_ATOMS = sk.S0Measure(0.0, sk.MatrixMeasure(1, sk.right_ray(0.0), [(1.0, I1), (1.0 + 1e-7, I1)]))

INVALID_ARGUMENTS = {
    "grid count 0": lambda: sk.GridConfig(n_gap=0),
    "one rank sample": lambda: sk.rank_constancy(F, [1j]),
    "unknown ladder mode": lambda: sk.limit_at_infinity(F, "vertical"),
    "radial phi on the ray": lambda: sk.limit_at_infinity(F, "radial", phi=0.0),
    "negative moment order": lambda: sk.moments(MU, -1),
    "empty quadrature interval": lambda: sk.quadrature_ingest(lambda t: I1, 1, 1.0, 1.0, 4),
    "no quadrature node": lambda: sk.quadrature_ingest(lambda t: I1, 1, 0.0, 1.0, 0),
    "zero projection vector": lambda: sk.scalar_projection(MU, [0.0, 0.0]),
    "bare evaluator, no endpoint": lambda: sk.pinv_map(sk.Evaluator.of_batch(2, sk.right_ray(0.0), F.batch_raw)),
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
