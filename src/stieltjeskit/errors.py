"""Exception hierarchy for stieltjeskit.

Every failure mode that a caller can sensibly react to gets its own class;
all of them inherit from :class:`StieltjesKitError` so batch drivers can
catch the lot in one clause.
"""


class StieltjesKitError(Exception):
    """Base class for all library errors."""


class InvalidArgument(StieltjesKitError, ValueError):
    """An argument lies outside the values the function takes; a ValueError too, for callers that catch that."""


class DimensionMismatch(StieltjesKitError):
    """Matrix or measure dimensions are not conformable."""


class NotHermitian(StieltjesKitError):
    """A matrix fails the hermiticity tolerance."""


class NotPsd(StieltjesKitError):
    """A matrix fails the positive-semidefiniteness tolerance."""


class SupportViolation(StieltjesKitError):
    """An atom node lies outside the declared support set."""


class NonFiniteKernel(StieltjesKitError):
    """An integrand evaluated to a non-finite value at some node."""


class DegenerateMap(StieltjesKitError):
    """An affine pushforward map has zero slope."""


class NonPsdDensity(StieltjesKitError):
    """A sampled quadrature density fails the PSD tolerance."""


class PoleProximity(StieltjesKitError):
    """Evaluation requested too close to the excluded support ray."""


class IllegalConversion(StieltjesKitError):
    """The requested conversion has an unmet precondition."""


class UnsupportedPath(StieltjesKitError):
    """No direct conversion exists between the two kinds."""


class UnsupportedKind(StieltjesKitError):
    """The operation is not defined for this representation kind."""


class NotAnAtom(StieltjesKitError):
    """residue extraction requested at a point that carries no atom."""


class NoConvergence(StieltjesKitError):
    """The ladder stopped unconverged at rung y = ``last_rung``; ``estimate``: its LimitEstimate once every rung ran."""

    def __init__(self, message, last_rung, estimate=None):
        super().__init__(message)
        self.last_rung = last_rung
        self.estimate = estimate

    def __reduce__(self):  # Exception's own passes the message alone, and last_rung is required
        return type(self), (str(self), self.last_rung, self.estimate)


class ClassMismatch(StieltjesKitError):
    """Extracted parameters contradict the claimed function class."""


class EvaluationFailed(StieltjesKitError):
    """An evaluator raised at a grid point; carries the witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class RankInstability(StieltjesKitError):
    """Numerical rank differs between sample points."""


class PreconditionUnmet(StieltjesKitError):
    """A required matrix precondition does not hold for the input."""


class InconsistentEquivalence(StieltjesKitError):
    """Conditions that are provably equivalent disagreed numerically."""


class ShiftNotPsd(StieltjesKitError):
    """A constant shift would take gamma out of the PSD cone."""
