"""Exception types shared across the package."""


class SphrootsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidType(SphrootsError):
    """Root-system family/rank combination is not a valid simple type."""


class DimensionMismatch(SphrootsError):
    """A vector has the wrong length for the ambient root system."""


class NegativeCoefficient(SphrootsError):
    """A vector expected to lie in the nonnegative root cone has a negative entry."""


class EmptyFiber(SphrootsError):
    """Requested the fiber of a vector that is not a restricted root."""


class NonUniqueExtreme(SphrootsError):
    """A fiber has no unique highest/lowest weight (broken module structure)."""


class PsiNotInPhiPlus(SphrootsError):
    """An active weight set contains a vector outside the positive restricted roots."""


class ClosureViolation(SphrootsError):
    """The complement of the active set is not closed under addition.

    Carries the offending triple (mu, nu, total) with mu + nu = total.
    """

    def __init__(self, mu, nu, total):
        self.mu = mu
        self.nu = nu
        self.total = total
        super().__init__(
            f"{total} = {mu} + {nu} but neither summand is active"
        )


class NoMaximalWeight(SphrootsError):
    """No maximal weight found in a nonempty multiset (internal check)."""


class LambdaNotActive(SphrootsError):
    """The degeneration pivot is not an active weight of the datum."""


class InvariantViolation(SphrootsError):
    """A theorem-guaranteed runtime assertion failed (implementation bug)."""


class AmbiguousComponent(SphrootsError):
    """Block tracking through a degeneration straddled blocks or landed nowhere."""


class ParamsOutOfRange(SphrootsError):
    """Table-row parameters violate the row's constraints."""


class UnclassifiedLeaf(SphrootsError):
    """A single-weight case matched no classification row."""


class UnclassifiedCase(SphrootsError):
    """A trivial-decomposition case matched no classification row."""


class NotSpherical(SphrootsError):
    """The subgroup datum fails the sphericity test."""


class ExceededIterations(SphrootsError):
    """Defensive cap reached in a loop with theorem-guaranteed termination."""
