"""Exception types shared across the package."""


class SphrootsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidType(SphrootsError):
    """Root-system family/rank combination is not a valid simple type."""


class DimensionMismatch(SphrootsError):
    """A vector has the wrong length for the ambient root system."""


class EmptyFiber(SphrootsError):
    """Requested the fiber of a vector that is not a restricted root."""


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


class LambdaNotActive(SphrootsError):
    """The degeneration pivot is not an active weight of the datum."""


class InvariantViolation(SphrootsError):
    """A theorem-guaranteed runtime assertion failed (implementation bug)."""


class ParamsOutOfRange(SphrootsError):
    """Table-row parameters violate the row's constraints."""


class UnclassifiedLeaf(SphrootsError):
    """A single-weight case matched no classification row."""


class UnclassifiedCase(SphrootsError):
    """A trivial-decomposition case matched no classification row."""


class NotSpherical(SphrootsError):
    """The subgroup datum fails the sphericity test."""
