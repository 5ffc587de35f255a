"""Exception hierarchy shared by all kgconst modules."""


class KgconstError(Exception):
    """Base class for all errors raised by this package."""


class InvalidPrecision(KgconstError):
    """The requested digit count is not an integer >= MIN_DIGITS."""


class DomainError(KgconstError):
    """Argument outside the mathematical domain of an operation."""


class NoConvergence(KgconstError):
    """An iterative scheme hit its refinement cap before reaching tolerance."""


class NonFiniteEvaluation(KgconstError):
    """An integrand returned a non-finite value at an interior node."""


class MaxTermsExceeded(KgconstError):
    """A series would need more terms than the configured cap."""


class BracketFailure(KgconstError):
    """Root bracket endpoints do not straddle a sign change."""
