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
    """An integrand returned a value that is not an int: the exact sum of
    the quadrature rules takes integer values only."""
