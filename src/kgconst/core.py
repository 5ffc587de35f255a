"""Precision management and the fundamental constants pi, L = ln(1+sqrt(2)),
and the Grothendieck-Krivine constant K_G = pi / (2 L).

Every operation in the package takes a :class:`PrecisionContext` and performs
all intermediate arithmetic at ``digits + GUARD_DIGITS`` decimal digits.  The
returned values are plain ``mpmath.mpf`` instances (aliased ``BigReal``), or
frozen records that carry one beside its work counts; both are immutable, so
they are safe to share between tasks.

Every error the package raises is a :class:`KgconstError`, defined here:
:class:`InvalidPrecision`, :class:`DomainError`, :class:`NoConvergence` or
:class:`NonFiniteEvaluation`.
"""

from __future__ import annotations

from typing import NamedTuple

from mpmath import mp, mpf


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


# BigReal is a semantic alias: an arbitrary-precision real scalar.
BigReal = mpf

MIN_DIGITS = 10
# decimal digits of working precision beyond the requested ones
GUARD_DIGITS = 10
# fraction bits of the integer fixed-point loops (series sums, quadrature
# weights) beyond working precision and the bits their term counts cost
GUARD_BITS = 8


class PrecisionContext(NamedTuple("PrecisionContext", [("digits", int)])):
    """The requested output precision; every other setting derives from it."""

    __slots__ = ()

    def __new__(cls, digits: int = 30):
        if not isinstance(digits, int) or digits < MIN_DIGITS:
            raise InvalidPrecision(f"digits must be an integer >= {MIN_DIGITS}, got {digits}")
        return super().__new__(cls, digits)

    @classmethod
    def _make(cls, iterable):
        # the namedtuple _make, which _replace calls, would skip the check
        return cls(*iterable)

    @property
    def tolerance(self) -> BigReal:
        """10^-digits, the residual threshold used by every identity check and
        convergence test."""
        with mp.workdps(self.working_dps):
            return mpf(10) ** (-self.digits)

    @property
    def working_dps(self) -> int:
        """Decimal digits used for all intermediate arithmetic."""
        return self.digits + GUARD_DIGITS

    @property
    def working_tolerance(self) -> BigReal:
        """tolerance 10^-GUARD_DIGITS: the error target of the quadratures and
        the accelerated double series, whose results are rescaled or compared
        at working precision."""
        with mp.workdps(self.working_dps):
            return self.tolerance * mpf(10) ** (-GUARD_DIGITS)

    def workprec(self):
        """Context manager switching mpmath to this context's working precision."""
        return mp.workdps(self.working_dps)


def const_pi(ctx: PrecisionContext) -> BigReal:
    """pi, correct to ctx.digits significant digits."""
    with ctx.workprec():
        return +mp.pi


def const_L(ctx: PrecisionContext) -> BigReal:
    """L = ln(1 + sqrt(2)), the value of the a0 coefficient integral up to 8/pi.

    Defining property: sinh(L) = 1, i.e. L = arcsinh(1).
    """
    with ctx.workprec():
        return mp.log(1 + mp.sqrt(2))


def const_KG(ctx: PrecisionContext) -> BigReal:
    """Grothendieck-Krivine constant K_G = pi / (2 ln(1 + sqrt(2)))."""
    with ctx.workprec():
        return mp.pi / (2 * mp.log(1 + mp.sqrt(2)))
