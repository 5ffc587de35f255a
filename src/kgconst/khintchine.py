"""Khintchine's constant via the infinite product

    K = prod_{n>=1} [1 + 1/(n(n+2))]^{ln n / ln 2},

evaluated in log space.  The log-series term f(n) = (ln n/ln 2) ln(1+1/(n(n+2)))
decays like ln(n)/n^2, so brute force stalls near five digits; the accelerated
route adds an Euler-Maclaurin tail correction and certifies the result by
stability across a doubling of the explicit range.  Accuracy is capped at
desk scale (eight significant digits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpf

from .core import BigReal, PrecisionContext
from .errors import DomainError, NoConvergence

# the fixed tolerance of the desk-scale Khintchine checks, whatever the
# digits: the module's eight-digit cap
STABILITY_TOLERANCE = mpf("1e-8")
ACCEL_BASE_TERMS = 20_000
# the Euler-Maclaurin tail is needed to TAIL_TOLERANCE only, far beyond the
# module's eight digits, so its integral (mpmath's quad) and derivative run
# at the 30 working digits of TAIL_CTX at every caller precision
TAIL_TOLERANCE = mpf("1e-14")
TAIL_CTX = PrecisionContext(digits=20)
# the digits the module's values carry, so the most worth printing: the
# zeta-series reference and the tail are computed at TAIL_CTX's working digits
CARRIED_DIGITS = TAIL_CTX.working_dps
_LN2 = math.log(2)


@dataclass(frozen=True)
class ProductResult:
    value: BigReal
    terms_used: int
    tail_estimate: BigReal
    accelerated: bool


def _log_sum(marks) -> list:
    """sum_{n=1}^{N} (ln n/ln 2) ln(1 + 1/(n(n+2))) for each N of the
    ascending marks, each exactly rounded in binary64.

    The terms up to the last mark are computed once, each a binary64 value,
    and math.fsum adds each prefix without rounding error; binary64 is ample
    for the module's eight-digit scope.
    """
    terms = [math.log(n) / _LN2 * math.log1p(1.0 / (n * (n + 2.0)))
             for n in range(1, marks[-1] + 1)]
    return [math.fsum(terms[:N]) for N in marks]


def log_tail_bound(N: int, ctx: PrecisionContext) -> BigReal:
    """Integral-comparison bound on the log-space tail: (ln N + 1)/(N ln 2)."""
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    with ctx.workprec():
        return (mp.log(N) + 1) / (N * mp.log(2))


def khintchine_partial(N: int, ctx: PrecisionContext) -> ProductResult:
    """Partial product over the first N factors (the n = 1 factor is unity)."""
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    with ctx.workprec():
        if N <= 1000:  # small ranges at full working precision
            value = mp.exp(mp.fsum(_log_term(mpf(n)) for n in range(1, N + 1)))
        else:
            value = mp.exp(mpf(_log_sum([N])[0]))
        tail = value * mp.expm1(log_tail_bound(N, ctx))
        return ProductResult(value=value, terms_used=N, tail_estimate=tail,
                             accelerated=False)


def _log_term(x):
    return mp.log(x) / mp.log(2) * mp.log1p(1 / (x * (x + 2)))


def _em_log_tail(N: int) -> BigReal:
    """Euler-Maclaurin correction for the log-space tail beyond N, to
    TAIL_TOLERANCE, computed in TAIL_CTX whatever the caller's precision.

    The integral is log-singular at u = 0, which mp.quad's default
    double-exponential rule handles; NoConvergence is raised unless its
    error estimate is below TAIL_TOLERANCE.
    """
    with TAIL_CTX.workprec():
        a = mpf(N + 1)

        def integrand(u):
            return _log_term(1 / u) / u ** 2

        integral, error = mp.quad(integrand, [0, 1 / a], error=True)
        if not error < TAIL_TOLERANCE:
            raise NoConvergence(
                f"Khintchine tail integral error estimate {error} exceeds {TAIL_TOLERANCE}")
        return integral + _log_term(a) / 2 - mp.diff(_log_term, a) / 12


def khintchine_accelerated(ctx: PrecisionContext) -> ProductResult:
    """Product with tail correction over 2 ACCEL_BASE_TERMS factors, stable
    to STABILITY_TOLERANCE against the one over ACCEL_BASE_TERMS."""
    marks = [ACCEL_BASE_TERMS, 2 * ACCEL_BASE_TERMS]
    with ctx.workprec():
        values = [mp.exp(mpf(log_sum) + _em_log_tail(N))
                  for N, log_sum in zip(marks, _log_sum(marks))]
        spread = abs(values[1] - values[0])
        if spread > STABILITY_TOLERANCE:
            raise NoConvergence(
                f"accelerated product unstable across doubling: spread {spread} "
                f"exceeds {STABILITY_TOLERANCE}"
            )
        return ProductResult(value=values[1], terms_used=2 * ACCEL_BASE_TERMS,
                             tail_estimate=spread, accelerated=True)


def zeta_series_value() -> BigReal:
    """Khintchine's constant by mpmath's zeta series (Bailey, Borwein & Crandall,
    Math. Comp. 66, 1997) at TAIL_CTX's 30 working digits: the product's check."""
    with TAIL_CTX.workprec():
        return +mp.khinchin
