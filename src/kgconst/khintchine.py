"""Khintchine's constant via the infinite product

    K = prod_{n>=1} [1 + 1/(n(n+2))]^{ln n / ln 2},

evaluated in log space.  The log-series term f(n) = (ln n/ln 2) ln(1+1/(n(n+2)))
decays like ln(n)/n^2, so brute force stalls near five digits; the accelerated
route adds a closed-form Euler-Maclaurin tail to binary64 explicit sums, and is
certified by stability across a doubling of the explicit range.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from mpmath import mp, mpf

from .core import BigReal, PrecisionContext
from .errors import DomainError, NoConvergence

# the fixed tolerance of the desk-scale Khintchine checks, whatever the digits
STABILITY_TOLERANCE = mpf("1e-8")
ACCEL_BASE_TERMS = 20_000
# the tail and the zeta-series reference run at TAIL_CTX's 30 working digits
TAIL_CTX = PrecisionContext(digits=20)
# the digits the values carry: a binary64 log-series term takes five roundings
# (math.log, _LN2, the division by it, 1/(n(n+2)), log1p) and math.fsum one,
# so the product's log is within 6 * 2^-53 ln K < 7e-16, the product 2e-15
PRODUCT_DIGITS = sys.float_info.dig
REFERENCE_DIGITS = TAIL_CTX.working_dps
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
    and math.fsum adds each prefix without rounding error.
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
            value = mp.exp(mp.fsum(
                mp.log(n) / mp.log(2) * mp.log1p(mpf(1) / (n * (n + 2)))
                for n in range(1, N + 1)))
        else:
            value = mp.exp(mpf(_log_sum([N])[0]))
        tail = value * mp.expm1(log_tail_bound(N, ctx))
        return ProductResult(value=value, terms_used=N, tail_estimate=tail,
                             accelerated=False)


def _em_log_tail(N: int) -> BigReal:
    """The log-space tail beyond N by Euler-Maclaurin, int_a^inf f + f(a)/2
    - f'(a)/12 with a = N + 1, in closed form in TAIL_CTX at every precision.

    g(x) = ln(1 + 1/(x(x+2))) = sum_{m>=2} c_m x^-m, c_m = (-1)^m (2^m - 2)/m,
    so int_a^inf f = (1/ln 2) sum c_m a^(1-m) (ln a/(m-1) + 1/(m-1)^2), whose
    terms alternate, each below 2/a times the last: it stops at the first
    term below 2^-prec (8 terms at a = 20,001), the remainder below the next.
    f'(a) = (g(a)/a - 2 ln a/(a(a+1)(a+2)))/ln 2.
    """
    with TAIL_CTX.workprec():
        a = mpf(N + 1)
        ln_a, g = mp.log(a), mp.log1p(1 / (a * (a + 2)))
        integral, m, term = 0, 2, 1
        while abs(term) >= mpf(2) ** -mp.prec:
            term = ((-1) ** m * (2 ** m - 2) * (ln_a + mpf(1) / (m - 1))
                    / (m * (m - 1) * a ** (m - 1)))
            integral += term
            m += 1
        derivative = g / a - 2 * ln_a / (a * (a + 1) * (a + 2))
        return (integral + ln_a * g / 2 - derivative / 12) / mp.log(2)


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
