"""Khintchine's constant via the infinite product

    K = prod_{n>=1} [1 + 1/(n(n+2))]^{ln n / ln 2},

evaluated in log space.  The log-series term f(n) = (ln n/ln 2) ln(1+1/(n(n+2)))
decays like ln(n)/n^2, so brute force stalls near five digits; the accelerated
route adds a closed-form Euler-Maclaurin tail to a binary64 explicit sum of
ACCEL_TERMS terms, within the stated bound value 10^-PRODUCT_DIGITS.
Every explicit sum is one binary64 fsum, so every partial product carries
PRODUCT_DIGITS at every working precision.
"""

from __future__ import annotations

import math
import sys

from mpmath import mp, mpf

from .core import BigReal, DomainError, PrecisionContext
from .series import SeriesResult

ACCEL_TERMS = 2_000
# the digits the values carry: a binary64 log-series term takes five roundings
# (math.log, _LN2, the division by it, 1/(n(n+2)), log1p) and math.fsum one,
# so the product's log is within 6 * 2^-53 ln K < 7e-16, the product 2e-15
PRODUCT_DIGITS = sys.float_info.dig
# the Khintchine checks' tolerance, whatever the digits: the stated bound
# value 10^-PRODUCT_DIGITS is below it, since K < 10
STABILITY_TOLERANCE = mpf(10) ** (1 - PRODUCT_DIGITS)
# the working digits of the tail and of the zeta-series reference
REFERENCE_DIGITS = 30
_LN2 = math.log(2)


def _log_sum(N: int) -> float:
    """sum_{n=1}^{N} (ln n/ln 2) ln(1 + 1/(n(n+2))), exactly rounded in
    binary64.

    math.fsum adds the binary64 terms from n = 1 without rounding error,
    from a generator: no term list is kept.
    """
    return math.fsum(math.log(n) / _LN2 * math.log1p(1.0 / (n * (n + 2.0)))
                     for n in range(1, N + 1))


def khintchine_partial(N: int, ctx: PrecisionContext) -> SeriesResult:
    """Partial product over the first N factors (the n = 1 factor is unity),
    to PRODUCT_DIGITS at every ctx.  tail_bound is value (e^B - 1), with
    B = (ln N + 1)/(N ln 2) the integral-comparison bound on the log-space
    tail."""
    if not isinstance(N, int) or N < 1:
        raise DomainError(f"factor count must be an integer >= 1, got {N!r}")
    with ctx.workprec():
        value = mp.exp(mpf(_log_sum(N)))
        tail = value * mp.expm1((mp.log(N) + 1) / (N * mp.log(2)))
        return SeriesResult(value=value, terms_used=N, tail_bound=tail)


def _em_log_tail(N: int) -> BigReal:
    """The log-space tail beyond N by Euler-Maclaurin,
    int_a^inf f + f(a)/2 - f'(a)/12 + f'''(a)/720 with a = N + 1, in closed
    form at REFERENCE_DIGITS whatever the caller's precision.

    g(x) = ln(1 + 1/(x(x+2))) = sum_{m>=2} c_m x^-m, c_m = (-1)^m (2^m - 2)/m,
    so f = (1/ln 2) sum c_m x^-m ln x, and each part is a series in 1/a:
    int_a^inf x^-m ln x dx = a^(1-m) (ln a/(m-1) + 1/(m-1)^2), and each
    derivative takes x^-s (A ln x + B) to x^-s-1 (-sA ln x + A - sB), so
    (x^-m ln x)' = x^-m-1 (1 - m ln x) and
    (x^-m ln x)''' = x^-m-3 (3m^2 + 6m + 2 - m(m+1)(m+2) ln x).
    The terms in m alternate, each below about 2/a times the last: the sum
    stops at the first term below 2^-prec (11 terms at a = 2001), the
    remainder below the next.  The Euler-Maclaurin remainder is about its
    next term, -B_6/6! f^(5)(a) = -f^(5)(a)/30240: 1.6e-24 at a = 2001.
    """
    with mp.workdps(REFERENCE_DIGITS):
        a = mpf(N + 1)
        ln_a = mp.log(a)
        eps, total, m, term = mpf(2) ** -mp.prec, 0, 2, 1
        while abs(term) >= eps:
            term = (mpf((-1) ** m * (2 ** m - 2)) / (m * a ** m)
                    * (a * (ln_a / (m - 1) + mpf(1) / (m - 1) ** 2) + ln_a / 2
                       + (m * ln_a - 1) / (12 * a)
                       + (3 * m * m + 6 * m + 2 - m * (m + 1) * (m + 2) * ln_a)
                       / (720 * a ** 3)))
            total += term
            m += 1
        return total / mp.log(2)


def khintchine_accelerated(ctx: PrecisionContext) -> SeriesResult:
    """Product over ACCEL_TERMS factors with the Euler-Maclaurin tail beyond
    them.  tail_bound is the stated bound value 10^-PRODUCT_DIGITS (2.69e-15):
    it covers the binary64 roundings (about 1.8e-15, from the bound at
    PRODUCT_DIGITS) and _em_log_tail's remainder, about 1.6e-24 at a = 2001."""
    with ctx.workprec():
        value = mp.exp(mpf(_log_sum(ACCEL_TERMS)) + _em_log_tail(ACCEL_TERMS))
        return SeriesResult(value=value, terms_used=ACCEL_TERMS,
                            tail_bound=value * mpf(10) ** -PRODUCT_DIGITS)


def zeta_series_value() -> BigReal:
    """Khintchine's constant by mpmath's zeta series (Bailey, Borwein & Crandall,
    Math. Comp. 66, 1997) at REFERENCE_DIGITS working digits: the product's
    check."""
    with mp.workdps(REFERENCE_DIGITS):
        return +mp.khinchin
