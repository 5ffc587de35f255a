"""Khintchine's constant via the infinite product

    K = prod_{n>=1} [1 + 1/(n(n+2))]^{ln n / ln 2},

evaluated in log space.  The log-series term f(n) = (ln n/ln 2) ln(1+1/(n(n+2)))
decays like ln(n)/n^2, so brute force stalls near five digits; the accelerated
route adds a closed-form Euler-Maclaurin tail to binary64 explicit sums of
1000 and 2000 terms, and is certified by stability across that doubling.
Every explicit sum is one binary64 fsum, so every partial product carries
PRODUCT_DIGITS at every working precision.
"""

from __future__ import annotations

import math
import sys

from mpmath import mp, mpf

from .core import BigReal, PrecisionContext
from .errors import DomainError, NoConvergence
from .series import SeriesResult

# the fixed tolerance of the desk-scale Khintchine checks, whatever the digits
STABILITY_TOLERANCE = mpf("1e-8")
ACCEL_BASE_TERMS = 1_000
# the tail and the zeta-series reference run at TAIL_CTX's 30 working digits
TAIL_CTX = PrecisionContext(digits=20)
# the digits the values carry: a binary64 log-series term takes five roundings
# (math.log, _LN2, the division by it, 1/(n(n+2)), log1p) and math.fsum one,
# so the product's log is within 6 * 2^-53 ln K < 7e-16, the product 2e-15
PRODUCT_DIGITS = sys.float_info.dig
REFERENCE_DIGITS = TAIL_CTX.working_dps
_LN2 = math.log(2)


def _log_sum(marks) -> list:
    """sum_{n=1}^{N} (ln n/ln 2) ln(1 + 1/(n(n+2))) for each N of the
    ascending marks, each exactly rounded in binary64.

    math.fsum adds each mark's prefix of binary64 terms from n = 1, without
    rounding error, from a generator: no term list is kept.
    """
    return [math.fsum(math.log(n) / _LN2 * math.log1p(1.0 / (n * (n + 2.0)))
                      for n in range(1, N + 1)) for N in marks]


def partial_products(marks, ctx: PrecisionContext) -> list:
    """The partial products over the first N factors for each N of the
    marks, which ascend from 1 (the n = 1 factor is unity), from one
    _log_sum call; each carries PRODUCT_DIGITS at every ctx.
    """
    marks = list(marks)
    if not marks:
        return []
    if not all(isinstance(m, int) for m in marks) or marks != sorted(marks) or marks[0] < 1:
        raise DomainError(f"factor counts must be integers ascending from 1, got {marks}")
    with ctx.workprec():
        return [mp.exp(mpf(log_sum)) for log_sum in _log_sum(marks)]


def khintchine_partial(N: int, ctx: PrecisionContext) -> SeriesResult:
    """Partial product over the first N factors (the n = 1 factor is unity),
    to PRODUCT_DIGITS at every ctx.  tail_bound is value (e^B - 1), with
    B = (ln N + 1)/(N ln 2) the integral-comparison bound on the log-space
    tail."""
    value = partial_products([N], ctx)[0]
    with ctx.workprec():
        tail = value * mp.expm1((mp.log(N) + 1) / (N * mp.log(2)))
        return SeriesResult(value=value, terms_used=N, tail_bound=tail)


def _em_log_tail(N: int) -> BigReal:
    """The log-space tail beyond N by Euler-Maclaurin,
    int_a^inf f + f(a)/2 - f'(a)/12 + f'''(a)/720 with a = N + 1, in closed
    form in TAIL_CTX at every precision.

    g(x) = ln(1 + 1/(x(x+2))) = sum_{m>=2} c_m x^-m, c_m = (-1)^m (2^m - 2)/m,
    so f = (1/ln 2) sum c_m x^-m ln x, and each part is a series in 1/a:
    int_a^inf x^-m ln x dx = a^(1-m) (ln a/(m-1) + 1/(m-1)^2), and each
    derivative takes x^-s (A ln x + B) to x^-s-1 (-sA ln x + A - sB), so
    (x^-m ln x)' = x^-m-1 (1 - m ln x) and
    (x^-m ln x)''' = x^-m-3 (3m^2 + 6m + 2 - m(m+1)(m+2) ln x).
    The terms in m alternate, each below about 2/a times the last: the sum
    stops at the first term below 2^-prec (12 terms at a = 1001), the
    remainder below the next.  The Euler-Maclaurin remainder is about its
    next term, -B_6/6! f^(5)(a) = -f^(5)(a)/30240: 1.8e-22 at a = 1001.
    """
    with TAIL_CTX.workprec():
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
    """Product with tail correction over 2 ACCEL_BASE_TERMS factors, stable
    to STABILITY_TOLERANCE against the one over ACCEL_BASE_TERMS; tail_bound
    is that spread, an estimate of the error."""
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
        return SeriesResult(value=values[1], terms_used=2 * ACCEL_BASE_TERMS,
                            tail_bound=spread)


def zeta_series_value() -> BigReal:
    """Khintchine's constant by mpmath's zeta series (Bailey, Borwein & Crandall,
    Math. Comp. 66, 1997) at TAIL_CTX's 30 working digits: the product's check."""
    with TAIL_CTX.workprec():
        return +mp.khinchin
