"""Quadrature at arbitrary precision, by two rules:

- Fejer's second rule on the interior Chebyshev points for integrands
  analytic on the closed interval (integrate_analytic).  Its weights are
  built once per (intervals, precision) and cached; the cache is read-only
  after construction.
- the trapezoid rule for even periodic integrands (integrate_even_periodic).

Both rules double their intervals until the error estimate of the last
three estimates falls below the target.  Each doubling about doubles the
correct digits, so the error of the last estimate is far below its
difference from the one before: the estimate is 10^max(D1^2/D2, 2 D1), with
D1 and D2 the log10 distances of the last estimate from the two before it
(Borwein, Bailey & Girgensohn, Experimentation in Mathematics, 2004;
mpmath's QuadratureRule.estimate_error uses the same formula), times
ERROR_SAFETY_FACTOR.  The target is the working precision,
ctx.working_tolerance = ctx.tolerance 10^-GUARD_DIGITS.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from mpmath import mp, mpf

from .core import GUARD_BITS, BigReal, PrecisionContext
from .errors import DomainError, NoConvergence, NonFiniteEvaluation

ERROR_SAFETY_FACTOR = 10
# decimal digits beyond ctx.working_dps at which both rules evaluate and sum
RULE_EXTRA_DPS = 10
# trapezoid intervals on the half period beyond which integrate_even_periodic
# gives up
PERIODIC_MAX_INTERVALS = 2 ** 16
# Fejer's second rule starts at FEJER_FIRST_INTERVALS intervals and gives up
# beyond FEJER_MAX_INTERVALS; its weights cost O(n^2) integer operations
FEJER_FIRST_INTERVALS = 8
FEJER_MAX_INTERVALS = 2 ** 11


@dataclass(frozen=True)
class QuadratureResult:
    value: BigReal
    error_estimate: BigReal
    evaluations: int
    levels: int


# (intervals, prec) -> (distances, weights) of Fejer's second rule, see
# _fejer_rule
_fejer_cache: dict = {}
_cache_lock = threading.Lock()


def _fejer_rule(n: int, prec: int):
    """Fejer's second rule with n intervals (n a power of 2, n >= 4) on
    [-1, 1], rounded to prec bits.

    Its nodes are cos(theta_j), theta_j = j pi/n for j = 1 .. n-1, and its
    weights w_j = (4 sin theta_j / n) sum_{k=1}^{n/2} sin((2k-1) theta_j)/(2k-1)
    (Waldvogel, "Fast construction of the Fejer and Clenshaw-Curtis
    quadrature rules", BIT 46, 2006).  Both are symmetric about j = n/2, so
    the rule is returned as lists indexed by j = 0 .. n/2 (entry 0 unused):
    the distance d_j = 1 - cos(theta_j) = 2 sin^2(theta_j/2) of the nodes
    +-cos(theta_j) from the nearer endpoint, which keeps every digit of the
    nodes close to an endpoint, and the weight w_j of each.

    Everything is read from one table of sin(m pi/(2n)), m = 0 .. n, held as
    integers scaled by 2^P, P = prec + bitlength(n) + GUARD_BITS, in the
    manner of series._fixed_point_sums.  Each entry is rounded to the
    nearest unit 2^-P; each of the n/2 terms of the weight sum is floored
    once more, so the sum (at most 1 in size) is off by under n units, its
    product with sin(theta_j) by under n + 1, and the weight, after the
    factor 4/n, by under 5 units.  The n - 1 weights together are then off
    by under 5n 2^-P < 2^-(prec + GUARD_BITS - 3).  d_j is off by under
    n 2^-P < 2^-(prec + GUARD_BITS) of itself, since sin(theta_j/2) >= 1/n.
    """
    key = (n, prec)
    rule = _fejer_cache.get(key)
    if rule is not None:
        return rule
    with _cache_lock:
        rule = _fejer_cache.get(key)
        if rule is not None:
            return rule
        P = prec + n.bit_length() + GUARD_BITS
        with mp.workprec(P + 10):
            quarter = [int(mp.nint(mp.ldexp(mp.sinpi(mpf(m) / (2 * n)), P)))
                       for m in range(n + 1)]
        # sin(m pi/(2n)) for m = 0 .. 4n-1, one full period
        table = quarter + quarter[n - 1:0:-1]
        table += [-v for v in table]
        period = 4 * n
        odd = range(1, n, 2)
        distances, weights = [None], [None]
        with mp.workprec(prec):
            for j in range(1, n // 2 + 1):
                step = 2 * j  # theta_j = 2j pi/(2n)
                s = sum(table[step * k % period] // k for k in odd)
                distances.append(mp.ldexp(2 * quarter[j] ** 2, -2 * P))
                weights.append(mp.ldexp(4 * table[step] * s, -2 * P) / n)
        rule = (distances, weights)
        _fejer_cache[key] = rule
        return rule


def _error_estimate(estimates):
    """ERROR_SAFETY_FACTOR 10^max(D1^2/D2, 2 D1) for the last of estimates,
    with D1 = log10|S_k - S_{k-1}| and D2 = log10|S_k - S_{k-2}|.

    Differences below the working precision count as one unit of it.  While
    D2 >= 0 the rule is not yet converging and the estimate is 10^max(D1, D2).
    """
    s2, s1, s = estimates[-3:]
    floor = mpf(10) ** (-mp.dps)
    d1 = mp.log10(max(abs(s - s1), floor))
    d2 = mp.log10(max(abs(s - s2), floor))
    exponent = max(d1 * d1 / d2, 2 * d1) if d2 < 0 else max(d1, d2)
    return ERROR_SAFETY_FACTOR * mpf(10) ** exponent


def _checked(f, x):
    v = f(x)
    if not mp.isfinite(v):
        raise NonFiniteEvaluation(f"integrand returned {v} at x={x}")
    return v


def integrate_analytic(f, a, b, ctx: PrecisionContext) -> QuadratureResult:
    """Integrate f over (a, b), for f analytic on the closed interval [a, b].

    Fejer's second rule (see _fejer_rule) on n intervals, n doubled from
    FEJER_FIRST_INTERVALS, reusing every point.  For f analytic inside a
    Bernstein ellipse about [a, b] the error falls geometrically in n
    (Trefethen, "Is Gauss quadrature better than Clenshaw-Curtis?", SIAM
    Review 50, 2008), so each doubling about doubles the correct digits and
    the rule stops, as the periodic one does, when the error estimate of the module
    docstring falls below ctx.working_tolerance.  The points are the
    interior Chebyshev points a + r d_j and b - r d_j, r = (b - a)/2, with
    d_j from the rule: no endpoint is evaluated, and a point near an
    endpoint keeps every digit of its distance from it.  Raises
    NoConvergence beyond FEJER_MAX_INTERVALS intervals and
    NonFiniteEvaluation if f returns a non-finite value.
    """
    with mp.workdps(ctx.working_dps + RULE_EXTRA_DPS):
        a = mpf(a)
        b = mpf(b)
        if not a < b:
            raise DomainError(f"integrate_analytic requires a < b, got a={a}, b={b}")
        tol = ctx.working_tolerance
        r = (b - a) / 2
        n = FEJER_FIRST_INTERVALS
        # f at the one or two points of index j, summed; None until evaluated
        values = [None] * (n // 2 + 1)
        estimates = []
        err = mp.inf
        while True:
            distances, weights = _fejer_rule(n, mp.prec)
            for j in range(1, n // 2 + 1):
                if values[j] is None:
                    values[j] = _checked(f, a + r * distances[j])
                    if j < n // 2:
                        values[j] += _checked(f, b - r * distances[j])
            estimates.append(r * mp.fdot(weights[1:], values[1:]))
            if len(estimates) >= 3:
                err = _error_estimate(estimates)
                if err < tol:
                    return QuadratureResult(value=estimates[-1], error_estimate=err,
                                            evaluations=n - 1, levels=len(estimates))
            if n >= FEJER_MAX_INTERVALS:
                raise NoConvergence(
                    f"Fejer's second rule did not reach tolerance {tol} within "
                    f"{n} intervals (error estimate {err})"
                )
            n *= 2
            # the points of n intervals are the even-index points of 2n
            spread = [None] * (n // 2 + 1)
            spread[::2] = values
            values = spread


def integrate_even_periodic(f, half_period, ctx: PrecisionContext) -> QuadratureResult:
    """Integrate f over (0, half_period), for f even and of period 2 half_period.

    The trapezoid rule on [0, half_period] with halved end weights equals
    half the trapezoid rule over a full period, which converges
    geometrically for analytic periodic integrands (Trefethen & Weideman,
    "The exponentially convergent trapezoidal rule", SIAM Review 56, 2014):
    doubling the points doubles the correct digits.  The number of intervals
    doubles from 4, reusing every point, until the error estimate of the
    module docstring falls below ctx.working_tolerance.  Raises DomainError
    unless half_period > 0, NoConvergence beyond PERIODIC_MAX_INTERVALS
    intervals and NonFiniteEvaluation if f returns a non-finite value.
    """
    with mp.workdps(ctx.working_dps + RULE_EXTRA_DPS):
        T = mpf(half_period)
        if not T > 0:
            raise DomainError(f"integrate_even_periodic requires half_period > 0, got {T}")
        tol = ctx.working_tolerance
        n = 4
        raw_sum = (_checked(f, mpf(0)) + _checked(f, T)) / 2 + mp.fsum(
            _checked(f, j * T / n) for j in range(1, n))
        estimates = [T / n * raw_sum]
        while True:
            if len(estimates) >= 3:
                err = _error_estimate(estimates)
                if err < tol:
                    return QuadratureResult(value=estimates[-1], error_estimate=err,
                                            evaluations=n + 1, levels=len(estimates))
            if n >= PERIODIC_MAX_INTERVALS:
                raise NoConvergence(
                    f"periodic trapezoid did not reach tolerance {tol} within "
                    f"{n} intervals (error estimate {err})"
                )
            n *= 2
            raw_sum += mp.fsum(_checked(f, j * T / n) for j in range(1, n, 2))
            estimates.append(T / n * raw_sum)

