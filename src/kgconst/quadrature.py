"""Quadrature at arbitrary precision, by two rules:

- Fejer's second rule on the interior Chebyshev points for integrands
  analytic on the closed interval (integrate_analytic).
- the trapezoid rule for integrands g(sin^2 t, cos^2 t), even and of period
  pi (integrate_even_periodic).

Both rules read their nodes from one integer table of sin(m pi/(2n)) per
(intervals, precision), built from the table for half as many intervals
(_sine_table), so neither evaluates a trigonometric function per node.
The tables and Fejer's weights are cached per (intervals, precision) by
functools.lru_cache, which keeps its bookkeeping consistent across threads;
a concurrent miss may build an entry twice, with identical integers.
mpmath's precision is process-global, so the package is not safe to call
from two threads at once in any case.

One loop (_doubling) runs both rules: it doubles their intervals until the
error estimate of the last three estimates falls below the target, or
raises NoConvergence beyond the rule's cap.  Each doubling about doubles the
correct digits, so the error of the last estimate is far below its
difference from the one before: the estimate is 10^max(D1^2/D2, 2 D1), with
D1 and D2 the log10 distances of the last estimate from the two before it
(Borwein, Bailey & Girgensohn, Experimentation in Mathematics, 2004;
mpmath's QuadratureRule.estimate_error uses the same formula), times
ERROR_SAFETY_FACTOR.  The target is the working precision,
ctx.working_tolerance = ctx.tolerance 10^-GUARD_DIGITS.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from mpmath import mp, mpf

from .core import GUARD_BITS, BigReal, PrecisionContext
from .errors import DomainError, NoConvergence, NonFiniteEvaluation

ERROR_SAFETY_FACTOR = 10
# decimal digits beyond ctx.working_dps at which both rules evaluate and sum
RULE_EXTRA_DPS = 10
# trapezoid intervals on (0, pi/2) beyond which integrate_even_periodic
# gives up
PERIODIC_MAX_INTERVALS = 2 ** 16
# Fejer's second rule starts at FEJER_FIRST_INTERVALS intervals and gives up
# beyond FEJER_MAX_INTERVALS
FEJER_FIRST_INTERVALS = 8
FEJER_MAX_INTERVALS = 2 ** 11
# fraction bits of the sine table beyond the rule's precision and GUARD_BITS:
# 16 for the factor n <= PERIODIC_MAX_INTERVALS by which sin^2 of the first
# node magnifies an entry's error, 6 for that error (under 2 log2 n <= 32
# units, doubled by the square) and 2 spare; see _sine_table
TABLE_EXTRA_BITS = 24


@dataclass(frozen=True)
class QuadratureResult:
    value: BigReal
    error_estimate: BigReal
    evaluations: int
    levels: int


def _table_bits(prec: int) -> int:
    return prec + GUARD_BITS + TABLE_EXTRA_BITS


@lru_cache(maxsize=None)
def _sine_table(n: int, prec: int) -> list:
    """sin(m pi/(2n)) for m = 0 .. n (n a power of 2), as integers scaled by
    2^P, P = _table_bits(prec), in the manner of series._fixed_point_sums.

    The table for n is the table for n/2 at its even entries; with
    phi = pi/(2n), each odd entry is
    sin((2i+1) phi) = sin(2i phi) cos(phi) + cos(2i phi) sin(phi), where
    sin(2i phi) and cos(2i phi) = sin((n - 2i) phi) are entries i and
    n/2 - i of the table for n/2, and cos(phi), sin(phi) come from one
    cospi/sinpi pair per level.  Rounding cos(phi), sin(phi) and the entry
    to the nearest unit 2^-P adds under sqrt(2)/2 + 1/2 + 1/64 units to
    (cos(phi) + sin(phi)) times the error of the table for n/2, so every
    entry is within 2 log2(n) units of sin(m pi/(2n)) 2^P (by induction
    from the exact table [0, 2^P] for n = 1).
    """
    P = _table_bits(prec)
    if n == 1:
        return [0, 1 << P]
    half = _sine_table(n // 2, prec)
    with mp.workprec(P + 10):
        c, s = (int(mp.nint(mp.ldexp(trig(mpf(1) / (2 * n)), P)))
                for trig in (mp.cospi, mp.sinpi))
    rounding = 1 << (P - 1)
    h = n // 2
    table = [None] * (n + 1)
    table[::2] = half
    table[1::2] = [(half[i] * c + half[h - i] * s + rounding) >> P
                   for i in range(h)]
    return table


def _fft(x, period, P, stride):
    """The DFT sum_k x_k e^(2 pi i jk/m), j = 0 .. m-1, of real x (integers
    scaled by 2^P, m = len(x) a power of 2), as (re, im) lists, by radix-2
    decimation in time.  period is sin(q pi/(2n)) for q = 0 .. 4n-1 scaled
    by 2^P, and stride = 4n/m, so the twiddle e^(2 pi i j/m) is
    period[j stride + n] + i period[j stride].  Each product is rounded to
    the nearest unit once."""
    m = len(x)
    if m == 1:
        return x, [0]
    er, ei = _fft(x[::2], period, P, 2 * stride)
    odd_r, odd_i = _fft(x[1::2], period, P, 2 * stride)
    quarter = len(period) // 4
    rounding = 1 << (P - 1)
    out_r, out_i = er + er, ei + ei
    h = m // 2
    for j in range(h):
        c, s = period[j * stride + quarter], period[j * stride]
        tr = (c * odd_r[j] - s * odd_i[j] + rounding) >> P
        ti = (c * odd_i[j] + s * odd_r[j] + rounding) >> P
        out_r[j] += tr
        out_i[j] += ti
        out_r[j + h] -= tr
        out_i[j + h] -= ti
    return out_r, out_i


def _weight_sums(n: int, prec: int) -> list:
    """S_j = sum_{k=1}^{n/2} sin((2k-1) theta_j)/(2k-1), theta_j = j pi/n,
    for j = 0 .. n/2 (entry 0 unused), as integers scaled by 2^P,
    P = _table_bits(prec).

    S_j = Im[e^(-i theta_j) F_j], F_j = sum_{k=1}^{n/2} e^(2 pi i jk/n)/(2k-1),
    one length-n DFT of 1/(2k-1) (Waldvogel, "Fast construction of the Fejer
    and Clenshaw-Curtis quadrature rules", BIT 46, 2006), taken by _fft with
    twiddles from _sine_table(n, prec): sin theta_j is entry 2j and
    cos theta_j entry n - 2j.  With table entries off by under
    e = 2 log2(n) units 2^-P and every partial DFT at most
    H = sum_{k=1}^{n/2} 1/(2k-1) in size, each of the log2(n) stages at most
    doubles the error of F_j and adds sqrt(2) e H + 1 units, so S_j is off by
    under (n + 1)(sqrt(2) e H + 2) units.
    """
    P = _table_bits(prec)
    table = _sine_table(n, prec)
    # sin(q pi/(2n)) for q = 0 .. 4n-1, one full period
    period = table + table[n - 1:0:-1]
    period += [-v for v in period]
    x = [0] * n
    x[1:n // 2 + 1] = [(1 << P) // (2 * k - 1) for k in range(1, n // 2 + 1)]
    F_re, F_im = _fft(x, period, P, 4)
    rounding = 1 << (P - 1)
    return [None] + [(table[n - 2 * j] * F_im[j] - table[2 * j] * F_re[j] + rounding) >> P
                     for j in range(1, n // 2 + 1)]


@lru_cache(maxsize=None)
def _fejer_rule(n: int, prec: int):
    """Fejer's second rule with n intervals (n a power of 2, n >= 4) on
    [-1, 1]: its weights rounded to prec bits, its distances exact.

    Its nodes are cos(theta_j), theta_j = j pi/n for j = 1 .. n-1, and its
    weights w_j = (4 sin theta_j / n) S_j, with S_j from _weight_sums.  Both
    are symmetric about j = n/2, so the rule is returned as lists indexed by
    j = 0 .. n/2 (entry 0 unused): the distance
    d_j = 1 - cos(theta_j) = 2 sin^2(theta_j/2) of the nodes +-cos(theta_j)
    from the nearer endpoint, which keeps every digit of the nodes close to
    an endpoint, and the weight w_j of each.

    sin(theta_j/2) and sin(theta_j) are entries j and 2j of
    _sine_table(n, prec), integers scaled by 2^P off by under e = 2 log2(n)
    units 2^-P.  With the error bound of _weight_sums, each weight is off by
    under (4/n)(e + (n + 1)(sqrt(2) e H + 2)) < 2^10 units for
    n <= FEJER_MAX_INTERVALS, and the n - 1 weights together by under
    2^(10+11) 2^-P = 2^-(prec + GUARD_BITS + 3).  d_j is off by under
    2 e n 2^-P < 2^-(prec + GUARD_BITS + 7) of itself, since
    sin(theta_j/2) >= 1/n.  Unlike the weights, each distance is the exact
    value 2 (entry j)^2 2^-2P, a mantissa up to 2P bits wide.
    """
    P = _table_bits(prec)
    table = _sine_table(n, prec)
    sums = _weight_sums(n, prec)
    distances, weights = [None], [None]
    with mp.workprec(prec):
        for j in range(1, n // 2 + 1):
            distances.append(mp.ldexp(2 * table[j] ** 2, -2 * P))
            weights.append(mp.ldexp(4 * table[2 * j] * sums[j], -2 * P) / n)
    return distances, weights


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


def _checked(f, *x):
    v = f(*x)
    if not mp.isfinite(v):
        raise NonFiniteEvaluation(f"integrand returned {v} at {x}")
    return v


def _doubling(rule, level, n, max_intervals, ends, ctx):
    """Run level(n), which evaluates the new points of a rule on n intervals
    and returns its estimate, for n doubled from the given n until the error
    estimate falls below ctx.working_tolerance.  Called at the rule's
    working precision; raises NoConvergence naming the rule beyond
    max_intervals.  The rule evaluates n - 1 interior points and `ends` ends.
    """
    tol = ctx.working_tolerance
    estimates = []
    err = mp.inf
    while True:
        estimates.append(level(n))
        if len(estimates) >= 3:
            err = _error_estimate(estimates)
            if err < tol:
                return QuadratureResult(value=estimates[-1], error_estimate=err,
                                        evaluations=n - 1 + ends, levels=len(estimates))
        if n >= max_intervals:
            raise NoConvergence(
                f"{rule} did not reach tolerance {tol} within "
                f"{n} intervals (error estimate {err})"
            )
        n *= 2


def integrate_analytic(f, a, b, ctx: PrecisionContext) -> QuadratureResult:
    """Integrate f over (a, b), for f analytic on the closed interval [a, b].

    Fejer's second rule (see _fejer_rule) on n intervals, n doubled from
    FEJER_FIRST_INTERVALS, reusing every point.  For f analytic inside a
    Bernstein ellipse about [a, b] the error falls geometrically in n
    (Trefethen, "Is Gauss quadrature better than Clenshaw-Curtis?", SIAM
    Review 50, 2008), so each doubling about doubles the correct digits and
    _doubling stops the rule when the error estimate of the module docstring
    falls below ctx.working_tolerance.  The points are the
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
        r = (b - a) / 2
        # f at the one or two points of index j, summed; None until evaluated
        values = [None] * (FEJER_FIRST_INTERVALS // 4 + 1)

        def level(n):
            nonlocal values
            distances, weights = _fejer_rule(n, mp.prec)
            # the points of n/2 intervals are the even-index points of n
            spread = [None] * (n // 2 + 1)
            spread[::2] = values
            values = spread
            for j in range(1, n // 2 + 1):
                if values[j] is None:
                    values[j] = _checked(f, a + r * distances[j])
                    if j < n // 2:
                        values[j] += _checked(f, b - r * distances[j])
            return r * mp.fdot(weights[1:], values[1:])

        return _doubling("Fejer's second rule", level, FEJER_FIRST_INTERVALS,
                         FEJER_MAX_INTERVALS, 0, ctx)


def integrate_even_periodic(g, ctx: PrecisionContext) -> QuadratureResult:
    """Integrate g(sin^2 t, cos^2 t) over (0, pi/2).

    The integrand is even and of period pi, so the trapezoid rule on
    [0, pi/2] with halved end weights equals half the trapezoid rule over a
    full period, which converges geometrically for analytic periodic
    integrands (Trefethen & Weideman, "The exponentially convergent
    trapezoidal rule", SIAM Review 56, 2014): doubling the points doubles
    the correct digits.  The number of intervals n doubles from 4, reusing
    every point, until the error estimate of the module docstring falls
    below ctx.working_tolerance.  At t_j = j pi/(2n), sin t_j and
    cos t_j = sin((n - j) pi/(2n)) are entries j and n - j of
    _sine_table(n, prec), so each square is off by under
    2^-(prec + GUARD_BITS + 2) of itself (see TABLE_EXTRA_BITS) and both
    are exact at the ends.  Write g so that it cancels no digits: for
    example 1 - k^2 sin^2 t as cos^2 t + (1 - k)(1 + k) sin^2 t.  Raises
    NoConvergence beyond PERIODIC_MAX_INTERVALS intervals and
    NonFiniteEvaluation if g returns a non-finite value.
    """
    with mp.workdps(ctx.working_dps + RULE_EXTRA_DPS):
        P2 = 2 * _table_bits(mp.prec)
        # the ends t = 0 and pi/2, at half weight
        raw_sum = (_checked(g, mpf(0), mpf(1)) + _checked(g, mpf(1), mpf(0))) / 2

        def level(n):
            nonlocal raw_sum
            table = _sine_table(n, mp.prec)
            # every interior point on the first level, the new odd ones after
            raw_sum += mp.fsum(
                _checked(g, mp.ldexp(table[j] ** 2, -P2), mp.ldexp(table[n - j] ** 2, -P2))
                for j in range(1, n, 1 if n == 4 else 2))
            return mp.pi / (2 * n) * raw_sum

        return _doubling("periodic trapezoid", level, 4, PERIODIC_MAX_INTERVALS, 2, ctx)
