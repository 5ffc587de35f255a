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

Both rules run in fixed point end to end.  The caller names the fraction
bits W of its integrand, which takes its nodes as integers scaled by 2^W
and returns its value as an integer at the same scale; the rule forms its
weighted sum exactly from the integer weights and rounds it once.

Neither rule judges its own convergence.  Its caller proves where the
integrand is analytic and how large it is there, as pairs (rho, M) for a
Bernstein ellipse about [a, b] (integrate_analytic) or (width, M) for a strip
|Im t| < width (integrate_even_periodic), and each pair bounds the rule's
error on n intervals in closed form (derived at each rule).  The rule takes
the smallest power of 2, n >= 4, at which some pair's bound falls below
ctx.working_tolerance = ctx.tolerance 10^-GUARD_DIGITS, raises NoConvergence
before any evaluation if that n is beyond its cap, and otherwise evaluates
the rule on n intervals once and returns the bound as its error_bound.  The
bound is the rule's error in exact arithmetic, computed at 64 bits with
slack (_intervals); the rule works RULE_EXTRA_DPS digits beyond the working
precision, and the rounding of its nodes and weights is bounded at
_sine_table and _fejer_rule.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from mpmath import mp, mpf

from .core import (GUARD_BITS, BigReal, DomainError, NoConvergence, NonFiniteEvaluation,
                   PrecisionContext)

# decimal digits beyond ctx.working_dps at which both rules evaluate and sum
RULE_EXTRA_DPS = 10
# trapezoid intervals on (0, pi/2) beyond which integrate_even_periodic
# gives up
PERIODIC_MAX_INTERVALS = 2 ** 16
# Fejer intervals beyond which integrate_analytic gives up
FEJER_MAX_INTERVALS = 2 ** 11
# fraction bits of the sine table beyond the rule's precision and GUARD_BITS:
# 16 for the factor n <= PERIODIC_MAX_INTERVALS by which sin^2 of the first
# node magnifies an entry's error, 6 for that error (under 2 log2 n <= 32
# units, doubled by the square) and 2 spare; see _sine_table
TABLE_EXTRA_BITS = 24


class QuadratureResult(NamedTuple):
    value: BigReal
    error_bound: BigReal
    evaluations: int


def rule_precision(ctx: PrecisionContext):
    """Context manager switching mpmath to the precision both rules evaluate
    and sum at, RULE_EXTRA_DPS digits beyond ctx.working_dps; a caller takes
    the constants of its integrand and its limits there."""
    return mp.workdps(ctx.working_dps + RULE_EXTRA_DPS)


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
    [-1, 1]: its distances and weights as integers, for j = 1 .. n/2.

    Its nodes are cos(theta_j), theta_j = j pi/n for j = 1 .. n-1, and its
    weights w_j = (4 sin theta_j / n) S_j, with S_j from _weight_sums.  Both
    are symmetric about j = n/2, so the rule is returned as the distance
    d_j = 1 - cos(theta_j) = 2 sin^2(theta_j/2) of the nodes +-cos(theta_j)
    from the nearer endpoint, which keeps every digit of the nodes close to
    an endpoint, and the weight w_j of each: d_j 2^(2P) and w_j n 2^(2P),
    P = _table_bits(prec), the exact products 2 (entry j)^2 (d_(n/2) = 1
    exactly) and 4 (entry 2j) S_j.

    sin(theta_j/2) and sin(theta_j) are entries j and 2j of
    _sine_table(n, prec), integers scaled by 2^P off by under e = 2 log2(n)
    units 2^-P.  With the error bound of _weight_sums, each weight is off by
    under (4/n)(e + (n + 1)(sqrt(2) e H + 2)) < 2^10 units for
    n <= FEJER_MAX_INTERVALS, and the n - 1 weights together by under
    2^(10+11) 2^-P = 2^-(prec + GUARD_BITS + 3).  Each distance is off by
    under 2 e n 2^-P < 2^-(prec + GUARD_BITS + 7) of d_j, since
    sin(theta_j/2) >= 1/n.
    """
    P = _table_bits(prec)
    table = _sine_table(n, prec)
    sums = _weight_sums(n, prec)
    h = n // 2
    distances = [2 * table[j] ** 2 for j in range(1, h)] + [1 << 2 * P]
    weights = [4 * table[2 * j] * sums[j] for j in range(1, h + 1)]
    return distances, weights


def bound_precision():
    """Context manager switching mpmath to the 64 bits at which the rules,
    and the callers that prove their bounds, compute error bounds (see
    _intervals)."""
    return mp.workprec(64)


def _intervals(rule, error, bounds, least, max_intervals, ctx):
    """(n, error bound) for the smallest power of 2, n >= 4, at which
    error(n, p, M) falls below ctx.working_tolerance for some pair (p, M) of
    bounds.  Raises DomainError unless every p exceeds least and every M is
    positive and finite, and NoConvergence naming the rule, before any
    evaluation, beyond max_intervals.

    The bound only chooses n and is reported; no digit of the integral
    depends on it, so it is computed at 64 bits (bound_precision), with
    slack that can only loosen it: each p is rounded down and each M up,
    which enlarges error, the target is rounded down, and the bound is taken
    1 + 2^-20 times as large.  That factor covers relative errors of up to
    2^-21 in error's own roundings and in an M that its caller computed at
    64 bits, each a few units 2^-64 times the condition of its expression.
    """
    tol = ctx.working_tolerance
    with bound_precision():
        pairs = [(mpf(p, rounding="d"), mpf(M, rounding="u")) for p, M in bounds]
        if not pairs or not all(p > least and 0 < M < mp.inf for p, M in pairs):
            raise DomainError(f"{rule} requires bounds (p, M) with p > {least} and "
                              f"finite M > 0, got {pairs}")
        tol = mpf(tol, rounding="d")
        slack = 1 + mp.ldexp(1, -20)
        n = 4
        while (err := slack * min(error(n, p, M) for p, M in pairs)) >= tol:
            n *= 2
        if n > max_intervals:
            raise NoConvergence(
                f"{rule} cannot reach tolerance {mp.nstr(tol, 3)} within {max_intervals} "
                f"intervals: its error bound needs about {n} intervals")
    return n, err


def _scaled(v: int, shift: int) -> int:
    """v 2^-shift, rounded to the nearest integer for shift > 0."""
    return (v + (1 << (shift - 1))) >> shift if shift > 0 else v << -shift


def _exact_sum(total, rule):
    if not isinstance(total, int):
        raise NonFiniteEvaluation(f"{rule}: the integrand returned a value that is not an "
                                  f"integer; the weighted sum is {total}")
    return total


def integrate_analytic(f, a, b, ctx: PrecisionContext, bounds, bits: int) -> QuadratureResult:
    """Integrate F over (a, b), for F analytic on the closed interval [a, b],
    by Fejer's second rule (see _fejer_rule) on n intervals.

    bounds holds pairs (rho, M), rho > 1, each stating that F is analytic in
    the Bernstein ellipse E_rho about [a, b] (foci a and b, semi-axes summing
    to r rho, r = (b - a)/2) with |F| <= M there.  Then
    F(a + r(1 + x)) = sum_k c_k T_k(x) with |c_k| <= 2 M rho^-k (Trefethen,
    Approximation Theory and Approximation Practice, 2013, Theorem 8.1).
    The rule's n - 1 nodes are symmetric about the midpoint, so for even n it
    is exact through degree n - 1; its weights are positive and sum to 2, so
    it gives |Q(T_k)| <= 2, and |int T_k| = 2/(k^2 - 1) <= 2/15 for even
    k >= 4 (0 for odd k).  The error is therefore at most
    r sum_{k>=n} 2 M rho^-k (2 + 2/15) = r (64/15) M rho^(1-n)/(rho - 1),
    the bound by which the module docstring's choice of n is made (compare
    Trefethen, "Is Gauss quadrature better than Clenshaw-Curtis?", SIAM
    Review 50, 2008, Theorem 5.1, for Clenshaw-Curtis).

    The rule runs on integers scaled by 2^bits.  Its points, the interior
    Chebyshev points, pair off as a + x_j and b - x_j, x_j = r d_j with d_j
    from the rule, j = 1 .. n/2; x_(n/2) = r puts the last pair at the
    midpoint.  f is called once per pair, with x_j 2^bits rounded to the
    nearest integer X, and returns (F(a + x) + F(b - x)) 2^bits as an
    integer, x = X 2^-bits: no endpoint is evaluated, and f reads each
    point's distance from its endpoint, not the point.  x_j is off by under
    half a unit 2^-bits and 2^-(prec + GUARD_BITS + 7) x_j (see _fejer_rule).
    The weighted sum, with the midpoint's weight halved, is formed exactly
    from the rule's integer weights and rounded once, with r, to the rule's
    precision.  Raises DomainError for a >= b or a bad pair, NoConvergence
    if the bounds need more than FEJER_MAX_INTERVALS intervals, and
    NonFiniteEvaluation if f returns anything but integers.
    """
    with rule_precision(ctx):
        a = mpf(a)
        b = mpf(b)
        if not a < b:
            raise DomainError(f"integrate_analytic requires a < b, got a={a}, b={b}")
        r = (b - a) / 2
        n, err = _intervals(
            "Fejer's second rule",
            lambda n, rho, M: r * 64 * M * rho ** (1 - n) / (15 * (rho - 1)),
            bounds, 1, FEJER_MAX_INTERVALS, ctx)
        distances, weights = _fejer_rule(n, mp.prec)
        # r = m 2^e exactly, so x_j 2^bits = m d_j 2^(2P) 2^-shift
        m, e = r.man_exp
        P2 = 2 * _table_bits(mp.prec)
        shift = P2 - bits - e
        values = [f(_scaled(m * d, shift)) for d in distances]
        total = _exact_sum(2 * sum(w * v for w, v in zip(weights, values))
                           - weights[-1] * values[-1], "Fejer's second rule")
        # r total / (2 n 2^(2P + bits))
        return QuadratureResult(mp.ldexp(m * total, e - P2 - bits - n.bit_length()),
                                err, n - 1)


def integrate_even_periodic(g, ctx: PrecisionContext, bounds, bits: int) -> QuadratureResult:
    """Integrate G(t) = g(sin^2 t, cos^2 t) over (0, pi/2), by the trapezoid
    rule on n intervals with halved end weights.

    bounds holds pairs (width, M), width > 0, each stating that G is analytic
    in the strip |Im t| < width with |G| <= M there.  G is even and of period
    pi, so the rule is a quarter of the 2n-point trapezoid rule for
    F(theta) = G(theta/2) over its period 2 pi, and F is analytic in
    |Im theta| < 2 width, where that rule errs by at most
    4 pi M/(e^(2n 2 width) - 1) (Trefethen & Weideman, "The exponentially
    convergent trapezoidal rule", SIAM Review 56, 2014, Theorem 3.2).  So
    the error is at most pi M/(e^(4n width) - 1), the bound by which the
    module docstring's choice of n is made.

    The rule runs on integers scaled by 2^bits: g takes sin^2 t and cos^2 t
    so scaled and returns G(t) 2^bits as an integer.  At t_j = j pi/(2n),
    sin t_j and cos t_j = sin((n - j) pi/(2n)) are entries j and n - j of
    _sine_table(n, prec), so each square is off by under
    2^-(prec + GUARD_BITS + 2) of itself (see TABLE_EXTRA_BITS) and half a
    unit 2^-bits, and both are exact at the ends.  The sum is exact and is
    rounded once before it is scaled by pi/(2n).  Write g so that it cancels
    no digits: for example 1 - k^2 sin^2 t as
    cos^2 t + (1 - k)(1 + k) sin^2 t.  Raises DomainError for a bad pair,
    NoConvergence if the bounds need more than PERIODIC_MAX_INTERVALS
    intervals, and NonFiniteEvaluation if g returns anything but integers.
    """
    with rule_precision(ctx):
        n, err = _intervals("periodic trapezoid",
                            lambda n, width, M: mp.pi * M / mp.expm1(4 * n * width),
                            bounds, 0, PERIODIC_MAX_INTERVALS, ctx)
        shift = 2 * _table_bits(mp.prec) - bits
        squares = [_scaled(t * t, shift) for t in _sine_table(n, mp.prec)]
        values = [g(squares[j], squares[n - j]) for j in range(n + 1)]
        total = _exact_sum(2 * sum(values) - values[0] - values[-1], "periodic trapezoid")
        # pi/(2n) (total/2) 2^-bits
        return QuadratureResult(mp.pi * mp.ldexp(total, -(bits + 1 + n.bit_length())),
                                err, n + 1)
