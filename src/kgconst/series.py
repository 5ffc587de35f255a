"""The alternating quarter-integer series, its partial sums, the Fourier
coefficients of 1/cos(x/4), Legendre's chi function chi_2, and the double
series

    sum_{n>=1} [ sum_{k>n} (-1)^k (1/(4k-1) - 1/(4k-3)) ]^2
        = pi/16 - ln^2(1+sqrt(2))/4.

Sign conventions
----------------
The inner term t_k = (-1)^k (1/(4k-1) - 1/(4k-3)) satisfies
S_n = sum_{k<=n} t_k and T_n = S - S_n = sum_{k>n} t_k, so T_1 < 0 and
sign(T_n) = sign(t_{n+1}).  The Fourier coefficients are
a_0 = (8/pi) L and a_n = (8 sqrt(2)/pi) T_n for n >= 1.

Outer sum
---------
|T_n| <= |t_{n+1}| = 2/((4n+1)(4n+3)), so T_n^2 <= 4/(4n+1)^4 and the outer
tail beyond N is bounded by 1/(3 (4N+1)^3) (integral comparison): pure
truncation needs ~10^9 terms for 30-digit tolerances (the CLI trace counts
them with _terms_to_tolerance).  |T_n| is the smooth function

    I(n) = (1/8) [ digamma((n+5/4)/2) - digamma((n+1/4)/2)
                 - digamma((n+7/4)/2) + digamma((n+3/4)/2) ],

so V - V_n = sum_{m>n} I(m)^2 has an asymptotic expansion in powers of 1/n,
and double_series extrapolates the partial sums V_n by Richardson's method
(Bender & Orszag, Advanced Mathematical Methods for Scientists and
Engineers, 1978, section 8.1).  The extrapolate of order N,
from V_N ... V_2N, is off by about 10^(-1.14 N) (measured from N = 100 to
300 against the closed form).

Fourier coefficients
--------------------
fourier_a sums the inner tail I(n) = sum_{j>=0} (-1)^j |t_{n+1+j}| itself,
by the alternating-series acceleration of Cohen, Rodriguez Villegas & Zagier
(Convergence acceleration of alternating series, Experimental Math. 9, 2000,
Algorithm 1): |t_{n+1+j}| = int_0^1 x^(4(n+j)) (1 - x^2) dx is
a moment sequence with a positive measure, the case that algorithm treats.

Explicit summation
------------------
Every term-by-term sum (S_n, sum T_n^2 and the CLI trace)
runs through one fixed-point integer loop, ``_fixed_point_sums``, whose one
public entry is ``partial_sums``: exact
Python-int accumulation of floor(2^(P+1) / ((4k-3)(4k-1))), in the manner of
mpmath's own ``libelefun`` (Brent & Zimmermann, Modern Computer Arithmetic,
2010, section 4.4).  legendre_chi2 sums its series the same way.

Both accelerators work in the same fixed point, because their weights are
integers: Richardson's are (-1)^(k+N) C(N,k) (N+k)^N over N!, and those of
CVZ Algorithm 1 are integers over d = T_N(3).  _richardson applies them to
the integer sums V_n and _inner_tail to the floored terms, each dividing
once and rounding once.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, isqrt
from typing import NamedTuple

from mpmath import mp, mpf

from .core import GUARD_BITS, BigReal, DomainError, NoConvergence, PrecisionContext
from . import quadrature

# terms beyond which legendre_chi2 gives up: about 1.3 s at 20 digits
CHI2_MAX_TERMS = 2 ** 22


class SeriesResult(NamedTuple):
    """A series value, the terms or partial sums it took, and a bound or
    estimate of its error; a function returns one only if it met its target."""
    value: BigReal
    terms_used: int
    tail_bound: BigReal


def inner_term_magnitude(k: int, ctx: PrecisionContext) -> BigReal:
    """|t_k| = 2/((4k-3)(4k-1)), the magnitude of the k-th inner term."""
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"inner term index must be an integer >= 1, got {k!r}")
    with ctx.workprec():
        return mpf(2) / ((4 * k - 3) * (4 * k - 1))


def _fixed_point_sums(marks, *, squared: bool = False) -> tuple:
    """Partial sums at each index m in marks (ascending, each >= 0), in one
    pass, as integers scaled by 2^shift: returns (sums, shift).  Call at the
    working precision.

    squared=False gives S_m = sum_{k=1}^{m} t_k at shift P.  squared=True
    gives sum_{n=1}^{m} T_n^2 at shift 2P, with T_n = S - S_n, starting from
    T_0 = S rounded once to P bits.

    The loop works on integers scaled by 2^P, P = mp.prec + N.bit_length()
    + GUARD_BITS, N = marks[-1].  Each term floor(2^(P+1) / ((4k-3)(4k-1)))
    is short by under one unit 2^-P and the integer accumulation is exact,
    so a plain sum of N terms is off by less than N 2^-P.  The squares are
    accumulated exactly at 2P bits; T_n is off by under (n+1) 2^-P and
    2 (n+1) |T_n| < 1/(2n), so sum T_n^2 is off by under
    (1 + ln N)/2 2^-P <= N 2^-P.  Both bounds are below
    2^-(mp.prec + GUARD_BITS), so a rounding of the result to an mpf
    dominates.
    """
    P = mp.prec + marks[-1].bit_length() + GUARD_BITS
    two = 2 << P
    tail = 0  # T_0 - (sum of the terms so far), scaled by 2^P
    if squared:
        with mp.workprec(P + 10):
            tail = int(mp.nint(mp.ldexp(mp.sqrt(2) / 2 * mp.log(1 + mp.sqrt(2)), P)))
    acc = 0   # sum of tail^2, scaled by 2^(2P)
    out = []
    start = 1
    for mark in marks:
        for k in range(start, mark + 1):
            term = two // ((4 * k - 3) * (4 * k - 1))
            if k & 1:  # t_k > 0 for odd k
                tail -= term
            else:
                tail += term
            if squared:
                acc += tail * tail
        start = mark + 1
        out.append(acc if squared else -tail)
    return out, (2 * P if squared else P)


def partial_sums(indices, ctx: PrecisionContext, *, squared: bool = False) -> list:
    """S_n for each n in indices (ascending), or sum_{m<=n} T_m^2 with
    squared=True (each n >= 1), from one pass of the fixed-point loop.

    S_n is rounded once to the working precision; sum T_m^2 keeps all 2P
    bits of its integer, an exact mpf."""
    indices = list(indices)
    if not indices:
        return []
    if (not all(isinstance(n, int) for n in indices) or indices != sorted(indices)
            or indices[0] < int(squared)):
        raise DomainError(f"indices must be integers ascending from {int(squared)}, "
                          f"got {indices}")
    with ctx.workprec():
        sums, shift = _fixed_point_sums(indices, squared=squared)
        return [mp.ldexp(v if squared else mpf(v), -shift) for v in sums]


def limit_S(ctx: PrecisionContext) -> BigReal:
    """S = lim S_n = (sqrt(2)/2) ln(1 + sqrt(2))."""
    with ctx.workprec():
        return mp.sqrt(2) / 2 * mp.log(1 + mp.sqrt(2))


def fourier_a(n: int, ctx: PrecisionContext) -> BigReal:
    """Fourier cosine coefficient a_n of 1/cos(x/4) on [-pi, pi].

    a_0 = (8/pi) ln(1+sqrt(2)); a_n = (8 sqrt(2)/pi) T_n for n >= 1, with
    sign(T_n) = sign(t_{n+1}) = (-1)^n and |T_n| = I(n) summed from the
    inner terms by _inner_tail, so the cost does not grow with n and no
    partial sum S_n is formed.
    """
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"coefficient index must be an integer >= 0, got {n!r}")
    with ctx.workprec():
        if n == 0:
            return 8 / mp.pi * mp.log(1 + mp.sqrt(2))
        return (-1) ** n * 8 * mp.sqrt(2) / mp.pi * _inner_tail(n)


@lru_cache(maxsize=None)
def _cvz_weights(N: int) -> tuple:
    """The weights of Cohen, Rodriguez Villegas & Zagier's Algorithm 1 for N
    terms, as integers: (c_0, ..., c_{N-1}) and d, with
    sum_{j>=0} (-1)^j b_j ~ sum_{j<N} c_j b_j / d.

    d = T_N(3) = ((3 + sqrt(8))^N + (3 - sqrt(8))^N)/2, by
    T_{m+1} = 6 T_m - T_{m-1}.  The auxiliary e_k are minus the coefficients
    of x^k in T_N(1 - 2x), so their recurrence
    e_{k+1} = 2 (k+N)(k-N) e_k / ((2k+1)(k+1)) divides exactly, and
    c_k = e_k - c_{k-1}, c_{-1} = -d.
    """
    d_prev, d = 1, 3
    for _ in range(N - 1):
        d_prev, d = d, 6 * d - d_prev
    e, c = -1, -d
    weights = []
    for k in range(N):
        c = e - c
        weights.append(c)
        e = 2 * (k + N) * (k - N) * e // ((2 * k + 1) * (k + 1))
    return tuple(weights), d


def _inner_tail(n: int) -> BigReal:
    """I(n) = |T_n| = sum_{j>=0} (-1)^j b_j, b_j = |t_{n+1+j}|
    = 2/((4(n+j)+1)(4(n+j)+3)), for n >= 1, at the working precision.

    N terms of CVZ Algorithm 1 err by under 2 b_0/(3 + sqrt(8))^N, and
    b_0 < 2 I(n), so the bound is relative at every n:
    N = 1.31 mp.dps + 2 puts it below 10^-mp.dps.  The weights of
    _cvz_weights meet floor(2^(P+1) / ((4(n+j)+1)(4(n+j)+3))), each short
    by under one unit 2^-P, in exact integer arithmetic; the sum is divided
    once by d and rounded once to an mpf.  Each |c_j| is below d, so the
    quotient is off by under N units, and I(n) > b_0/2 > (4n+3)^-2, so
    P = mp.prec + bitlength(N) + 2 bitlength(4n+3) + GUARD_BITS keeps the
    error relative, under 2^-(mp.prec + GUARD_BITS), at every n.
    """
    N = int(1.31 * mp.dps) + 2
    weights, d = _cvz_weights(N)
    P = mp.prec + N.bit_length() + 2 * (4 * n + 3).bit_length() + GUARD_BITS
    two = 2 << P
    acc = 0
    m = 4 * n
    for c in weights:
        acc += c * (two // ((m + 1) * (m + 3)))
        m += 4
    return mp.ldexp(mpf(acc // d), -P)


def _chebyshev_t(m: int, c: int, W: int) -> int:
    """T_m(c) for |c| <= 1, by doubling in integers scaled by 2^W: c and the
    result are such integers.  From the pair (T_k, T_{k+1}), each bit of m,
    read from the top, gives (T_2k, T_2k+1) or (T_2k+1, T_2k+2) by
    T_2k = 2 T_k^2 - 1 and T_2k+1 = 2 T_k T_{k+1} - c, two integer products
    per bit of m.  Each step at most quadruples the error of the pair and
    adds under one unit 2^-W, so after the k = bit_length(m) steps T_m is off
    by under 4^k/3 units.
    """
    one = 1 << W
    t, t1 = one, c
    for bit in bin(m)[2:]:
        if bit == "1":
            t, t1 = (t * t1 >> (W - 1)) - c, (t1 * t1 >> (W - 1)) - one
        else:
            t, t1 = (t * t >> (W - 1)) - one, (t * t1 >> (W - 1)) - c
    return t


def fourier_a_quadrature(n: int, ctx: PrecisionContext) -> BigReal:
    """Independent route: a_n = (8/pi) * integral of cos(4nt)/cos(t) over
    (0, pi/4), by Fejer's second rule on a rational integrand.

    The integral is folded about pi/8: t -> pi/4 - t maps cos(4nt) to
    (-1)^n cos(4nt) and cos(t) to (cos t + sin t)/sqrt(2), so it equals the
    integral of cos(4nt) [1/cos t + (-1)^n sqrt(2)/(cos t + sin t)] over
    (0, pi/8).  With u = tan(t/2), cos t = c = (1 - u^2)/(1 + u^2) and
    dt = 2 du/(1 + u^2), that is the integral of
    T [2/(1 - u^2) + (-1)^n 2 sqrt(2)/(1 + 2u - u^2)] over
    (0, tan(pi/16)), with T = T_4n(c) = cos(4nt) by _chebyshev_t: no node
    makes a transcendental call.  At n = 0 (T = 1) the integral is L, so
    a_n = (8/pi)(L + int h_n), with
    h_n = 2(T - 1)/(1 - u^2) + 2 sqrt(2)((-1)^n T - 1)/(1 + 2u - u^2).
    T is 1 at u = +-1 (t = +-pi/2) and (-1)^n at u = 1 -+ sqrt(2)
    (t = -pi/4, 3pi/4), so h_n has no pole there: its only singularities
    are those of c, at u = +-i, on the Bernstein ellipse of radius 20.2
    about [0, tan(pi/16)].

    The rule takes the bound of the ellipse E_rho, rho = 2, 4, 8 or 16,
    that proves the fewest intervals.  With r = tan(pi/16)/2, E_rho has
    semi-minor axis b = r (rho - 1/rho)/2 < 1, and on it
    |Im atan u| = atanh(2 Im u/(1 + |u|^2))/2 <= atanh b, so
    |T| = |cos(8n atan u)| <= cosh(8n atanh b).  A real point p beyond the
    foci 0 and 2r lies at distance ||p - r| - r (rho + 1/rho)/2| from the
    boundary of E_rho, its distance from the nearer end of the major axis,
    since every normal of E_rho meets the real axis between the foci; that
    bounds the two denominators there, and the maximum principle carries
    the bound inside.

    The bounds are taken at 64 bits (quadrature.bound_precision), whose
    roundings the rule's slack covers.

    h_n runs on integers scaled by 2^W, W = prec + 2k + GUARD_BITS, with prec
    the rule's precision and k = bitlength(4n), and the rule sums its integer
    values exactly: it hands h_n the distance X of a pair of points from the
    ends, and h_n returns its sum at u = X and u = floor(tan(pi/16) 2^W) - X,
    each within 1.5 units 2^-W of its point (see
    quadrature.integrate_analytic).  1 - u^2, c, T by _chebyshev_t and both
    quotients are formed in integers, sqrt(2) by math.isqrt.  c is off by
    under 3 units at u and under 5 at the point, since |dc/du| < 3/4, and
    |T_m'| <= m^2 < 4^k on [-1, 1], so with the doubling's 4^k/3 units T is
    off by under 6 4^k.  1 - u^2 > 0.96 and 1 + 2u - u^2 >= 1 on the
    interval, so h_n is off by under 2^5 4^k units, under
    2^-(prec + GUARD_BITS - 5).
    """
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"coefficient index must be an integer >= 0, got {n!r}")
    with ctx.workprec():
        with quadrature.rule_precision(ctx):
            width = mp.tan(mp.pi / 16)
            sign = (-1) ** n
            W = mp.prec + 2 * (4 * n).bit_length() + GUARD_BITS
            one = 1 << W
            twice_root2 = 2 * isqrt(2 << 2 * W)
            end = int(mp.ldexp(width, W))

            def h(u):
                p = one - (u * u >> W)
                t = _chebyshev_t(4 * n, (p << W) // (2 * one - p), W)
                return (((t - one) << (W + 1)) // p
                        + twice_root2 * (sign * t - one) // (p + 2 * u))

            with quadrature.bound_precision():
                root2 = mp.sqrt(2)
                r = width / 2

                def gap(p, rho):
                    # the distance of the real point p from E_rho's boundary
                    return abs(abs(p - r) - r * (rho + mpf(1) / rho) / 2)

                bounds = [(rho, (1 + mp.cosh(8 * n * mp.atanh(r * (rho - mpf(1) / rho) / 2)))
                           * (2 / (gap(1, rho) * gap(-1, rho))
                              + 2 * root2 / (gap(1 - root2, rho) * gap(1 + root2, rho))))
                          for rho in (2, 4, 8, 16)]
            integral = mp.log(1 + mp.sqrt(2)) + quadrature.integrate_analytic(
                lambda x: h(x) + h(end - x), 0, width, ctx, bounds, W).value
        return 8 / mp.pi * integral


def _terms_to_tolerance(digits: int, *, squared: bool = False) -> int:
    """Smallest N >= 1 whose truncation bound is below 10^-digits: the outer
    tail bound 1/(3 (4N+1)^3) with squared=True, else the first omitted
    inner term |t_{N+1}| = 2/((4N+1)(4N+3)), which bounds |S - S_N|.

    The bounds are compared in integers; N is found by doubling, then by
    bisection.
    """
    def meets(N):
        if squared:
            return 3 * (4 * N + 1) ** 3 > 10 ** digits
        return (4 * N + 1) * (4 * N + 3) > 2 * 10 ** digits

    high = 1
    while not meets(high):
        high *= 2
    low = high // 2  # 0, or a count that misses
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if meets(mid) else (mid, high)
    return high


@lru_cache(maxsize=None)
def double_series(ctx: PrecisionContext) -> SeriesResult:
    """V = sum_{n>=1} T_n^2, the double-series value (= pi/16 - L^2/4).

    Richardson's extrapolate of order N = working_dps + 10 from the partial
    sums V_N ... V_2N, off by about 10^(-1.14 N): below
    ctx.working_tolerance, so that V scaled, as in the PARSEVAL_CLOSURE and
    KG_FROM_SERIES rows, still meets ctx.tolerance.  Its weights grow to
    about 10^(0.93 N), so the sums are taken N digits deeper, as the
    integers of _fixed_point_sums, floored to the P bits they carry, and
    _richardson applies the weights to them exactly and rounds once.
    tail_bound is its distance from the extrapolate of order N - 10 from the
    same sums; NoConvergence is raised unless it is below
    ctx.working_tolerance, as for sums without an expansion in powers of 1/n.
    """
    with ctx.workprec():
        N = ctx.working_dps + 10
        with mp.extradps(N):
            sums, shift = _fixed_point_sums(range(1, 2 * N + 1), squared=True)
            shift //= 2  # sums[n] = V_n at P bits
            sums = [0] + [v >> shift for v in sums]
            value = _richardson(sums, N)
            bound = abs(value - _richardson(sums, N - 10))
        value, bound = mp.ldexp(mpf(value), -shift), mp.ldexp(mpf(bound), -shift)
        if bound >= ctx.working_tolerance:
            raise NoConvergence(f"double series tail bound {bound} is not below "
                                f"working tolerance {ctx.working_tolerance}")
        return SeriesResult(value=value, terms_used=2 * N, tail_bound=bound)


def _richardson_weights(N: int) -> list:
    """The integer weights (-1)^(k+N) C(N,k) (N+k)^N, k = 0 ... N, of the
    order-N Richardson extrapolate times N! (Bender & Orszag, section 8.1)."""
    return [(-1) ** (k + N) * comb(N, k) * (N + k) ** N for k in range(N + 1)]


def _richardson(sums, N: int) -> int:
    """Richardson's extrapolate of order N from the integers sums[N] ...
    sums[2N], at their scale: sum_k w_k sums[N+k] is exact, and the one
    division by N! floors it, short by under one unit."""
    weighted = sum(w * v for w, v in zip(_richardson_weights(N), sums[N:2 * N + 1]))
    return weighted // factorial(N)


def legendre_chi2(z, ctx: PrecisionContext) -> SeriesResult:
    """Legendre's chi function chi_2(z) = sum_{j>=0} z^(2j+1)/(2j+1)^2, 0 < z < 1.

    Integrating 2 atanh(e^-x) = sum_j 2 e^-(2j+1)x/(2j+1) term by term gives
    int_a^inf 2 atanh(e^-x) dx = 2 chi_2(e^-a); at a = L, e^-L = sqrt(2) - 1,
    and Landen's value is chi_2(sqrt(2)-1) = pi^2/16 - L^2/4 (Lewin,
    Polylogarithms and Associated Functions, 1981).

    The sum runs in the fixed point of _fixed_point_sums, on integers scaled
    by 2^P, and reads z to twice the working precision, so a z computed
    deeper than working precision (as sqrt(2) - 1 is for the appendix rows)
    loses none of its extra bits.  With q = z^2, Z = floor(z 2^P) and
    Q = floor(Z^2 / 2^P), the power z^(2j+1) is carried as
    p_{j+1} = floor(p_j Q / 2^P).  Every floor rounds down: Q is short by
    under 3 units 2^-P, so each p_j is short by under 4/(1-q) units, and
    the loop stops when p_j reaches 0, which leaves a remainder under
    4/(1-q)^2 units.  With one unit per floor of p_j / (2j+1)^2, J terms
    are short by under (J + 9/(1-q)^2) 2^-P, the returned tail_bound.
    P = mp.prec + bitlength(J + 9/(1-q)^2) + GUARD_BITS puts it below
    2^-(mp.prec + GUARD_BITS); the one rounding to an mpf dominates.  The
    terms shrink by q per step, so J is under P / log2(1/q) + 1: 282 at
    200 digits for z = sqrt(2) - 1.  That count grows as 1/(1 - z), and
    above CHI2_MAX_TERMS the call raises NoConvergence before the loop.
    """
    with ctx.workprec():
        prec = mp.prec
    with mp.workprec(2 * prec):
        z = mpf(z)
        if not 0 < z < 1:
            raise DomainError(f"chi_2 series requires 0 < z < 1, got {z}")
        q = z * z
        shrink = -mp.log(q, 2)  # the bits each term loses
        slack = 9 / (1 - q) ** 2
        # above J + slack: the terms to shrink 64 bits below 2^-prec
        budget = int((prec + 64) / shrink + slack)
        P = prec + budget.bit_length() + GUARD_BITS
        terms = int(P / shrink) + 1
        if terms > CHI2_MAX_TERMS:
            raise NoConvergence(f"chi_2 series at 1 - z = {mp.nstr(1 - z, 3)} needs "
                                f"about {terms} terms, more than {CHI2_MAX_TERMS}")
        Z = int(mp.floor(mp.ldexp(z, P)))
    Q = Z * Z >> P
    power = Z
    acc = 0
    j = 0
    while power:
        acc += power // (2 * j + 1) ** 2
        power = power * Q >> P
        j += 1
    with ctx.workprec():
        return SeriesResult(value=mp.ldexp(acc, -P), terms_used=j,
                            tail_bound=(j + slack) * mp.ldexp(1, -P))
