"""Registry of every verifiable identity, with residual reports.

Each identity is one row of ``_TABLE``, keyed by its name: its paper anchor,
``lhs`` and ``rhs`` callables giving its two sides by independent routes
through the owning modules, and a fixed tolerance where a side carries a
fixed number of digits (the 15-digit Khintchine product, held to the
accuracy it states).  The table is
the registry: ``IdentityId`` is built from its keys.  ``verify`` reports the
absolute residual, the number of digits of agreement, and a pass flag against
the row's tolerance, or else the context tolerance.
"""

from __future__ import annotations

import math
import time
from enum import Enum
from functools import lru_cache
from typing import Callable, NamedTuple

from mpmath import mp, mpf

from .core import GUARD_BITS, BigReal, PrecisionContext, const_KG, const_L
from . import elliptic, khintchine, quadrature, series


class IdentityReport(NamedTuple):
    id: IdentityId
    lhs: BigReal
    rhs: BigReal
    residual: BigReal
    digits_agreed: int
    passed: bool
    error: str | None  # "<Type>: <message>" when a route raised
    runtime_ms: float


# k = 0 is excluded: its complement k' = 1 makes K(k') diverge, so the
# Legendre combination is undefined there
# 0.8 is left out: it is the complement of 0.6, whose run gives the same
# lhs bit for bit
LEGENDRE_GRID = ("0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.9",
                 "0.999")  # plus 1/sqrt(2), added at working precision
RECURRENCE_N = 7  # the index n of RECURRENCE
COEFF_N = 3  # the index n of COEFF_VS_QUADRATURE
KRIVINE_X = mpf("0.5")  # the modulus x of KRIVINE_COMPLEX_MIDDLE_EQUALITY


class _Row(NamedTuple):
    anchor: str
    lhs: Callable  # ctx -> the side at working precision; a route looks up
    rhs: Callable  # the public functions it calls when it runs
    tolerance: BigReal | None = None  # None: ctx.tolerance


@lru_cache(maxsize=None)
def _tail_integral(ctx: PrecisionContext) -> BigReal:
    """int_L^inf arcsinh(csch x) dx, as int_0^L s/sinh s ds by Fejer's second
    rule.

    phi(x) = arcsinh(csch x) = -ln tanh(x/2) is an involution, with
    phi'(x) = -1/sinh x and fixed point L, so x = phi(s) maps s in (0, L) onto
    x in (L, inf) and turns phi(x) dx into -s/sinh s ds.
    The nearest poles of s/sinh s, +-i pi, lie on the Bernstein ellipse of
    radius 14.46 about [0, L].  On E_11 every point has
    |s| <= R = L/2 + (L/4)(11 + 1/11) < 2.885 < pi, and there
    |sinh s/s| = prod_k |1 + s^2/(k pi)^2| >= prod_k (1 - R^2/(k pi)^2)
    = sin R/R, so |s/sinh s| <= R/sin R < 11.4.  Shared by APPENDIX_A1 and
    FIXED_POINT_1, whose limit pi/(2 K_G) is L by definition.

    The rule hands the integrand the distance X = x 2^W, W = prec +
    GUARD_BITS, of the pair of nodes s = x and s = L - x from the ends,
    0 < x < 1/2, and it returns the sum of s/sinh s at both, scaled by 2^W,
    from one exp: with E = e^-x, 2 sinh x = 1/E - E and, since
    e^L = 1 + sqrt(2), 2 sinh(L - x) = (1 + sqrt(2)) E - (sqrt(2) - 1)/E.
    E is read to V = 2W - bitlength(X) + 4 >= W + 5 bits, floored from an
    exp at V + 2 bits, within 1.25 units 2^-V; 1/E < 1.65 by one division,
    within 4.5; sqrt(2) by math.isqrt, within one.  So 2 sinh x is off by
    under 6 units, against 2 sinh x >= 2x >= 2^(bitlength(X) - W), and
    x/sinh x <= 1 by under 6 2^(2W - bitlength(X) - V) < 1/2 unit 2^-W,
    plus one for the division: V spends bitlength(X) - W, at most
    2 log2(n) + 1 bits since x >= L/n^2, beyond W + 4 on the cancellation
    of 1/E - E near s = 0.  2 sinh(L - x) >= 2 sinh(L/2) > 0.9 is off by
    under 9 units, and L - x is read to one unit 2^-W, from L taken 10
    bits beyond W, so
    (L - x)/sinh(L - x) is off by under
    1/sinh(L/2) + 10 2^(W - V) + 1 < 4 units.  The pair's sum is off by
    under 6 units, and the rule's weights of the pairs sum to L/2, so the
    integral by under 2^-(prec + GUARD_BITS - 2).  The second node is
    L - x for the exact L, which e^L = 1 + sqrt(2) fixes, not the rule's
    b - x, b = L rounded to the rule's precision: that moves the integral
    by under 2^-prec, as the rule's own rounding does.
    """
    with quadrature.rule_precision(ctx):
        W = mp.prec + GUARD_BITS
    with mp.workprec(W + 10):
        L = mp.log(1 + mp.sqrt(2))
        end = int(mp.ldexp(L, W))
    root2 = math.isqrt(2 << 4 * W)  # sqrt(2) 2^(2W); V <= 2W reads it shifted

    def f(X):
        V = 2 * W - X.bit_length() + 4
        one = 1 << V
        E = int(mp.ldexp(mp.exp(mpf((-X, -W), prec=W), prec=V + 2), V))
        inverse = (one << V) // E
        r2 = root2 >> (2 * W - V)
        return ((X << (V + 1)) // (inverse - E)
                + ((end - X) << (V + 1)) // (((r2 + one) * E - (r2 - one) * inverse) >> V))
    return quadrature.integrate_analytic(f, 0, L, ctx, [(11, 12)], W).value


def _log_moment_series(prec: int) -> series.SeriesResult:
    """J = int_0^1 -ln u 2z/(1 - z^2 u^2) du, z = sqrt(2) - 1, as a series of
    Chebyshev log moments, rounded once to the current precision; prec is the
    number of bits it is summed to.

    With x = 2u - 1, 2z/(1 - z^2 u^2) = 2/(a - x) + 2/(b + x), where
    a = 2/z - 1 = 2 sqrt(2) + 1 and b = 2/z + 1 = 2 sqrt(2) + 3, and
    1/(c - x) = (2/sqrt(c^2 - 1)) sum' rho_c^-k T_k(x), rho_c = c + sqrt(c^2 - 1),
    the first term halved.  So J = -sum' c_k M_k, with
    c_k = alpha rho_a^-k + beta (-rho_b)^-k, alpha = 2/sqrt(a^2 - 1)
    = 1/sqrt(2 + sqrt(2)), beta = 1/sqrt(4 + 3 sqrt(2)), rho_a = 7.52,
    rho_b = 11.66, and the log moments M_k = int_{-1}^{1} ln((1+x)/2) T_k(x) dx
    (Piessens & Branders, "The evaluation and application of some modified
    moments", BIT 13, 1973).  With D_j = int_{-1}^{1} (T_j(x) - (-1)^j)/(1 + x) dx,
    D_0 = 0, D_1 = 2 and D_{j+1} = 2 I_j - 2 D_j - D_{j-1}, where
    I_j = int T_j = 2/(1 - j^2) for even j and 0 for odd j (from
    T_{j+1} = 2x T_j - T_{j-1}).  Integrating by parts against the
    antiderivative of T_k that vanishes at x = -1 gives M_0 = -2 and
    M_k = (E_{k-1} - E_{k+1})/2 for k >= 1, E_j = D_j/j, E_0 = 0.  Hence
    J = alpha + beta + (1/2) sum_{k>=1} c_k (E_{k+1} - E_{k-1}).

    |M_k| <= int |ln((1+x)/2)| dx = 2 and |c_k| <= (alpha + beta) rho_a^-k, so
    the terms from k = K on sum to at most
    2 (alpha + beta) rho_a^-K/(1 - 1/rho_a).  K is the fewest that puts this
    below 2^-(prec + GUARD_BITS), from float logarithms whose quotient is
    within 1e-9, which the ceiling allows for: 256 terms at the 220 digits
    at which a 200-digit context takes the integral.

    The sum runs on integers scaled by 2^W, W = prec + 2 bitlength(K)
    + GUARD_BITS.  alpha, beta, 1/rho_a and 1/rho_b come from math.isqrt and
    one quotient each, within 2 units 2^-W; the powers alpha rho_a^-k and
    beta rho_b^-k are carried as floor(p R/2^W), within 3 units, since
    R/2^W < 1/7; the products c_k (E_{k+1} - E_{k-1}) are summed exactly at
    2^-2W and the sum is rounded once.  2 I_j is floored, under one unit a
    step, and the recurrence's homogeneous solutions are (-1)^j and
    j (-1)^j, so D_j is off by under j^2/2 units, E_j by under j/2 + 1 and
    E_{k+1} - E_{k-1} by under k + 2.  With |E_{k+1} - E_{k-1}| = 2|M_k| <= 4,
    the sum is off by under sum_k (|c_k| (k + 2) + 6 * 4) + 4 < 32 K units,
    so by under (32/K) 2^-(prec + GUARD_BITS), as 2^bitlength(K) > K: the
    returned tail_bound, with the truncation.
    """
    r2 = math.sqrt(2)
    rho = 2 * r2 + 1 + 2 * math.sqrt(2 + r2)
    gamma = 2 * (1 / math.sqrt(2 + r2) + 1 / math.sqrt(4 + 3 * r2)) / (1 - 1 / rho)
    K = math.ceil((prec + GUARD_BITS + math.log2(gamma)) / math.log2(rho) + 1e-9)
    W = prec + 2 * K.bit_length() + GUARD_BITS
    one = 1 << W
    root2 = math.isqrt(2 << 2 * W)
    qa = math.isqrt((2 << 2 * W) + (root2 << W))          # sqrt(2 + sqrt(2))
    qb = math.isqrt((4 << 2 * W) + (3 * root2 << W))      # sqrt(4 + 3 sqrt(2))
    alpha, beta = (one << W) // qa, (one << W) // qb
    ra = (one << W) // (2 * root2 + one + 2 * qa)         # 1/rho_a
    rb = (one << W) // (2 * root2 + 3 * one + 2 * qb)     # 1/rho_b
    pa, pb = alpha, beta
    d_prev, d = 0, 2 * one     # D_0, D_1
    e_prev, e = 0, d           # E_0, E_1
    acc = 0
    four = 4 * one
    for k in range(1, K):
        d_prev, d = d, (0 if k & 1 else four // (1 - k * k)) - 2 * d - d_prev
        e_next = d // (k + 1)
        pa, pb = pa * ra >> W, pb * rb >> W
        acc += (pa - pb if k & 1 else pa + pb) * (e_next - e_prev)
        e_prev, e = e, e_next
    value = mp.ldexp(((alpha + beta) << (W + 1)) + acc, -(2 * W + 1))
    return series.SeriesResult(value=value, terms_used=K,
                               tail_bound=mp.ldexp(1 + mpf(32) / K, -(prec + GUARD_BITS)))


@lru_cache(maxsize=None)
def _head_integral(ctx: PrecisionContext) -> BigReal:
    """int_0^L arcsinh(csch x) dx = L^2 + J, J by _log_moment_series, at the
    rules' precision, as the tail is taken.

    arcsinh(csch x) = -ln tanh(x/2), and t = tanh(x/2) = z u, z = sqrt(2) - 1
    = tanh(L/2), dx = 2 dt/(1 - t^2), turns the integral into
    int_0^1 -(ln z + ln u) 2z/(1 - z^2 u^2) du = L 2 atanh(z) + J, with
    -ln z = 2 atanh z = L.  Shared by APPENDIX_A2_CORRECTED and FIXED_POINT_2.
    """
    with quadrature.rule_precision(ctx):
        L = mp.log(1 + mp.sqrt(2))
        return L * L + _log_moment_series(mp.prec).value


@lru_cache(maxsize=None)
def _chi2_tail(ctx: PrecisionContext) -> BigReal:
    """int_L^inf 2 atanh(e^-x) dx = 2 chi_2(sqrt(2) - 1), by the chi_2 series.

    For x > 0, arccosh(coth x) = arctanh(sech x) = 2 atanh(e^-x), since
    coth x + csch x = coth(x/2) and (1 + sech x)/(1 - sech x) = coth^2(x/2),
    and e^-L = sqrt(2) - 1.  That is taken at the rules' precision
    (quadrature.rule_precision), as the other appendix integrals are,
    whatever the caller's, since the value is memoized on ctx; the series
    reads every bit of it.  Shared by APPENDIX_A3, APPENDIX_A4,
    FIXED_POINT_3 and FIXED_POINT_4.
    """
    with quadrature.rule_precision(ctx):
        z = mp.sqrt(2) - 1
        return 2 * series.legendre_chi2(z, ctx).value


# anchor suffix of the rows whose integrand is a rewrite of 2 atanh(e^-x)
_CHI2_ROUTE = "; = 2 atanh(e^-x), int = 2 chi_2(sqrt(2)-1) by series"
# anchor suffix of the rows that take int_0^L by _head_integral
_HEAD_ROUTE = "; int = L^2 + Chebyshev log-moment series"


def _kg(ctx):
    return const_KG(ctx)


def _appendix(spelling, tail_integral, route=""):
    """Row of the appendix identity pi^2 = 4L^2 + 8 int_L^inf f."""
    return _Row(f"pi^2 = 4L^2 + 8 int_L^inf {spelling} dx{route}",
                lambda ctx: mp.pi ** 2,
                lambda ctx: 4 * const_L(ctx) ** 2 + 8 * tail_integral(ctx))


def _kg_fixed_point(integral, tail):
    """K_G = 1/sqrt(+-(1 - (8/pi^2) int f)), the integral limit being pi/(2 K_G) = L."""
    def rhs(ctx):
        inner = 8 / mp.pi ** 2 * integral(ctx)
        return 1 / mp.sqrt(1 - inner if tail else inner - 1)
    return rhs


def _legendre_worst(ctx):
    """The Legendre combination farthest from pi/2 over the grid."""
    half_pi = mp.pi / 2
    grid = [mpf(k) for k in LEGENDRE_GRID] + [1 / mp.sqrt(2)]
    return max((elliptic.legendre_lhs(k, ctx) for k in grid),
               key=lambda lhs: abs(lhs - half_pi))


_TABLE = {
    "PARSEVAL_DOUBLE_SERIES": _Row(
        "boxed double series = pi/16 - ln^2(1+sqrt(2))/4",
        lambda ctx: series.double_series(ctx).value,
        lambda ctx: mp.pi / 16 - mp.log(1 + mp.sqrt(2)) ** 2 / 4),
    # a_n = (8 sqrt(2)/pi) T_n for n >= 1, so sum a_n^2 = (128/pi^2) V
    "PARSEVAL_CLOSURE": _Row(
        "a0^2/2 + sum a_n^2 = 8/pi (Parseval for 1/cos(x/4))",
        lambda ctx: (series.fourier_a(0, ctx) ** 2 / 2
                     + 128 / mp.pi ** 2 * series.double_series(ctx).value),
        lambda ctx: 8 / mp.pi),
    # the rhs takes L from its defining property sinh(L) = 1 (exp path, no log)
    "KG_DEFINITION": _Row(
        "K_G = pi/(2 ln(1+sqrt(2)))", _kg,
        lambda ctx: mp.pi / (2 * mp.findroot(lambda x: mp.sinh(x) - 1, mpf("0.88")))),
    # the paper's other boxed form, V = (pi/16)(1 - pi/K_G^2), is this
    # equation solved for V: its residual is this one's times about pi^2/(8 K_G^3)
    "KG_FROM_SERIES": _Row(
        "K_G = pi/sqrt(pi - 16 * double series)", _kg,
        lambda ctx: mp.pi / mp.sqrt(mp.pi - 16 * series.double_series(ctx).value)),
    "RECURRENCE": _Row(
        "a_n - a_{n-1} = (8 sqrt(2)/pi)(-1)^n [1/(4n-3) - 1/(4n-1)]",
        lambda ctx: (series.fourier_a(RECURRENCE_N, ctx)
                     - series.fourier_a(RECURRENCE_N - 1, ctx)),
        lambda ctx: (8 * mp.sqrt(2) / mp.pi * (-1) ** RECURRENCE_N
                     * (mpf(1) / (4 * RECURRENCE_N - 3) - mpf(1) / (4 * RECURRENCE_N - 1)))),
    "COEFF_VS_QUADRATURE": _Row(
        "closed-form a_n vs (8/pi) int cos(4nt)/cos(t) dt",
        lambda ctx: series.fourier_a(COEFF_N, ctx),
        lambda ctx: series.fourier_a_quadrature(COEFF_N, ctx)),
    "APPENDIX_A1": _appendix("arcsinh(csch x)", _tail_integral),
    "APPENDIX_A2_CORRECTED": _Row(
        "pi^2 + 4L^2 = 8 int_0^L arcsinh(csch x) dx (corrected)" + _HEAD_ROUTE,
        lambda ctx: mp.pi ** 2 + 4 * const_L(ctx) ** 2,
        lambda ctx: 8 * _head_integral(ctx)),
    "APPENDIX_A3": _appendix("arccosh(coth x)", _chi2_tail, _CHI2_ROUTE),
    "APPENDIX_A4": _appendix("arctanh(sech x)", _chi2_tail, _CHI2_ROUTE),
    "FIXED_POINT_1": _Row(
        "K_G = 1/sqrt(1 - (8/pi^2) int_{pi/2K_G}^inf arcsinh(csch))",
        _kg, _kg_fixed_point(_tail_integral, True)),
    "FIXED_POINT_2": _Row(
        "K_G = 1/sqrt((8/pi^2) int_0^{pi/2K_G} arcsinh(csch) - 1)" + _HEAD_ROUTE,
        _kg, _kg_fixed_point(_head_integral, False)),
    "FIXED_POINT_3": _Row(
        "K_G = 1/sqrt(1 - (8/pi^2) int_{pi/2K_G}^inf arccosh(coth))" + _CHI2_ROUTE,
        _kg, _kg_fixed_point(_chi2_tail, True)),
    "FIXED_POINT_4": _Row(
        "K_G = 1/sqrt(1 - (8/pi^2) int_{pi/2K_G}^inf arctanh(sech))" + _CHI2_ROUTE,
        _kg, _kg_fixed_point(_chi2_tail, True)),
    "HAAGERUP_CONSISTENCY": _Row(
        "1/(2K(i)-E(i)) vs 1/int cos^2/sqrt(1+sin^2)",
        lambda ctx: elliptic.haagerup_bound(ctx),
        lambda ctx: elliptic.haagerup_bound_quadrature(ctx)),
    "KRIVINE_COMPLEX_MIDDLE_EQUALITY": _Row(
        "x int cos^2/sqrt(1-x^2 sin^2) = (1/x)[E(x)-(1-x^2)K(x)]",
        lambda ctx: elliptic.krivine_complex_lhs(KRIVINE_X, ctx),
        lambda ctx: elliptic.krivine_complex_middle(KRIVINE_X, ctx)),
    "LEGENDRE_RELATION": _Row("E K' + E' K - K K' = pi/2", _legendre_worst,
                              lambda ctx: mp.pi / 2),
    "KHINTCHINE_STABILITY": _Row(
        "Gauss-Kuz'min product (Euler-Maclaurin tail) = zeta-series value (mpmath)",
        lambda ctx: khintchine.khintchine_accelerated(ctx).value,
        lambda ctx: khintchine.zeta_series_value(), khintchine.STABILITY_TOLERANCE),
}

IdentityId = Enum("IdentityId", [(name, name) for name in _TABLE], type=str)


def anchor(identity: IdentityId) -> str:
    return _TABLE[identity].anchor


def _digits_agreed(residual, lhs, rhs, cap):
    if residual == 0:
        return cap
    scale = max(abs(lhs), abs(rhs), mpf(1))
    d = int(mp.floor(-mp.log10(residual / scale)))
    return max(0, min(d, cap))


def verify(identity, ctx: PrecisionContext) -> IdentityReport:
    """Evaluate both sides of one identity and report the residual.

    An unknown id raises ValueError; any error while evaluating a registered
    identity becomes a failed report, its error named in ``error``.
    """
    identity = IdentityId(identity)
    row = _TABLE[identity]
    tol = ctx.tolerance if row.tolerance is None else row.tolerance
    error = None
    start = time.perf_counter()
    with ctx.workprec():
        try:
            lhs, rhs = row.lhs(ctx), row.rhs(ctx)
            residual = abs(lhs - rhs)
            passed = bool(residual < tol)
            digits = _digits_agreed(residual, lhs, rhs, ctx.digits)
        except Exception as exc:
            lhs = rhs = mpf(0)
            residual, digits, passed = mp.inf, 0, False
            error = f"{type(exc).__name__}: {exc}"
    return IdentityReport(id=identity, lhs=lhs, rhs=rhs, residual=residual,
                          digits_agreed=digits, passed=passed, error=error,
                          runtime_ms=(time.perf_counter() - start) * 1000)


def verify_all(ctx: PrecisionContext) -> list:
    """Run every registered identity in registry order.

    A failing identity never aborts the suite; failures are recorded in the
    corresponding report.
    """
    return [verify(identity, ctx) for identity in IdentityId]
