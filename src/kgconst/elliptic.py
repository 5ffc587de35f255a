"""Complete elliptic integrals K and E via the arithmetic-geometric mean,
their imaginary-modulus values K(i) and E(i), Haagerup's bound
1/(2K(i) - E(i)), and the root solve for the complex-case
Krivine equation

    pi (x+1) / 8 = (1/x) [ E(x) - (1 - x^2) K(x) ].

All operations use the modulus k (not the parameter m = k^2).  One AGM run
of 1 and k' gives both K(k) and E(k), through Legendre's companion sum
E = K (1 - sum 2^(n-1) c_n^2) (DLMF 19.8(i)), so K and E at one modulus
always come from one run.  The defining integrals, evaluated with the
quadrature module, serve as independent cross-checks of the AGM values.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

from mpmath import mp, mpf

from .core import GUARD_BITS, BigReal, PrecisionContext
from .errors import DomainError, NoConvergence
from . import quadrature

ROOT_BRACKET = (mpf("0.01"), mpf("0.99"))


class RootResult(NamedTuple):
    x0: BigReal
    residual: BigReal
    iterations: int


def _complement(k):
    # k' = sqrt(1 - k^2), factored so that no digits cancel as k -> 1
    return mp.sqrt((1 - k) * (1 + k))


def _check_modulus(k, name):
    if not (0 <= k < 1):
        raise DomainError(f"{name} requires 0 <= k < 1, got {k}")


def _agm_KE(k):
    """(K(k), E(k), E(k) - k'^2 K(k)) from one AGM run of 1 and
    k' = sqrt(1 - k^2); call at working precision with 0 <= k < 1.

    E = K (1 - k^2/2 - s) and E - k'^2 K = K (k^2/2 - s), with
    s = sum_{n>=1} 2^(n-1) c_n^2.  As k -> 0, c_1 = (1 - k')/2 is about
    k^2/4, so s is about k^4/16 and the difference keeps its relative
    precision, where E - (1 - k^2) K would cancel.

    The run is on integers scaled by 2^P, square roots by math.isqrt: k is
    read exactly, k' = sqrt((1 - k)(1 + k)) is floored, a, b and c_n stay
    within a few units 2^-P, and 2s is summed exactly at 2^-2P.  The run
    stops when c_n reaches 0, at a - b < 2 units, since
    floor(sqrt(ab)) <= floor((a + b)/2) keeps b <= a.  2s is then off by
    under about 4 c_1, that is k^2, units, against k^2/2 - s of about
    k^4/16, and k' > 2^(mag(1 - k)/2 - 1) is read to one unit, so
    P = prec + GUARD_BITS + 2 max(0, -mag k) + max(0, -mag(1 - k)) keeps all
    three values relative.  K = pi/(2a) and the two E forms are then formed
    once in mpf.
    """
    P = mp.prec + GUARD_BITS + (2 * max(0, -mp.mag(k)) if k else 0) + max(0, -mp.mag(1 - k))
    one = 1 << P
    ki = int(mp.ldexp(k, P))
    a, b, c = one, isqrt((one - ki) * (one + ki)), ki
    s = 0  # 2 s, at 2^-2P
    n = 1
    while c:
        a, b, c = (a + b) >> 1, isqrt(a * b), (a - b) >> 1
        s += c * c << n
        n += 1
    K = mp.pi / mp.ldexp(a, 1 - P)
    k2 = ki * ki
    return (K, K * mp.ldexp((2 << 2 * P) - k2 - s, -(2 * P + 1)),
            K * mp.ldexp(k2 - s, -(2 * P + 1)))


def ellip_K(k, ctx: PrecisionContext) -> BigReal:
    """K(k) = integral of 1/sqrt(1 - k^2 sin^2(t)) over (0, pi/2), via the AGM."""
    with ctx.workprec():
        k = mpf(k)
        _check_modulus(k, "ellip_K")
        return _agm_KE(k)[0]


def ellip_E(k, ctx: PrecisionContext) -> BigReal:
    """E(k) = integral of sqrt(1 - k^2 sin^2(t)) over (0, pi/2), via the AGM;
    E(1) = 1 exactly."""
    with ctx.workprec():
        k = mpf(k)
        if not (0 <= k <= 1):
            raise DomainError(f"ellip_E requires 0 <= k <= 1, got {k}")
        if k == 1:
            return mpf(1)
        return _agm_KE(k)[1]


def _periodic(integrand, kappa, bound, ctx):
    """integrate_even_periodic of integrand(K, W), an integrand on integers
    scaled by 2^W in q = cos^2 t + kappa sin^2 t = A + B cos 2t,
    A, B = (1 +- kappa)/2, kappa > 0, K = floor(kappa 2^W), whose modulus is
    at most bound(low, high, a) on the strip |Im t| <= a wherever
    low <= |q| <= high there.  W = prec + GUARD_BITS + 2 max(0, -mag kappa),
    prec the rule's precision (see _inverse_root_q).

    |cos 2t| <= cosh 2a on that strip, so low = A - |B| cosh 2a and
    high = A + |B| cosh 2a serve, taken as min(1, kappa) - 2|B| sinh^2 a and
    max(1, kappa) + 2|B| sinh^2 a, which cancel no digits as kappa -> 0.
    q vanishes at Im t = +-w, w = atanh(min(k', 1/k')), k' = sqrt(kappa),
    since cosh(2 atanh k') = (1 + kappa)/(1 - kappa) = A/B; so low > 0 for
    a < w.  w is taken as ln((1 + k')/sqrt(2|B|)), which keeps its digits
    as k' -> 1.  The strip a = 15w/16 is taken: for the integrals of
    verify_all at 10, 20, 50, 200, 500 and 1000 digits its bound proves as
    few intervals as the strips a = w/2, 3w/4 and 7w/8 together.  At
    kappa = 1 (k = 0, or x so small that 1 - x^2 rounds to 1) q = 1 and the
    integrand is entire: any w serves, and w = ctx.working_dps proves n = 4.
    The bound is taken at 64 bits (quadrature.bound_precision), whose
    roundings the rule's slack covers.
    """
    with quadrature.rule_precision(ctx):
        W = mp.prec + GUARD_BITS + 2 * max(0, -mp.mag(kappa))
    with quadrature.bound_precision():
        B = abs(1 - kappa) / 2
        w = mp.log((1 + mp.sqrt(kappa)) / mp.sqrt(2 * B)) if B else mpf(ctx.working_dps)
        a = w * 15 / 16
        spread = 2 * B * mp.sinh(a) ** 2
        M = bound(min(1, kappa) - spread, max(1, kappa) + spread, a)
    return quadrature.integrate_even_periodic(integrand(int(mp.ldexp(kappa, W)), W), ctx,
                                              [(a, M)], W)


def _cos2_over_root(low, high, a):
    # cos^2 t / sqrt(q), with |cos t|^2 = cos^2 Re t + sinh^2 Im t <= cosh^2 a
    return mp.cosh(a) ** 2 / mp.sqrt(low)


def _inverse_root_q(kappa, W):
    """The integrand 1/sqrt(q), q = c2 + kappa s2, of _periodic, on integers
    scaled by 2^W: q at 2^-2W by one product, its root by math.isqrt and the
    quotient by one division; likewise sqrt(q) (_root_q) and c2/sqrt(q)
    (_cos2_over_root_q).

    c2 and s2 are within half a unit 2^-W and kappa within one, so q is off
    by under 2 + kappa units, sqrt(q) by under 1 + (2 + kappa)/(2 sqrt(q))
    and, since c2 <= q, c2/sqrt(q) by under 3 + (2 + kappa)/sqrt(q).  For
    kappa <= 1, q >= kappa and 1/sqrt(q) is off by under
    1 + (1 + 1.5/sqrt(kappa))/kappa < 2^(1.5 m + 3) units,
    m = max(0, -mag kappa); for kappa = 2, the Haagerup integrand's, q >= 1
    and c2/sqrt(q) is off by under 7.  So W = prec + GUARD_BITS + 2m keeps
    each integrand within 2^-(prec + GUARD_BITS - 3)."""
    return lambda s2, c2: (1 << 2 * W) // isqrt((c2 << W) + kappa * s2)


def _root_q(kappa, W):
    return lambda s2, c2: isqrt((c2 << W) + kappa * s2)


def _cos2_over_root_q(kappa, W):
    return lambda s2, c2: (c2 << W) // isqrt((c2 << W) + kappa * s2)


def ellip_K_quadrature(k, ctx: PrecisionContext) -> BigReal:
    """Defining-integral route for K(k) (independent oracle), by the periodic
    trapezoid rule, with 1 - k^2 sin^2 t = cos^2 t + k'^2 sin^2 t.  Raises
    NoConvergence at once as k -> 1, where the strip of analyticity narrows to
    atanh(k') and the rule's error bound (_periodic) needs more than
    PERIODIC_MAX_INTERVALS intervals: below about k' = 4.3e-4 at 30 digits."""
    with ctx.workprec():
        k = mpf(k)
        _check_modulus(k, "ellip_K_quadrature")
        return _periodic(_inverse_root_q, (1 - k) * (1 + k),
                         lambda low, high, a: 1 / mp.sqrt(low), ctx).value


def ellip_E_quadrature(k, ctx: PrecisionContext) -> BigReal:
    """Defining-integral route for E(k) (independent oracle), by the periodic
    trapezoid rule, with 1 - k^2 sin^2 t = cos^2 t + k'^2 sin^2 t.  Raises
    NoConvergence at once as k -> 1, as ellip_K_quadrature does."""
    with ctx.workprec():
        k = mpf(k)
        _check_modulus(k, "ellip_E_quadrature")
        return _periodic(_root_q, (1 - k) * (1 + k),
                         lambda low, high, a: mp.sqrt(high), ctx).value


def _imag_KE():
    """(K(i), E(i)) = (K(k)/sqrt(2), sqrt(2) E(k)), k = 1/sqrt(2), from one AGM run."""
    K, E, _ = _agm_KE(1 / mp.sqrt(2))
    return K / mp.sqrt(2), mp.sqrt(2) * E


def ellip_K_imag(ctx: PrecisionContext) -> BigReal:
    """K(i) = integral of 1/sqrt(1 + sin^2(t)) over (0, pi/2)."""
    with ctx.workprec():
        return _imag_KE()[0]


def ellip_E_imag(ctx: PrecisionContext) -> BigReal:
    """E(i) = integral of sqrt(1 + sin^2(t)) over (0, pi/2)."""
    with ctx.workprec():
        return _imag_KE()[1]


def legendre_lhs(k, ctx: PrecisionContext) -> BigReal:
    """E(k)K(k') + E(k')K(k) - K(k)K(k') with k' = sqrt((1-k)(1+k)); Legendre's
    relation makes it pi/2."""
    with ctx.workprec():
        k = mpf(k)
        _check_modulus(k, "legendre_lhs")
        kp = _complement(k)
        # k = 0, or k so small that k' rounds to 1, leaves K(k') infinite
        _check_modulus(kp, "legendre_lhs at the complement")
        K, E, _ = _agm_KE(k)
        Kp, Ep, _ = _agm_KE(kp)
        return E * Kp + Ep * K - K * Kp


def haagerup_bound(ctx: PrecisionContext) -> BigReal:
    """Haagerup's suggested complex upper limit 1/(2K(i) - E(i))."""
    with ctx.workprec():
        K, E = _imag_KE()
        return 1 / (2 * K - E)


def haagerup_bound_quadrature(ctx: PrecisionContext) -> BigReal:
    """Independent route: reciprocal of the integral of cos^2(t)/sqrt(1+sin^2(t))
    over (0, pi/2), by the periodic trapezoid rule."""
    with ctx.workprec():
        # 1 + sin^2 t = cos^2 t + 2 sin^2 t
        integral = _periodic(_cos2_over_root_q, mpf(2), _cos2_over_root, ctx).value
        return 1 / integral


def krivine_complex_lhs(x, ctx: PrecisionContext) -> BigReal:
    """(1/x)[E(x) - (1-x^2)K(x)], the elliptic side of x0's equation, with
    the difference taken from the AGM sums (see _agm_KE), so that it keeps
    its relative precision as x -> 0."""
    with ctx.workprec():
        x = mpf(x)
        if not (0 < x < 1):
            raise DomainError(f"the complex-case equation requires 0 < x < 1, got {x}")
        return _agm_KE(x)[2] / x


def krivine_complex_f(x, ctx: PrecisionContext) -> BigReal:
    """f(x) = (1/x)[E(x) - (1-x^2)K(x)] - pi(x+1)/8, whose root is x0."""
    with ctx.workprec():
        return krivine_complex_lhs(x, ctx) - mp.pi * (mpf(x) + 1) / 8


def krivine_complex_middle(x, ctx: PrecisionContext) -> BigReal:
    """Middle expression x * integral of cos^2(t)/sqrt(1-x^2 sin^2(t)) over
    (0, pi/2) (oracle), by the periodic trapezoid rule, with
    1 - x^2 sin^2 t = cos^2 t + (1 - x^2) sin^2 t.  Raises NoConvergence at
    once as x -> 1, as ellip_K_quadrature does at k = x."""
    with ctx.workprec():
        x = mpf(x)
        if not (0 < x < 1):
            raise DomainError(f"middle expression requires 0 < x < 1, got {x}")
        xp2 = (1 - x) * (1 + x)
        return x * _periodic(_cos2_over_root_q, xp2, _cos2_over_root, ctx).value


def solve_x0(ctx: PrecisionContext) -> RootResult:
    """Root of krivine_complex_f, certified by its residual:
    |f(x0)| < ctx.tolerance, or NoConvergence.

    mpmath's Pegasus regula falsi, derivative-free, starts from the two
    points of ROOT_BRACKET.  Their signs are not checked: the residual gate
    is the acceptance test.  ``iterations`` counts the distinct points at
    which f was computed to find x0; the solver's repeat probes reuse them.
    """
    with ctx.workprec():
        known = {}

        def f(x):
            if x not in known:
                known[x] = krivine_complex_f(x, ctx)
            return known[x]

        try:
            # no verify probe: the residual gate below is the stricter test
            x0 = +mp.findroot(f, ROOT_BRACKET, solver="pegasus", verify=False)
        except ValueError as exc:
            raise NoConvergence(f"root solve failed: {exc}") from exc
        residual = abs(krivine_complex_f(x0, ctx))
        if residual >= ctx.tolerance:
            raise NoConvergence(
                f"root residual {residual} did not reach tolerance {ctx.tolerance}"
            )
        return RootResult(x0=x0, residual=residual, iterations=len(known))


def kc_upper(ctx: PrecisionContext) -> BigReal:
    """Krivine's complex-case upper limit 8 / (pi (x0 + 1))."""
    with ctx.workprec():
        return 8 / (mp.pi * (solve_x0(ctx).x0 + 1))
