"""The integer contract of the quadrature rules, for integrands that the
tests write as mpmath formulas."""

from mpmath import mp

from kgconst import quadrature
from kgconst.core import GUARD_BITS


def on_integers(f, bits, interval=None):
    """f, an integrand on mpf values, folded and scaled to the rules'
    contract at 2^-bits.

    With interval = (a, b), for integrate_analytic: the integrand of the
    distance X = x 2^bits of a pair of points from the ends, returning
    (f(a + x) + f(b - x)) 2^bits, with f evaluated once where the two points
    coincide.  Without, for integrate_even_periodic: the integrand of
    sin^2 t and cos^2 t scaled by 2^bits, returning f(sin^2 t, cos^2 t)
    2^bits.  Points and values are formed at the current precision, the
    rule's when a rule calls it.  A value that is not finite is returned as
    it is, for the rule to refuse."""
    def scaled(v):
        return int(mp.nint(mp.ldexp(v, bits))) if mp.isfinite(v) else v

    if interval is None:
        return lambda s2, c2: scaled(f(mp.ldexp(s2, -bits), mp.ldexp(c2, -bits)))
    a, b = interval

    def folded(X):
        x = mp.ldexp(X, -bits)
        left, right = a + x, b - x
        return scaled(2 * f(left) if left == right else f(left) + f(right))
    return folded


def integrate(f, ctx, bounds, interval=None):
    """f, an integrand on mpf values, by integrate_analytic over
    interval = (a, b), or by integrate_even_periodic without one, through
    on_integers at GUARD_BITS bits beyond the rule's precision."""
    with quadrature.rule_precision(ctx):
        bits = mp.prec + GUARD_BITS
    g = on_integers(f, bits, interval)
    if interval is None:
        return quadrature.integrate_even_periodic(g, ctx, bounds, bits)
    return quadrature.integrate_analytic(g, *interval, ctx, bounds, bits)
