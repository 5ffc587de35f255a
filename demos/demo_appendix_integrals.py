"""The four inverse-hyperbolic integral identities and their K_G fixed points.

With L = ln(1+sqrt(2)), each identity expresses pi^2 - 4L^2 (or pi^2 + 4L^2)
as eight times an integral of arcsinh(csch x), arccosh(coth x), or
arctanh(sech x).  Rearranged, each becomes a fixed-point equation satisfied
by K_G = pi/(2L).

For x > 0 the three integrands are one function, 2 atanh(e^-x).  So the
library integrates arcsinh(csch x) only: over (L, inf) by Fejer's second
rule, as int_0^L s/sinh s ds, since arcsinh(csch x) is an involution with
fixed point L, and over (0, L), where it has a log singularity at 0, as
L^2 plus a series of exact Chebyshev log moments.  It gives the arccosh and
arctanh rows the tail in closed form instead: integrating the series of
2 atanh(e^-x) term by term, int_L^inf = 2 chi_2(sqrt(2)-1), Legendre's chi
function, summed as a series.
"""

from mpmath import mp, mpf

from kgconst import IdentityId, PrecisionContext, verify

ctx = PrecisionContext(digits=30)

FEJER_TAIL = ("Fejer's second rule on arcsinh(csch x) over (L, inf), "
              "as int_0^L s/sinh s ds through x = arcsinh(csch s)")
HEAD_SERIES = ("L^2 + int_0^1 -ln u 2z/(1 - z^2 u^2) du, z = sqrt(2) - 1, "
               "by Chebyshev log moments")
CHI2_SERIES = "2 chi_2(sqrt(2)-1) series, arccosh(coth x) = arctanh(sech x) = 2 atanh(e^-x)"
ROUTES = {
    IdentityId.APPENDIX_A1: FEJER_TAIL,
    IdentityId.APPENDIX_A2_CORRECTED: HEAD_SERIES,
    IdentityId.APPENDIX_A3: CHI2_SERIES,
    IdentityId.APPENDIX_A4: CHI2_SERIES,
    IdentityId.FIXED_POINT_1: FEJER_TAIL,
    IdentityId.FIXED_POINT_2: HEAD_SERIES,
    IdentityId.FIXED_POINT_3: CHI2_SERIES,
    IdentityId.FIXED_POINT_4: CHI2_SERIES,
}

print("integral identities (closed form = integral route, residual ~ working precision):")
for ident in (IdentityId.APPENDIX_A1, IdentityId.APPENDIX_A2_CORRECTED,
              IdentityId.APPENDIX_A3, IdentityId.APPENDIX_A4):
    r = verify(ident, ctx)
    print(f"  {ident.value:24s} residual={mp.nstr(r.residual, 3)}  "
          f"digits agreed={r.digits_agreed}")
    print(f"  {'':24s} route: {ROUTES[ident]}")
print()

print("K_G fixed-point forms, evaluated at K_G = pi/(2L):")
for ident in (IdentityId.FIXED_POINT_1, IdentityId.FIXED_POINT_2,
              IdentityId.FIXED_POINT_3, IdentityId.FIXED_POINT_4):
    r = verify(ident, ctx)
    print(f"  {ident.value:24s} K_G={mp.nstr(r.lhs, 20)}  "
          f"residual={mp.nstr(r.residual, 3)}")
    print(f"  {'':24s} route: {ROUTES[ident]}")
print()

# the three integrands agree pointwise with 2 atanh(e^-x) for x > 0
with ctx.workprec():
    x = mpf("1.5")
    print("pointwise equality of the three integrands at x=1.5:")
    print("  arcsinh(csch):", mp.nstr(mp.asinh(1 / mp.sinh(x)), 25))
    print("  arctanh(sech):", mp.nstr(mp.atanh(1 / mp.cosh(x)), 25))
    print("  arccosh(coth):", mp.nstr(mp.acosh(mp.coth(x)), 25))
    print("  2 atanh(e^-x):", mp.nstr(2 * mp.atanh(mp.exp(-x)), 25))
