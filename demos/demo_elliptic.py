"""Complete elliptic integrals, the complex-case root equation, and the
resulting upper limits.

K and E come from the AGM iteration and are cross-checked against their
defining integrals; the Legendre relation serves as an implementation
certificate.  The root x0 of

    pi (x+1) / 8 = (1/x) [ E(x) - (1 - x^2) K(x) ]

yields the complex-case upper limit 8/(pi (x0+1)), slightly above
Haagerup's bound 1/(2K(i) - E(i)).
"""

from mpmath import mp, mpf

from kgconst import (
    PrecisionContext,
    ellip_E,
    ellip_K,
    haagerup_bound,
    kc_upper,
    solve_x0,
)
from kgconst.elliptic import ellip_K_quadrature, legendre_lhs

ctx = PrecisionContext(digits=30)

print("AGM vs defining integral for K:")
for k in ("0.3", "0.7", "0.95"):
    agm = ellip_K(mpf(k), ctx)
    quad = ellip_K_quadrature(mpf(k), ctx)
    print(f"  k={k}: K={mp.nstr(agm, 20)}  gap={mp.nstr(abs(agm - quad), 3)}")
print()

print("Legendre relation residual (should be ~working precision):")
for k in ("0.2", "0.5", "0.8"):
    lhs = legendre_lhs(mpf(k), ctx)
    with ctx.workprec():
        print(f"  k={k}: {mp.nstr(abs(lhs - mp.pi / 2), 3)}")
print()

print("imaginary modulus (both reduce to the self-complementary point 1/sqrt(2)):")
with ctx.workprec():
    k = 1 / mp.sqrt(2)
    print("  K(i) =", mp.nstr(ellip_K(k, ctx) / mp.sqrt(2), 25))
    print("  E(i) =", mp.nstr(mp.sqrt(2) * ellip_E(k, ctx), 25))
print("  Haagerup bound 1/(2K(i)-E(i)) =", mp.nstr(haagerup_bound(ctx), 25))
print()

root = solve_x0(ctx)
print(f"root solve ({root.iterations} root-function evaluations):")
print("  x0 =", mp.nstr(root.x0, 25))
print("  residual =", mp.nstr(root.residual, 3))
print("  complex-case upper limit 8/(pi(x0+1)) =", mp.nstr(kc_upper(ctx), 25))
