"""Walk through the double-series route to pi.

The Fourier expansion of 1/cos(x/4) gives coefficients a_n proportional to
the alternating tails T_n; Parseval then turns the sum of squared tails into
a closed form, pinning down the Grothendieck-Krivine constant K_G.
"""

from mpmath import mp

from kgconst import (
    IdentityId,
    PrecisionContext,
    const_KG,
    double_series,
    fourier_a,
    limit_S,
    partial_sums,
    verify,
)

ctx = PrecisionContext(digits=30)

print("inner series limit S =", mp.nstr(limit_S(ctx), 30))
print()

print("first Fourier coefficients of 1/cos(x/4):")
for n in range(0, 6):
    print(f"  a_{n} = {mp.nstr(fourier_a(n, ctx), 20)}")
print()

print("brute-force partial sums of sum_n T_n^2:")
marks = (10, 100, 1000)
for N, V_N in zip(marks, partial_sums(marks, ctx, squared=True)):
    print(f"  N={N:5d}: {mp.nstr(V_N, 20)}")

ds = double_series(ctx)
print(f"accelerated value ({ds.terms_used} partial sums, Richardson):")
print("  ", mp.nstr(ds.value, 30))
with ctx.workprec():
    closed = mp.pi / 16 - mp.log(1 + mp.sqrt(2)) ** 2 / 4
    print("closed form pi/16 - ln^2(1+sqrt(2))/4:")
    print("  ", mp.nstr(closed, 30))
    print("residual:", mp.nstr(abs(ds.value - closed), 3))
print()

closure = verify(IdentityId.PARSEVAL_CLOSURE, ctx).lhs
with ctx.workprec():
    print("Parseval closure a0^2/2 + sum a_n^2 =", mp.nstr(closure, 25))
    print("8/pi                               =", mp.nstr(8 / mp.pi, 25))
print()

with ctx.workprec():
    V = ds.value
    recovered = mp.pi / mp.sqrt(mp.pi - 16 * V)
print("K_G recovered from the series:", mp.nstr(recovered, 25))
print("K_G = pi/(2 ln(1+sqrt(2)))   :", mp.nstr(const_KG(ctx), 25))
