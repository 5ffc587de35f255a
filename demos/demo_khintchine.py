"""Khintchine's constant as an infinite product, and why acceleration matters.

The log-space terms decay like ln(n)/n^2, so the raw partial product crawls:
a million factors buy barely six digits.  The Euler-Maclaurin tail, a series
in 1/N in closed form, reaches the 15 digits the binary64 explicit sums carry
from two thousand factors, certified by stability across a doubling of
the explicit range.
"""

from mpmath import mp

from kgconst import PrecisionContext, khintchine, khintchine_accelerated, khintchine_partial

ctx = PrecisionContext(digits=15)

print("raw partial products (strictly increasing, slowly):")
for N in (10, 100, 1000, 10_000, 100_000, 1_000_000):
    p = khintchine_partial(N, ctx)
    print(f"  N={N:8d}: {mp.nstr(p.value, 12)}   "
          f"tail estimate {mp.nstr(p.tail_bound, 3)}")
print()

print("integral bound on the log-space tail:")
for N in (1000, 100_000):
    p = khintchine_partial(N, ctx)  # tail_bound = value (e^bound - 1)
    print(f"  N={N:8d}: {mp.nstr(mp.log1p(p.tail_bound / p.value), 3)}")
print()

res = khintchine_accelerated(ctx)
print("accelerated value:", mp.nstr(res.value, khintchine.PRODUCT_DIGITS))
print(f"  explicit terms: {res.terms_used}")
print(f"  spread across range doubling: {mp.nstr(res.tail_bound, 3)}")
print(f"(binary64 sums: {khintchine.PRODUCT_DIGITS} significant digits; "
      f"the check against mpmath's zeta series is held to "
      f"{mp.nstr(khintchine.STABILITY_TOLERANCE, 1)})")
