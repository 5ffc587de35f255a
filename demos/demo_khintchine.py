"""Khintchine's constant as an infinite product, and why acceleration matters.

The log-space terms decay like ln(n)/n^2, so the raw partial product crawls:
a million factors buy barely six digits.  The Euler-Maclaurin tail correction
reaches eight digits from twenty thousand explicit factors, certified by
stability across a doubling of the explicit range.
"""

from mpmath import mp

from kgconst import PrecisionContext, khintchine_accelerated, khintchine_partial
from kgconst.khintchine import log_tail_bound

ctx = PrecisionContext(digits=15)

print("raw partial products (strictly increasing, slowly):")
for N in (10, 100, 1000, 10_000, 100_000, 1_000_000):
    p = khintchine_partial(N, ctx)
    print(f"  N={N:8d}: {mp.nstr(p.value, 12)}   "
          f"tail estimate {mp.nstr(p.tail_estimate, 3)}")
print()

print("integral bound on the log-space tail:")
for N in (1000, 100_000):
    print(f"  N={N:8d}: {mp.nstr(log_tail_bound(N, ctx), 3)}")
print()

res = khintchine_accelerated(ctx)
print("accelerated value:", mp.nstr(res.value, 10))
print(f"  explicit terms: {res.terms_used}")
print(f"  spread across range doubling: {mp.nstr(res.tail_estimate, 3)}")
print("(accuracy is capped at ~8 significant digits by construction)")
