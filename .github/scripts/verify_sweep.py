"""Run in-process verify_all at every digit count in range(START, STOP, STRIDE)
and fail unless each count passes 18/18 with at least MIN_MARGIN digits to
spare.

The margin of a row is log10(tolerance/residual).  KHINTCHINE_STABILITY's
tolerance is the product's stated accuracy, khintchine.STABILITY_TOLERANCE,
whatever the digit count, so its margin is printed on its own line and held
to KHINTCHINE_MIN_MARGIN.

    PYTHONPATH=src python .github/scripts/verify_sweep.py START STOP [STRIDE]
"""

import sys

from mpmath import mp

from kgconst import IdentityId, PrecisionContext, khintchine, verify_all

MIN_MARGIN = 9
KHINTCHINE_MIN_MARGIN = 1

start, stop, stride = (list(map(int, sys.argv[1:])) + [1])[:3]
counts = range(start, stop, stride)
short = []
worst = (mp.inf, None, None)
khintchine_worst = (mp.inf, None)
for digits in counts:
    ctx = PrecisionContext(digits=digits)
    reports = verify_all(ctx)
    passed = sum(r.passed for r in reports)
    if len(reports) != 18 or passed != 18:
        short.append((digits, passed, [r.id.value for r in reports if not r.passed]))
    for r in reports:
        if not r.passed or r.residual == 0:
            continue
        stable = r.id is IdentityId.KHINTCHINE_STABILITY
        with ctx.workprec():
            margin = mp.log10((khintchine.STABILITY_TOLERANCE if stable else ctx.tolerance)
                              / r.residual)
        if stable:
            if margin < khintchine_worst[0]:
                khintchine_worst = (margin, digits)
        elif margin < worst[0]:
            worst = (margin, r.id.value, digits)
margin, row, at = worst
k_margin, k_at = khintchine_worst
print(f"{len(counts) - len(short)}/{len(counts)} digit counts pass 18/18; short: {short}")
print(f"smallest margin {mp.nstr(margin, 3)} digits ({row} at {at}); floor {MIN_MARGIN}")
print(f"KHINTCHINE_STABILITY margin {mp.nstr(k_margin, 3)} digits against "
      f"{mp.nstr(khintchine.STABILITY_TOLERANCE, 1)} (smallest at {k_at}); "
      f"floor {KHINTCHINE_MIN_MARGIN}")
sys.exit(1 if short or margin < MIN_MARGIN or k_margin < KHINTCHINE_MIN_MARGIN else 0)
