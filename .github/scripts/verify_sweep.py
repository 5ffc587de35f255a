"""Run in-process verify_all at every digit count in range(START, STOP, STRIDE)
and fail unless each count passes 18/18 with at least MIN_MARGIN digits to
spare.

The margin of a row is log10(tolerance/residual); KHINTCHINE_STABILITY is
left out, because its tolerance is fixed and does not follow the digit count.

    PYTHONPATH=src python .github/scripts/verify_sweep.py START STOP [STRIDE]
"""

import sys

from mpmath import mp

from kgconst import IdentityId, PrecisionContext, verify_all

MIN_MARGIN = 9

start, stop, stride = (list(map(int, sys.argv[1:])) + [1])[:3]
counts = range(start, stop, stride)
short = []
worst = (mp.inf, None, None)
for digits in counts:
    ctx = PrecisionContext(digits=digits)
    reports = verify_all(ctx)
    passed = sum(r.passed for r in reports)
    if len(reports) != 18 or passed != 18:
        short.append((digits, passed, [r.id.value for r in reports if not r.passed]))
    for r in reports:
        if r.id is IdentityId.KHINTCHINE_STABILITY or not r.passed or r.residual == 0:
            continue
        with ctx.workprec():
            margin = mp.log10(ctx.tolerance / r.residual)
        if margin < worst[0]:
            worst = (margin, r.id.value, digits)
margin, row, at = worst
print(f"{len(counts) - len(short)}/{len(counts)} digit counts pass 18/18; short: {short}")
print(f"smallest margin {mp.nstr(margin, 3)} digits ({row} at {at}); floor {MIN_MARGIN}")
sys.exit(1 if short or margin < MIN_MARGIN else 0)
