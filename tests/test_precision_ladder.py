"""Each public numeric function keeps the digits it promises at its edge
arguments: its value at d digits agrees with its value at 2d + 20 digits to
10^-d, for d = 20 and 60, absolutely or, where its docstring promises
relative precision, relatively.

The arguments are exact binary fractions, so both precisions receive the same
number and the comparison measures the function, not the rounding of its
argument.
"""

import time

import pytest
from mpmath import mp, mpf

from kgconst import (
    PrecisionContext,
    ellip_E,
    ellip_K,
    fourier_a,
    krivine_complex_f,
    legendre_chi2,
)

with mp.workprec(64):  # exact at every precision the ladder uses
    TINY = mpf(2) ** -60
    NEAR_ONE = 1 - TINY
    CHI_NEAR_ONE = 1 - mpf(2) ** -10
    SQRT2_MINUS_1 = mp.sqrt(2) - 1

# name: (function of the context, relative)
LADDER = {
    "ellip_K(k -> 0)": (lambda ctx: ellip_K(TINY, ctx), False),
    "ellip_K(k -> 1)": (lambda ctx: ellip_K(NEAR_ONE, ctx), False),
    "ellip_E(k -> 0)": (lambda ctx: ellip_E(TINY, ctx), False),
    "ellip_E(k -> 1)": (lambda ctx: ellip_E(NEAR_ONE, ctx), False),
    "krivine_complex_f(x -> 0)": (lambda ctx: krivine_complex_f(TINY, ctx), False),
    "fourier_a(n = 10^9)": (lambda ctx: fourier_a(10 ** 9, ctx), True),
    "fourier_a(n = 10^9 + 1)": (lambda ctx: fourier_a(10 ** 9 + 1, ctx), True),
    "legendre_chi2(z -> 0)": (lambda ctx: legendre_chi2(TINY, ctx).value, False),
    "legendre_chi2(sqrt(2) - 1)":
        (lambda ctx: legendre_chi2(SQRT2_MINUS_1, ctx).value, False),
    "legendre_chi2(z -> 1)": (lambda ctx: legendre_chi2(CHI_NEAR_ONE, ctx).value, False),
}


@pytest.mark.parametrize("digits", [20, 60])
def test_precision_ladder(digits):
    start = time.perf_counter()
    for name, (f, relative) in LADDER.items():
        value = f(PrecisionContext(digits=digits))
        deeper = f(PrecisionContext(digits=2 * digits + 20))
        with mp.workdps(3 * digits):
            error = abs(value - deeper) / (abs(deeper) if relative else 1)
            assert error < mpf(10) ** -digits, (name, error)
    assert time.perf_counter() - start < 3
