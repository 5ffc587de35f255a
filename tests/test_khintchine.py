import tracemalloc

import pytest
from mpmath import mp, mpf

from kgconst import (
    DomainError,
    IdentityId,
    PrecisionContext,
    khintchine,
    khintchine_accelerated,
    khintchine_partial,
    verify,
)
from kgconst.khintchine import (
    ACCEL_TERMS,
    PRODUCT_DIGITS,
    _em_log_tail,
    _log_sum,
)

# reference value of the constant, for regression only (first 16 digits)
KNOWN = mpf("2.685452001065306")


class TestPartialProduct:
    def test_first_factors_exact(self, ctx15):
        assert khintchine_partial(1, ctx15).value == 1
        p2 = khintchine_partial(2, ctx15)
        # the binary64 log sum holds the product to 2e-15 (PRODUCT_DIGITS)
        assert abs(p2.value - mpf(9) / 8) < mpf("2e-15")
        assert p2.terms_used == 2

    def test_monotone_increasing(self, ctx15):
        values = [khintchine_partial(N, ctx15).value
                  for N in (10, 100, 1000, 10_000, 100_000)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < KNOWN for v in values)

    def test_tail_bound_brackets_limit(self, ctx15):
        for N in (1000, 10_000):
            p = khintchine_partial(N, ctx15)
            assert p.value < KNOWN < p.value + p.tail_bound

    def test_float_and_exact_paths_agree(self, ctx15):
        # adjacent factor counts give adjacent, increasing products
        a = khintchine_partial(1000, ctx15).value
        b = khintchine_partial(1001, ctx15).value
        assert 0 < b - a < mpf("1e-4")

    @pytest.mark.parametrize("N", [0, -1, 2.5, "10"])
    def test_invalid_N(self, ctx15, N):
        with pytest.raises(DomainError):
            khintchine_partial(N, ctx15)

    def test_keeps_no_term_list(self, ctx15):
        # the sum runs over a generator, so memory does not grow with the
        # factor count
        tracemalloc.start()
        try:
            khintchine_partial(10 ** 5, ctx15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 6


class TestTailBound:
    def test_decreasing(self, ctx15):
        bounds = [khintchine_partial(N, ctx15).tail_bound
                  for N in (10, 100, 1000, 10_000)]
        assert all(a > b for a, b in zip(bounds, bounds[1:]))

    def test_actually_bounds_log_tail(self, ctx15):
        # compare against a much larger explicit range, in log space against
        # the integral bound (ln N + 1)/(N ln 2) and as a product against
        # the tail bound formed from it
        near = khintchine_partial(1000, ctx15)
        far = khintchine_partial(1_000_000, ctx15).value
        log_gap = mp.log(far) - mp.log(near.value)
        assert log_gap < (mp.log(1000) + 1) / (1000 * mp.log(2))
        assert far - near.value < near.tail_bound


class TestAccelerated:
    def test_eight_digit_value(self, ctx15):
        res = khintchine_accelerated(ctx15)
        assert abs(res.value - KNOWN) < mpf("1e-8")
        assert mp.nstr(res.value, 7) == "2.685452"

    def test_beats_brute_force(self, ctx15):
        accel = khintchine_accelerated(ctx15).value
        brute = khintchine_partial(1_000_000, ctx15).value
        assert abs(accel - KNOWN) < abs(brute - KNOWN)

    def test_tail_runs_at_fixed_precision(self):
        # the tail runs at REFERENCE_DIGITS, 30 working digits, at every
        # caller precision, so the product does not move with the requested
        # digits beyond it
        for N in (ACCEL_TERMS // 2, ACCEL_TERMS):
            with mp.workdps(15):
                low = _em_log_tail(N)
            with mp.workdps(300):
                assert _em_log_tail(N) == low
        low = khintchine_accelerated(PrecisionContext(digits=20))
        high = khintchine_accelerated(PrecisionContext(digits=300))
        with mp.workdps(40):
            assert abs(high.value - low.value) < mpf("1e-28")

    @pytest.mark.parametrize("digits", [10, 20, 50, 200, 500])
    def test_tail_bound_covers_the_error(self, digits):
        # the stated bound value 10^-PRODUCT_DIGITS (2.69e-15) covers the
        # distance to the constant (5.03e-17 at every digit count)
        res = khintchine_accelerated(PrecisionContext(digits=digits))
        assert res.terms_used == ACCEL_TERMS
        with mp.workdps(40):
            assert mp.almosteq(res.tail_bound, res.value * mpf(10) ** -PRODUCT_DIGITS,
                               rel_eps=mpf("1e-9"))
            assert abs(res.value - mp.khinchin) <= res.tail_bound

    def test_one_sum_and_one_tail(self, ctx15, monkeypatch):
        # one product over ACCEL_TERMS factors: one _log_sum call and one
        # _em_log_tail call, with no second product to compare it with
        sums, tails = [], []
        monkeypatch.setattr(khintchine, "_log_sum",
                            lambda N: (sums.append(N), _log_sum(N))[1])
        monkeypatch.setattr(khintchine, "_em_log_tail",
                            lambda N: (tails.append(N), _em_log_tail(N))[1])
        khintchine_accelerated(ctx15)
        assert sums == [ACCEL_TERMS]
        assert tails == [ACCEL_TERMS]


def _log_term(x):
    return mp.log(x) / mp.log(2) * mp.log1p(1 / (x * (x + 2)))


def em_tail_reference(N):
    """The Euler-Maclaurin tail beyond N by tanh-sinh quadrature and
    numerical derivatives at 40 digits: int_a^inf f = int_0^{1/a} f(1/u)/u^2
    du, log-singular at u = 0, then f(a)/2 - f'(a)/12 + f'''(a)/720,
    a = N + 1."""
    with mp.workdps(40):
        a = mpf(N + 1)
        integral = mp.quad(lambda u: _log_term(1 / u) / u ** 2, [0, 1 / a])
        return (integral + _log_term(a) / 2 - mp.diff(_log_term, a) / 12
                + mp.diff(_log_term, a, 3) / 720)


@pytest.mark.parametrize("N", [ACCEL_TERMS // 2, ACCEL_TERMS])
def test_closed_form_tail_matches_quadrature(N):
    # the series in 1/a against mpmath's quadrature and numerical
    # derivatives (they agree to about 4e-34)
    assert abs(_em_log_tail(N) - em_tail_reference(N)) < mpf("1e-30")


@pytest.mark.parametrize("N", [ACCEL_TERMS // 2, ACCEL_TERMS])
def test_product_with_tail_carries_fifteen_digits(N):
    # the binary64 sum plus the tail at 1000 and 2000 factors, and the
    # accelerated product, are within the product's 2e-15 of the constant
    with mp.workdps(40):
        product = mp.exp(mpf(_log_sum(N)) + _em_log_tail(N))
        accelerated = khintchine_accelerated(PrecisionContext(digits=30)).value
        assert abs(product - mp.khinchin) < mpf("2e-15")
        assert abs(accelerated - mp.khinchin) < mpf("2e-15")


def test_stability_row_sums_at_most_two_thousand_terms(monkeypatch):
    # one _log_sum call, up to ACCEL_TERMS factors, per KHINTCHINE_STABILITY row
    lengths = []
    monkeypatch.setattr(khintchine, "_log_sum",
                        lambda N: (lengths.append(N), _log_sum(N))[1])
    assert verify(IdentityId.KHINTCHINE_STABILITY, PrecisionContext(digits=20)).passed
    assert lengths == [ACCEL_TERMS]
    assert sum(lengths) <= 2000
