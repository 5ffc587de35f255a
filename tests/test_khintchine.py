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
    ACCEL_BASE_TERMS,
    _em_log_tail,
    _log_sum,
    partial_products,
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

    def test_invalid_N(self, ctx15):
        with pytest.raises(DomainError):
            khintchine_partial(0, ctx15)

    def test_no_marks(self, ctx15):
        assert partial_products([], ctx15) == []

    @pytest.mark.parametrize("marks", [[1, 5000, 2000], [2000, 10]])
    def test_marks_must_ascend_from_one(self, ctx15, marks):
        # marks are factor counts ascending from 1, as the trace's
        # checkpoints are; a list out of order is refused, not reordered
        with pytest.raises(DomainError):
            partial_products(marks, ctx15)

    def test_one_pass_gives_each_partial_product(self, ctx15, monkeypatch):
        # every mark, short or long, from one _log_sum call
        marks = [1, 2, 10, 1000, 1001, 5000, 20_000]
        expected = [khintchine_partial(N, ctx15).value for N in marks]
        calls = []
        monkeypatch.setattr(khintchine, "_log_sum",
                            lambda m: (calls.append(list(m)), _log_sum(m))[1])
        assert partial_products(marks, ctx15) == expected
        assert calls == [marks]

    def test_keeps_no_term_list(self, ctx15):
        # each prefix is summed from a generator, so memory does not grow
        # with the factor count
        tracemalloc.start()
        try:
            partial_products([1, 10 ** 5], ctx15)
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
        # the tail runs at the 30 working digits of TAIL_CTX at every caller
        # precision, so the product does not move with the requested digits
        # beyond it
        for N in (ACCEL_BASE_TERMS, 2 * ACCEL_BASE_TERMS):
            with mp.workdps(15):
                low = _em_log_tail(N)
            with mp.workdps(300):
                assert _em_log_tail(N) == low
        low = khintchine_accelerated(PrecisionContext(digits=20))
        high = khintchine_accelerated(PrecisionContext(digits=300))
        with mp.workdps(40):
            assert abs(high.value - low.value) < mpf("1e-28")


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


@pytest.mark.parametrize("N", [ACCEL_BASE_TERMS, 2 * ACCEL_BASE_TERMS])
def test_closed_form_tail_matches_quadrature(N):
    # the series in 1/a against mpmath's quadrature and numerical
    # derivatives (they agree to about 4e-34)
    assert abs(_em_log_tail(N) - em_tail_reference(N)) < mpf("1e-30")


@pytest.mark.parametrize("N", [ACCEL_BASE_TERMS, 2 * ACCEL_BASE_TERMS])
def test_product_with_tail_carries_fifteen_digits(N):
    # the binary64 sum plus the tail at either end of the doubling, and the
    # accelerated product, are within the product's 2e-15 of the constant
    with mp.workdps(40):
        product = mp.exp(mpf(_log_sum([N])[0]) + _em_log_tail(N))
        accelerated = khintchine_accelerated(PrecisionContext(digits=30)).value
        assert abs(product - mp.khinchin) < mpf("2e-15")
        assert abs(accelerated - mp.khinchin) < mpf("2e-15")


def test_stability_row_sums_at_most_two_thousand_terms(monkeypatch):
    # one _log_sum call, up to 2 ACCEL_BASE_TERMS factors, per KHINTCHINE_STABILITY row
    lengths = []
    monkeypatch.setattr(khintchine, "_log_sum",
                        lambda marks: (lengths.append(marks[-1]), _log_sum(marks))[1])
    assert verify(IdentityId.KHINTCHINE_STABILITY, PrecisionContext(digits=20)).passed
    assert lengths == [2 * ACCEL_BASE_TERMS]
    assert sum(lengths) <= 2000
