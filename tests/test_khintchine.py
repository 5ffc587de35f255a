import pytest
from mpmath import mp, mpf

from kgconst import (
    DomainError,
    NoConvergence,
    PrecisionContext,
    khintchine,
    khintchine_accelerated,
    khintchine_partial,
)
from kgconst.khintchine import log_tail_bound

# reference value of the constant, for regression only (first 16 digits)
KNOWN = mpf("2.685452001065306")


class TestPartialProduct:
    def test_first_factors_exact(self, ctx15):
        assert khintchine_partial(1, ctx15).value == 1
        p2 = khintchine_partial(2, ctx15)
        assert abs(p2.value - mpf(9) / 8) < mpf("1e-20")
        assert p2.terms_used == 2
        assert not p2.accelerated

    def test_monotone_increasing(self, ctx15):
        values = [khintchine_partial(N, ctx15).value
                  for N in (10, 100, 1000, 10_000, 100_000)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < KNOWN for v in values)

    def test_tail_estimate_brackets_limit(self, ctx15):
        for N in (1000, 10_000):
            p = khintchine_partial(N, ctx15)
            assert p.value < KNOWN < p.value + p.tail_estimate

    def test_float_and_exact_paths_agree(self, ctx15):
        # N=1000 uses the full-precision path, N=1001 the binary64 bulk path
        a = khintchine_partial(1000, ctx15).value
        b = khintchine_partial(1001, ctx15).value
        assert 0 < b - a < mpf("1e-4")

    def test_invalid_N(self, ctx15):
        with pytest.raises(DomainError):
            khintchine_partial(0, ctx15)


class TestTailBound:
    def test_decreasing(self, ctx15):
        bounds = [log_tail_bound(N, ctx15) for N in (10, 100, 1000, 10_000)]
        assert all(a > b for a, b in zip(bounds, bounds[1:]))

    def test_actually_bounds_log_tail(self, ctx15):
        # compare against a much larger explicit range
        near = khintchine_partial(1000, ctx15).value
        far = khintchine_partial(1_000_000, ctx15).value
        log_gap = mp.log(far) - mp.log(near)
        assert log_gap < log_tail_bound(1000, ctx15)


class TestAccelerated:
    def test_eight_digit_value(self, ctx15):
        res = khintchine_accelerated(ctx15)
        assert res.accelerated
        assert abs(res.value - KNOWN) < mpf("1e-8")
        assert mp.nstr(res.value, 7) == "2.685452"

    def test_beats_brute_force(self, ctx15):
        accel = khintchine_accelerated(ctx15).value
        brute = khintchine_partial(1_000_000, ctx15).value
        assert abs(accel - KNOWN) < abs(brute - KNOWN)

    def test_tail_runs_at_fixed_precision(self, monkeypatch):
        # the tail integrals run at the 30 working digits of TAIL_CTX at
        # every caller precision, so the product does not move with the
        # requested digits beyond it
        precisions = []
        quad = mp.quad

        def recording(*args, **kwargs):
            precisions.append(mp.dps)
            return quad(*args, **kwargs)

        monkeypatch.setattr(mp, "quad", recording)
        low = khintchine_accelerated(PrecisionContext(digits=20))
        high = khintchine_accelerated(PrecisionContext(digits=300))
        assert precisions == [30] * 4
        with mp.workdps(40):
            assert abs(high.value - low.value) < mpf("1e-28")

    def test_tail_error_estimate_gates(self, monkeypatch):
        # mp.quad's error estimate (about 1e-32 here) must be below
        # TAIL_TOLERANCE, or the product is not returned
        monkeypatch.setattr(khintchine, "TAIL_TOLERANCE", mpf("1e-40"))
        with pytest.raises(NoConvergence):
            khintchine_accelerated(PrecisionContext(digits=20))
