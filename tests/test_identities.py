import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from conftest import clear_memos
from kgconst import (
    IdentityId,
    NoConvergence,
    PrecisionContext,
    quadrature,
    series,
    verify,
    verify_all,
)
from kgconst.cli import MAX_DIGITS
from kgconst.core import MIN_DIGITS
from kgconst.identities import _TABLE, anchor

ALL_IDS = list(IdentityId)


class TestRegistry:
    def test_every_identity_registered(self):
        assert len(ALL_IDS) == 18

    def test_every_identity_has_anchor(self):
        for ident in ALL_IDS:
            assert anchor(ident)


@pytest.fixture(scope="module")
def reports():
    return verify_all(PrecisionContext(digits=20))


class TestVerifyAll:

    @pytest.mark.parametrize("digits", [100, 200, MAX_DIGITS])
    def test_everything_passes_at_high_precision(self, digits, monkeypatch):
        # every Fejer (n - 1 evaluations) and trapezoid (n + 1) call stops at
        # least one doubling below its cap, so raising the ceiling without the
        # caps fails here; empty caches let every call be seen
        intervals = []

        def recording(rule, offset, cap):
            def wrapped(*args, **kwargs):
                res = rule(*args, **kwargs)
                intervals.append((res.evaluations + offset, cap))
                return res
            return wrapped

        monkeypatch.setattr(quadrature, "integrate_analytic", recording(
            quadrature.integrate_analytic, 1, quadrature.FEJER_MAX_INTERVALS))
        monkeypatch.setattr(quadrature, "integrate_even_periodic", recording(
            quadrature.integrate_even_periodic, -1, quadrature.PERIODIC_MAX_INTERVALS))
        clear_memos()
        reports = verify_all(PrecisionContext(digits=digits))
        failures = [(r.id.value, r.error) for r in reports if not r.passed]
        assert failures == []
        # Fejer for a_3 and the tail, the trapezoid for Haagerup and the
        # Krivine middle; the head is a series
        assert len(intervals) == 4
        assert all(n <= cap // 2 for n, cap in intervals), intervals
        # the counts the bounds proved before the rules ran on integers and
        # took their bounds at 64 bits
        assert [n for n, _ in intervals] == {100: [128, 128, 128, 64],
                                             200: [256, 256, 256, 128],
                                             500: [512, 512, 512, 256]}[digits]

    @pytest.mark.parametrize("digits", [10, 12, 15])
    def test_everything_passes_at_low_precision(self, digits):
        # the scaled series forms (PARSEVAL_CLOSURE, KG_FROM_SERIES) need V
        # beyond ctx.tolerance
        reports = verify_all(PrecisionContext(digits=digits))
        failures = [(r.id.value, r.error) for r in reports if not r.passed]
        assert failures == []
        short = [r.id.value for r in reports if r.digits_agreed < digits]
        assert short in ([], ["KHINTCHINE_STABILITY"])

    # derandomized, so every run draws the same five counts; the CI sweep
    # steps cover every count to 200 and every seventh above
    @given(digits=st.integers(min_value=MIN_DIGITS, max_value=MAX_DIGITS))
    @settings(max_examples=5, derandomize=True, deadline=None)
    def test_everything_passes_at_drawn_digit_counts(self, digits):
        reports = verify_all(PrecisionContext(digits=digits))
        failures = [(r.id.value, r.error) for r in reports if not r.passed]
        assert len(reports) == 18 and failures == []

    def test_everything_passes_at_20_digits(self, reports):
        failures = [r.id.value for r in reports if not r.passed]
        assert failures == []

    def test_residuals_below_tolerance(self, reports):
        ctx = PrecisionContext(digits=20)
        for r in reports:
            row_tol = _TABLE[r.id].tolerance
            tol = ctx.tolerance if row_tol is None else row_tol
            assert r.residual < tol, r.id

    def test_digits_agreed_capped_and_substantial(self, reports):
        for r in reports:
            assert 0 <= r.digits_agreed <= 20
            if r.id is not IdentityId.KHINTCHINE_STABILITY:
                assert r.digits_agreed >= 19, r.id

    def test_registry_order_preserved(self, reports):
        assert [r.id for r in reports] == ALL_IDS


class TestSingleVerify:
    def test_accepts_string_id(self):
        r = verify("KG_DEFINITION", PrecisionContext(digits=20))
        assert r.id is IdentityId.KG_DEFINITION
        assert r.passed

    def test_unknown_id_raises(self):
        with pytest.raises(ValueError):
            verify("NOT_AN_IDENTITY", PrecisionContext(digits=20))

    def test_library_errors_become_failed_reports(self, monkeypatch):
        # a NoConvergence from the series layer surfaces as a failed report,
        # not an exception
        def no_convergence(ctx):
            raise NoConvergence("double series did not converge")

        monkeypatch.setattr(series, "double_series", no_convergence)
        r = verify(IdentityId.PARSEVAL_DOUBLE_SERIES, PrecisionContext(digits=30))
        assert not r.passed
        assert r.residual == mp.inf
        assert r.error == "NoConvergence: double series did not converge"

    def test_khintchine_uses_fixed_tolerance(self):
        # the product is desk-scale: it passes at high ctx digits because its
        # tolerance stays pinned at the module's fixed 1e-8
        r = verify(IdentityId.KHINTCHINE_STABILITY, PrecisionContext(digits=30))
        assert r.passed
        assert r.residual < mpf("1e-8")


class TestSelectedIdentitiesAtThirtyDigits:
    @pytest.mark.parametrize("ident", [
        IdentityId.PARSEVAL_DOUBLE_SERIES,
        IdentityId.PARSEVAL_CLOSURE,
        IdentityId.KG_DEFINITION,
        IdentityId.KG_FROM_SERIES,
        IdentityId.APPENDIX_A1,
        IdentityId.APPENDIX_A3,
        IdentityId.FIXED_POINT_1,
        IdentityId.HAAGERUP_CONSISTENCY,
    ])
    def test_passes(self, ident, ctx30):
        r = verify(ident, ctx30)
        assert r.passed, r.error
        assert r.residual < mpf("1e-25")
