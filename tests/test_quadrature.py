import pytest
from mpmath import mp, mpf

from kgconst import (
    DomainError,
    NoConvergence,
    NonFiniteEvaluation,
    PrecisionContext,
    const_L,
    fourier_a,
    identities,
    integrate_analytic,
    integrate_even_periodic,
)
from kgconst import quadrature
from kgconst.quadrature import _fejer_rule


class TestFiniteInterval:
    def test_polynomial_exact(self, ctx30):
        res = integrate_analytic(lambda x: x * x, 0, 1, ctx30)
        assert abs(res.value - mpf(1) / 3) < ctx30.tolerance
        assert res.error_estimate < ctx30.tolerance
        assert res.evaluations > 0
        assert res.levels >= 3

    def test_secant_gives_log_tan_form(self, ctx30):
        with ctx30.workprec():
            upper = mp.pi / 4
            expected = mp.log(1 + mp.sqrt(2))
        res = integrate_analytic(lambda t: 1 / mp.cos(t), 0, upper, ctx30)
        assert abs(res.value - expected) < ctx30.tolerance

    def test_cosine_product_orthogonality(self, ctx30):
        # integral of cos(4t)cos(8t) over a full shared period vanishes
        with ctx30.workprec():
            upper = mp.pi / 2
        res = integrate_analytic(lambda t: mp.cos(4 * t) * mp.cos(8 * t), 0, upper, ctx30)
        assert abs(res.value) < mpf(10) ** -(ctx30.digits - 2)

    def test_converges_within_tolerance(self, ctx30):
        with ctx30.workprec():
            expected = mp.exp(mpf(1)) - 1
        res = integrate_analytic(mp.exp, 0, 1, ctx30)
        assert res.error_estimate < ctx30.tolerance
        assert abs(res.value - expected) < ctx30.tolerance


class TestEndpointSingularities:
    """Neither rule integrates an endpoint singularity: the one the library
    meets, the -ln(x/2) of arcsinh(csch x) at 0, is subtracted in closed form."""

    def test_inverse_sqrt(self, ctx30):
        # the error falls only like n^-1/2: refused at the cap, not returned
        with pytest.raises(NoConvergence):
            integrate_analytic(lambda x: 1 / mp.sqrt(x), 0, 1, ctx30)

    def test_log_singularity(self, ctx30):
        with pytest.raises(NoConvergence):
            integrate_analytic(mp.log, 0, 1, ctx30)

    def test_endpoints_never_evaluated(self, ctx30, monkeypatch):
        # arcsinh(csch x) + ln(x/2) is inf - inf at 0 as spelled, so the
        # (0, L) integral must not evaluate it there
        seen = []
        fejer = quadrature.integrate_analytic

        def recording(f, a, b, ctx):
            return fejer(lambda x: (seen.append(x), f(x))[1], a, b, ctx)

        monkeypatch.setattr(quadrature, "integrate_analytic", recording)
        identities._head_integral.cache_clear()
        value = identities._head_integral(ctx30)
        with ctx30.workprec():
            L = mp.log(1 + mp.sqrt(2))
            assert abs(value - (mp.pi ** 2 / 8 + L ** 2 / 2)) < ctx30.tolerance
            assert seen and all(0 < x < L for x in seen)


class TestFailureModes:
    def test_degenerate_interval_rejected(self, ctx30):
        with pytest.raises(DomainError):
            integrate_analytic(lambda x: x, 1, 1, ctx30)
        with pytest.raises(DomainError):
            integrate_even_periodic(lambda x: x, 0, ctx30)

    def test_nonfinite_integrand(self, ctx30):
        with pytest.raises(NonFiniteEvaluation):
            integrate_even_periodic(lambda t: mpf("nan"), 1, ctx30)
        with pytest.raises(NonFiniteEvaluation):
            integrate_even_periodic(lambda t: mpf("inf") if t > mpf("0.5") else t, 1, ctx30)


class TestDeterminism:
    def test_identical_reruns(self, ctx30):
        a = integrate_even_periodic(lambda t: 1 / (2 + mp.cos(2 * t)), mp.pi / 2, ctx30)
        b = integrate_even_periodic(lambda t: 1 / (2 + mp.cos(2 * t)), mp.pi / 2, ctx30)
        assert a.value == b.value
        assert a.evaluations == b.evaluations
        assert a.levels == b.levels


def _assert_relative(value, reference, ctx):
    """|value/reference() - 1| < 10^-(working_dps - 1), with the test-body
    arithmetic and reference() run 20 digits deeper than the context."""
    with mp.workdps(ctx.working_dps + 20):
        assert abs(value / reference() - 1) < mpf(10) ** -(ctx.working_dps - 1)


def _L():
    return mp.log(1 + mp.sqrt(2))


def _arcsinh_csch(x):
    return mp.asinh(1 / mp.sinh(x))


@pytest.mark.parametrize("digits", [12, 30, 60, 120, 250])
class TestClosedForms:
    """Both rules at their target, the working precision, and the two
    appendix integrals as the identities take them, against closed forms
    computed with mpmath."""

    def test_appendix_tail(self, digits):
        ctx = PrecisionContext(digits=digits)
        value = identities._tail_integral(ctx)
        _assert_relative(value, lambda: mp.pi ** 2 / 8 - _L() ** 2 / 2, ctx)

    def test_appendix_tail_analytic(self, digits):
        # the tail through x = L - ln v, v = 1 - u in (0, 1), as the
        # appendix identities take it
        ctx = PrecisionContext(digits=digits)
        L = const_L(ctx)
        value = integrate_analytic(lambda v: _arcsinh_csch(L - mp.log(v)) / v, 0, 1, ctx).value
        _assert_relative(value, lambda: mp.pi ** 2 / 8 - _L() ** 2 / 2, ctx)

    def test_appendix_head(self, digits):
        # arcsinh(csch x) + ln(x/2) by Fejer's second rule, plus the closed
        # form of -ln(x/2)
        ctx = PrecisionContext(digits=digits)
        value = identities._head_integral(ctx)
        _assert_relative(value, lambda: mp.pi ** 2 / 8 + _L() ** 2 / 2, ctx)

    def test_haagerup_integral(self, digits):
        ctx = PrecisionContext(digits=digits)
        with ctx.workprec():
            half_pi = mp.pi / 2
        value = integrate_even_periodic(
            lambda t: mp.cos(t) ** 2 / mp.sqrt(1 + mp.sin(t) ** 2), half_pi, ctx).value
        _assert_relative(value, lambda: 2 * mp.ellipk(-1) - mp.ellipe(-1), ctx)

    @pytest.mark.parametrize("x", ["0.25", "0.5", "0.9", "0.999"])
    def test_krivine_middle_integral(self, digits, x):
        ctx = PrecisionContext(digits=digits)
        with ctx.workprec():
            x = mpf(x)
            half_pi = mp.pi / 2
        value = integrate_even_periodic(
            lambda t: mp.cos(t) ** 2 / mp.sqrt(1 - (x * mp.sin(t)) ** 2), half_pi, ctx).value

        def reference():
            m = x * x
            return (mp.ellipe(m) - (1 - m) * mp.ellipk(m)) / m
        _assert_relative(value, reference, ctx)


class TestEvenPeriodic:
    def test_each_point_evaluated_once(self, ctx30):
        seen = []

        def f(t):
            seen.append(t)
            return 1 / (2 + mp.cos(2 * t))

        res = integrate_even_periodic(f, mp.pi / 2, ctx30)
        assert res.evaluations == len(seen) == len(set(seen))
        with ctx30.workprec():
            assert abs(res.value - mp.pi / (2 * mp.sqrt(3))) < ctx30.tolerance

    def test_point_cap_raises(self, ctx30):
        # t^2 is even but not periodic: the trapezoid error falls only like
        # h^2, far above the target at the cap
        with pytest.raises(NoConvergence):
            integrate_even_periodic(lambda t: t * t, 1, ctx30)


def _reference_fejer(n, dps):
    """Distances 1 - cos(theta_j) and weights of Fejer's second rule from
    mpmath's sin and cos directly, 20 digits deeper, for j = 1 .. n/2."""
    with mp.workdps(dps + 20):
        distances, weights = [], []
        for j in range(1, n // 2 + 1):
            theta = j * mp.pi / n
            distances.append(1 - mp.cos(theta))
            weights.append(4 * mp.sin(theta) / n * mp.fsum(
                mp.sin((2 * k - 1) * theta) / (2 * k - 1) for k in range(1, n // 2 + 1)))
        return distances, weights


class TestAnalytic:
    @pytest.mark.parametrize("dps, n", [(36, 8), (36, 64), (220, 256)])
    def test_rule_matches_direct_reference(self, dps, n):
        with mp.workdps(dps):
            distances, weights = _fejer_rule(n, mp.prec)
        ref_d, ref_w = _reference_fejer(n, dps)
        with mp.workdps(dps + 20):
            for d, w, rd, rw in zip(distances[1:], weights[1:], ref_d, ref_w):
                assert abs(d - rd) < rd * mpf(10) ** -dps
                assert abs(w - rw) < mpf(10) ** -dps

    @pytest.mark.parametrize("digits", [30, 120])
    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_fourier_coefficients(self, digits, n):
        ctx = PrecisionContext(digits=digits)
        with ctx.workprec():
            quarter_pi = mp.pi / 4
        res = integrate_analytic(lambda t: mp.cos(4 * n * t) / mp.cos(t), 0, quarter_pi, ctx)
        with ctx.workprec():
            assert abs(8 / mp.pi * res.value - fourier_a(n, ctx).value) < ctx.tolerance

    def test_endpoints_never_evaluated(self, ctx30):
        seen = []

        def f(x):
            seen.append(x)
            return mp.exp(x)

        res = integrate_analytic(f, 0, 1, ctx30)
        with ctx30.workprec():
            assert abs(res.value - (mp.e - 1)) < ctx30.tolerance
        assert seen and all(0 < x < 1 for x in seen)

    def test_each_point_evaluated_once(self, ctx30):
        seen = []

        def f(x):
            seen.append(x)
            return 1 / (2 + x)

        res = integrate_analytic(f, -1, 1, ctx30)
        assert res.evaluations == len(seen) == len(set(seen))
        with ctx30.workprec():
            assert abs(res.value - mp.log(3)) < ctx30.tolerance

    def test_nonfinite_integrand(self, ctx30):
        with pytest.raises(NonFiniteEvaluation):
            integrate_analytic(lambda x: mpf("nan"), 0, 1, ctx30)
        with pytest.raises(NonFiniteEvaluation):
            integrate_analytic(lambda x: mpf("inf") if x > mpf("0.5") else x, 0, 1, ctx30)

    def test_interval_cap_raises(self, ctx30):
        # sqrt is not analytic at 0: the error falls only like n^-3, far
        # above the target at the cap
        with pytest.raises(NoConvergence):
            integrate_analytic(mp.sqrt, 0, 1, ctx30)

    def test_identical_reruns(self, ctx30, monkeypatch):
        # the second run rebuilds the weights from an empty cache
        a = integrate_analytic(lambda x: 1 / (1 + x * x), 0, 1, ctx30)
        monkeypatch.setattr(quadrature, "_fejer_cache", {})
        b = integrate_analytic(lambda x: 1 / (1 + x * x), 0, 1, ctx30)
        assert a.value == b.value
        assert a.evaluations == b.evaluations
        assert a.levels == b.levels
