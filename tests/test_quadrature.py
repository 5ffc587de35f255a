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
from kgconst.quadrature import _fejer_rule, _sine_table, _table_bits, _weight_sums


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
        # arcsinh(csch x) + ln(x/2), written through 1 - e^-x, divides by
        # zero at 0, so the (0, L) integral must not evaluate it there
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

    def test_nonfinite_integrand(self, ctx30):
        with pytest.raises(NonFiniteEvaluation):
            integrate_even_periodic(lambda s2, c2: mpf("nan"), ctx30)
        with pytest.raises(NonFiniteEvaluation):
            integrate_even_periodic(lambda s2, c2: mpf("inf") if s2 > mpf("0.5") else s2, ctx30)


class TestDeterminism:
    def test_identical_reruns(self, ctx30):
        # 1/(2 + cos 2t); the second run rebuilds the sine tables from an
        # empty cache
        a = integrate_even_periodic(lambda s2, c2: 1 / (2 + c2 - s2), ctx30)
        _sine_table.cache_clear()
        b = integrate_even_periodic(lambda s2, c2: 1 / (2 + c2 - s2), ctx30)
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
    """Both rules at their target, the working precision, the two appendix
    integrals as the identities take them and the tail by its former
    substitution, against closed forms computed with mpmath."""

    def test_appendix_tail(self, digits):
        ctx = PrecisionContext(digits=digits)
        value = identities._tail_integral(ctx)
        _assert_relative(value, lambda: mp.pi ** 2 / 8 - _L() ** 2 / 2, ctx)

    def test_appendix_tail_analytic(self, digits):
        # the tail through x = L - ln v, v = 1 - u in (0, 1), an
        # independent reference for the appendix identities, which take it
        # as int_0^L s/sinh s ds
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
        value = integrate_even_periodic(lambda s2, c2: c2 / mp.sqrt(1 + s2), ctx).value
        _assert_relative(value, lambda: 2 * mp.ellipk(-1) - mp.ellipe(-1), ctx)

    @pytest.mark.parametrize("x", ["0.25", "0.5", "0.9", "0.999"])
    def test_krivine_middle_integral(self, digits, x):
        ctx = PrecisionContext(digits=digits)
        with ctx.workprec():
            x = mpf(x)
            xp2 = (1 - x) * (1 + x)
        value = integrate_even_periodic(
            lambda s2, c2: c2 / mp.sqrt(c2 + xp2 * s2), ctx).value

        def reference():
            m = x * x
            return (mp.ellipe(m) - (1 - m) * mp.ellipk(m)) / m
        _assert_relative(value, reference, ctx)


class TestEvenPeriodic:
    def test_each_point_evaluated_once(self, ctx30):
        seen = []

        def g(s2, c2):
            seen.append((s2, c2))
            return 1 / (2 + c2 - s2)

        res = integrate_even_periodic(g, ctx30)
        assert res.evaluations == len(seen) == len(set(seen))
        with ctx30.workprec():
            assert abs(res.value - mp.pi / (2 * mp.sqrt(3))) < ctx30.tolerance

    def test_nodes_are_squared_sines_and_cosines(self, ctx30):
        # exact at the ends, and sin^2 t + cos^2 t = 1 at every node
        seen = []
        res = integrate_even_periodic(lambda s2, c2: (seen.append((s2, c2)), 1)[1], ctx30)
        with ctx30.workprec():
            assert abs(res.value - mp.pi / 2) < ctx30.tolerance
        assert (0, 1) in seen and (1, 0) in seen
        with mp.workdps(ctx30.working_dps + quadrature.RULE_EXTRA_DPS):
            assert all(abs(s2 + c2 - 1) < mpf(10) ** -mp.dps for s2, c2 in seen)

    def test_point_cap_raises(self, ctx30):
        # |sin t| is even and of period pi but has a kink at 0: the
        # trapezoid error falls only like h^2, far above the target at the cap
        with pytest.raises(NoConvergence,
                           match="^periodic trapezoid did not reach .* within 65536 intervals"):
            integrate_even_periodic(lambda s2, c2: mp.sqrt(s2), ctx30)


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


def _reference_weight_sums(n, prec):
    """The sums S_j = sum_{k=1}^{n/2} sin((2k-1) j pi/n)/(2k-1), j = 1 .. n/2,
    by n^2/4 integer divisions on a directly rounded sine table, 2^-P2 with
    P2 = _table_bits(prec) + 20 so that their own error is 2^-20 of the
    rule's bound: the O(n^2) construction the FFT replaces."""
    P2 = _table_bits(prec) + 20
    with mp.workprec(P2 + 10):
        quarter = [int(mp.nint(mp.ldexp(mp.sinpi(mpf(m) / (2 * n)), P2)))
                   for m in range(n + 1)]
    period = quarter + quarter[n - 1:0:-1]
    period += [-v for v in period]
    return [mp.ldexp(sum(period[2 * j * k % (4 * n)] // k for k in range(1, n, 2)), -P2)
            for j in range(1, n // 2 + 1)]


class TestSineTable:
    @pytest.mark.parametrize("dps", [30, 200, 500])
    def test_entries_within_stated_bound(self, dps):
        # every entry of the tables for n = 8 .. 2048 within 2 log2(n) units
        # 2^-P of sin(m pi/(2n)), so within 2 log2(n) + 1/2 units of the
        # directly rounded value; each table is the even entries of the next
        top = 2048
        with mp.workdps(dps):
            prec = mp.prec
        P = _table_bits(prec)
        with mp.workprec(P + 10):
            direct = [int(mp.nint(mp.ldexp(mp.sinpi(mpf(m) / (2 * top)), P)))
                      for m in range(top + 1)]
        n = 8
        while n <= top:
            table = _sine_table(n, prec)
            assert table == _sine_table(2 * n, prec)[::2]
            bound = 2 * (n.bit_length() - 1) + mpf(1) / 2
            step = top // n
            assert max(abs(t - d) for t, d in zip(table, direct[::step])) <= bound, n
            n *= 2


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

    @pytest.mark.parametrize("dps, n", [(60, 8), (60, 2048), (220, 512), (520, 1024)])
    def test_fft_weights_within_stated_bound(self, dps, n):
        # the FFT's S_j within (n + 1)(sqrt(2) e H + 2) units 2^-P of the
        # O(n^2) reference, e = 2 log2(n), H = sum_{k<=n/2} 1/(2k-1); each
        # weight within 2^10 units of (4 sin(theta_j)/n) S_j before its
        # rounding to prec bits
        with mp.workdps(dps):
            prec = mp.prec
            weights = _fejer_rule(n, prec)[1]
        P = _table_bits(prec)
        sums = _weight_sums(n, prec)
        with mp.workprec(3 * P):
            e = 2 * (n.bit_length() - 1)
            H = mp.fsum(mpf(1) / (2 * k - 1) for k in range(1, n // 2 + 1))
            sum_bound = mp.ldexp((n + 1) * (mp.sqrt(2) * e * H + 2), -P)
            for j, s in enumerate(_reference_weight_sums(n, prec), start=1):
                assert abs(mp.ldexp(sums[j], -P) - s) <= sum_bound, j
                reference = 4 * mp.sinpi(mpf(j) / n) * s / n
                assert abs(weights[j] - reference) <= (
                    mp.ldexp(2 ** 10, -P) + mp.ldexp(abs(reference), -prec)), j

    @pytest.mark.parametrize("digits", [30, 120])
    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_fourier_coefficients(self, digits, n):
        ctx = PrecisionContext(digits=digits)
        with ctx.workprec():
            quarter_pi = mp.pi / 4
        res = integrate_analytic(lambda t: mp.cos(4 * n * t) / mp.cos(t), 0, quarter_pi, ctx)
        with ctx.workprec():
            assert abs(8 / mp.pi * res.value - fourier_a(n, ctx)) < ctx.tolerance

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
        with pytest.raises(NoConvergence,
                           match="^Fejer's second rule did not reach .* within 2048 intervals"):
            integrate_analytic(mp.sqrt, 0, 1, ctx30)

    def test_identical_reruns(self, ctx30):
        # the second run rebuilds the weights from an empty cache
        a = integrate_analytic(lambda x: 1 / (1 + x * x), 0, 1, ctx30)
        _fejer_rule.cache_clear()
        b = integrate_analytic(lambda x: 1 / (1 + x * x), 0, 1, ctx30)
        assert a.value == b.value
        assert a.evaluations == b.evaluations
        assert a.levels == b.levels

    def test_rule_and_tables_built_once_per_precision(self, ctx30):
        # a second call at the same precision reads every rule and table
        # from the caches
        _fejer_rule.cache_clear()
        _sine_table.cache_clear()
        integrate_analytic(mp.exp, 0, 1, ctx30)
        misses = (_fejer_rule.cache_info().misses, _sine_table.cache_info().misses)
        assert misses[0] > 0 and misses[1] > 0
        integrate_analytic(mp.exp, 0, 1, ctx30)
        assert (_fejer_rule.cache_info().misses, _sine_table.cache_info().misses) == misses
