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
from kgconst import elliptic, quadrature, series
from kgconst.quadrature import _fejer_rule, _sine_table, _table_bits, _weight_sums

from conftest import clear_memos
from integrands import integrate, on_integers


# A point of the Bernstein ellipse E_rho about [a, b], r = (b - a)/2, lies
# within r (rho + 1/rho)/2 of the midpoint and r (rho - 1/rho)/2 of the real
# axis.  So about [0, 1], |exp x| <= e^(1/2 + 33/16) < 13 on E_8, and
# |1 + x^2| = |x - i||x + i| >= (5/8)^2 on E_2; about [-1, 1],
# |2 + x| >= 2 - 5/4 on E_2.
EXP_BOUNDS = [(8, 13)]
# 1/(2 + cos 2t) on |Im t| <= 1/2, where |cos 2t| <= cosh 1 < 1.55
PERIODIC_BOUNDS = [(mpf(1) / 2, 3)]


class TestFiniteInterval:
    def test_polynomial_exact(self, ctx30):
        # |x|^2 <= (1/2 + 33/16)^2 < 7 on E_8
        res = integrate(lambda x: x * x, ctx30, [(8, 7)], (0, 1))
        assert abs(res.value - mpf(1) / 3) < ctx30.tolerance
        assert res.error_bound < ctx30.tolerance
        assert res.evaluations > 0

    def test_secant_gives_log_tan_form(self, ctx30):
        with ctx30.workprec():
            upper = mp.pi / 4
            expected = mp.log(1 + mp.sqrt(2))
        # on E_4 about [0, pi/4], Re t <= pi/8 + (pi/16)(4 + 1/4) < 1.23, and
        # |cos t| >= |cos Re t| > 1/3
        res = integrate(lambda t: 1 / mp.cos(t), ctx30, [(4, 3)], (0, upper))
        assert abs(res.value - expected) < ctx30.tolerance

    def test_cosine_product_orthogonality(self, ctx30):
        # integral of cos(4t)cos(8t) over a full shared period vanishes
        with ctx30.workprec():
            upper = mp.pi / 2
            # |cos z| <= cosh Im z, and |Im t| <= (pi/8)(rho - 1/rho) on E_rho
            bounds = [(rho, mp.cosh(12 * mp.pi / 8 * (rho - mpf(1) / rho))) for rho in (2, 8)]
        res = integrate(lambda t: mp.cos(4 * t) * mp.cos(8 * t), ctx30, bounds, (0, upper))
        assert abs(res.value) < mpf(10) ** -(ctx30.digits - 2)

    def test_converges_within_tolerance(self, ctx30):
        with ctx30.workprec():
            expected = mp.exp(mpf(1)) - 1
        res = integrate(mp.exp, ctx30, EXP_BOUNDS, (0, 1))
        assert res.error_bound < ctx30.tolerance
        assert abs(res.value - expected) < ctx30.tolerance


class TestEndpointSingularities:
    """Neither rule integrates an endpoint singularity: the library takes the
    one it meets, the log singularity of arcsinh(csch x) at 0, by a series
    instead (identities._head_integral).  No Bernstein ellipse about [0, 1]
    avoids a singularity at 0, so the narrowest one a caller could name, rho
    near 1, is refused before any evaluation: its bound needs far more
    intervals than the cap."""

    def test_inverse_sqrt(self, ctx30):
        with pytest.raises(NoConvergence):
            integrate(lambda x: 1 / mp.sqrt(x), ctx30, [(mpf("1.01"), 100)], (0, 1))

    def test_log_singularity(self, ctx30):
        with pytest.raises(NoConvergence):
            integrate(mp.log, ctx30, [(mpf("1.01"), 100)], (0, 1))

    def test_endpoints_never_evaluated(self, ctx30, monkeypatch):
        # the tail's s/sinh s is 0/0 at s = 0, so its (0, L) integral must
        # not evaluate it there: each pair of nodes, x and L - x, lies in
        # (0, L) when its distance x from the ends does
        seen = []
        fejer = quadrature.integrate_analytic

        def recording(f, a, b, ctx, bounds, bits):
            return fejer(lambda X: (seen.append(mp.ldexp(X, -bits)), f(X))[1], a, b, ctx,
                         bounds, bits)

        monkeypatch.setattr(quadrature, "integrate_analytic", recording)
        clear_memos()
        value = identities._tail_integral(ctx30)
        with ctx30.workprec():
            L = mp.log(1 + mp.sqrt(2))
            assert abs(value - (mp.pi ** 2 / 8 - L ** 2 / 2)) < ctx30.tolerance
            assert seen and all(0 < x < L for x in seen)


class TestFailureModes:
    def test_degenerate_interval_rejected(self, ctx30):
        with pytest.raises(DomainError):
            integrate(lambda x: x, ctx30, [(2, 2)], (1, 1))

    def test_nonfinite_integrand(self, ctx30):
        with pytest.raises(NonFiniteEvaluation):
            integrate(lambda s2, c2: mpf("nan"), ctx30, [(1, 1)])
        with pytest.raises(NonFiniteEvaluation):
            integrate(lambda s2, c2: mpf("inf") if s2 > mpf("0.5") else s2, ctx30, [(1, 1)])

    def test_non_integer_values_refused_once(self, ctx30):
        # the contract is integers: a finite mpf is refused too, by one check
        # of the exact sum once every node is evaluated
        calls = []
        points = integrate(lambda s2, c2: 1, ctx30, [(1, 1)]).evaluations
        with pytest.raises(NonFiniteEvaluation, match="not an integer"):
            integrate_even_periodic(lambda s2, c2: (calls.append(s2), mpf(1))[1], ctx30,
                                    [(1, 1)], 64)
        assert len(calls) == points
        calls.clear()
        points = integrate(lambda x: 1, ctx30, [(2, 2)], (0, 1)).evaluations
        with pytest.raises(NonFiniteEvaluation, match="not an integer"):
            integrate_analytic(lambda X: (calls.append(X), mpf(X))[1], 0, 1, ctx30, [(2, 2)], 64)
        assert 2 * len(calls) == points + 1


class TestDeterminism:
    def test_identical_reruns(self, ctx30):
        # 1/(2 + cos 2t); the second run rebuilds the sine tables from an
        # empty cache
        a = integrate(lambda s2, c2: 1 / (2 + c2 - s2), ctx30, PERIODIC_BOUNDS)
        _sine_table.cache_clear()
        b = integrate(lambda s2, c2: 1 / (2 + c2 - s2), ctx30, PERIODIC_BOUNDS)
        assert a.value == b.value
        assert a.evaluations == b.evaluations


def _periodic(formula, kappa, bound, ctx):
    """elliptic._periodic of an integrand written as a formula in
    (sin^2 t, cos^2 t)."""
    return elliptic._periodic(lambda K, W: on_integers(formula, W), kappa, bound, ctx)


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
        # the integrand is 2 atanh(z v)/v, z = sqrt(2) - 1, with branch points
        # at v = +-1/z; on E_6, |v| <= V = 1/2 + (6 + 1/6)/4 < 1/z, where its
        # series gives |2 atanh(z v)/v| <= 2 atanh(z V)/V < 2
        value = integrate(lambda v: _arcsinh_csch(L - mp.log(v)) / v, ctx, [(6, 2)],
                          (0, 1)).value
        _assert_relative(value, lambda: mp.pi ** 2 / 8 - _L() ** 2 / 2, ctx)

    def test_appendix_head(self, digits):
        # L^2 plus the log-moment series of identities._log_moment_series
        ctx = PrecisionContext(digits=digits)
        value = identities._head_integral(ctx)
        _assert_relative(value, lambda: mp.pi ** 2 / 8 + _L() ** 2 / 2, ctx)

    def test_haagerup_integral(self, digits):
        ctx = PrecisionContext(digits=digits)
        with ctx.workprec():
            value = _periodic(lambda s2, c2: c2 / mp.sqrt(1 + s2), mpf(2),
                              elliptic._cos2_over_root, ctx).value
        _assert_relative(value, lambda: 2 * mp.ellipk(-1) - mp.ellipe(-1), ctx)

    @pytest.mark.parametrize("x", ["0.25", "0.5", "0.9", "0.999"])
    def test_krivine_middle_integral(self, digits, x):
        ctx = PrecisionContext(digits=digits)
        with ctx.workprec():
            x = mpf(x)
            xp2 = (1 - x) * (1 + x)
            value = _periodic(lambda s2, c2: c2 / mp.sqrt(c2 + xp2 * s2), xp2,
                              elliptic._cos2_over_root, ctx).value

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

        res = integrate(g, ctx30, PERIODIC_BOUNDS)
        assert res.evaluations == len(seen) == len(set(seen))
        with ctx30.workprec():
            assert abs(res.value - mp.pi / (2 * mp.sqrt(3))) < ctx30.tolerance

    def test_nodes_are_squared_sines_and_cosines(self, ctx30):
        # exact at the ends, and sin^2 t + cos^2 t = 1 at every node
        seen = []
        res = integrate(lambda s2, c2: (seen.append((s2, c2)), 1)[1], ctx30, [(1, 1)])
        with ctx30.workprec():
            assert abs(res.value - mp.pi / 2) < ctx30.tolerance
        assert (0, 1) in seen and (1, 0) in seen
        with mp.workdps(ctx30.working_dps + quadrature.RULE_EXTRA_DPS):
            assert all(abs(s2 + c2 - 1) < mpf(10) ** -mp.dps for s2, c2 in seen)

    def test_point_cap_raises(self, ctx30):
        # |sin t| is even and of period pi but has a kink at 0, so no strip
        # about the real line holds it: the narrowest a caller could name is
        # refused before any evaluation
        seen = []
        with pytest.raises(NoConvergence,
                           match="^periodic trapezoid cannot reach .* within 65536 intervals"):
            integrate(lambda s2, c2: (seen.append(s2), mp.sqrt(s2))[1], ctx30,
                      [(mpf("1e-4"), 2)])
        assert seen == []


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
            prec = mp.prec
        distances, weights = _fejer_rule(n, prec)
        P2 = 2 * _table_bits(prec)
        ref_d, ref_w = _reference_fejer(n, dps)
        with mp.workdps(dps + 20):
            for D, V, rd, rw in zip(distances, weights, ref_d, ref_w, strict=True):
                d, w = mp.ldexp(D, -P2), mp.ldexp(V, -P2) / n
                assert abs(d - rd) < rd * mpf(10) ** -dps
                assert abs(w - rw) < mpf(10) ** -dps

    @pytest.mark.parametrize("dps, n", [(60, 8), (60, 2048), (220, 512), (520, 1024)])
    def test_fft_weights_within_stated_bound(self, dps, n):
        # the FFT's S_j within (n + 1)(sqrt(2) e H + 2) units 2^-P of the
        # O(n^2) reference, e = 2 log2(n), H = sum_{k<=n/2} 1/(2k-1); each
        # weight, an exact integer product, within 2^10 units of
        # (4 sin(theta_j)/n) S_j
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
                assert abs(mp.ldexp(weights[j - 1], -2 * P) / n - reference) <= (
                    mp.ldexp(2 ** 10, -P)), j

    @pytest.mark.parametrize("digits", [30, 120])
    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_fourier_coefficients(self, digits, n):
        ctx = PrecisionContext(digits=digits)
        with ctx.workprec():
            quarter_pi = mp.pi / 4
        # on E_4 about [0, pi/4], |Im t| < 0.74 and |cos t| > 1/3 (as in
        # test_secant_gives_log_tan_form), so |cos 4nt| <= cosh 3n
        res = integrate(lambda t: mp.cos(4 * n * t) / mp.cos(t), ctx,
                        [(4, 3 * mp.cosh(3 * n))], (0, quarter_pi))
        with ctx.workprec():
            assert abs(8 / mp.pi * res.value - fourier_a(n, ctx)) < ctx.tolerance

    def test_endpoints_never_evaluated(self, ctx30):
        seen = []

        def f(x):
            seen.append(x)
            return mp.exp(x)

        res = integrate(f, ctx30, EXP_BOUNDS, (0, 1))
        with ctx30.workprec():
            assert abs(res.value - (mp.e - 1)) < ctx30.tolerance
        assert seen and all(0 < x < 1 for x in seen)

    def test_each_point_evaluated_once(self, ctx30):
        seen = []

        def f(x):
            seen.append(x)
            return 1 / (2 + x)

        res = integrate(f, ctx30, [(2, 2)], (-1, 1))
        assert res.evaluations == len(seen) == len(set(seen))
        with ctx30.workprec():
            assert abs(res.value - mp.log(3)) < ctx30.tolerance

    def test_nonfinite_integrand(self, ctx30):
        with pytest.raises(NonFiniteEvaluation):
            integrate(lambda x: mpf("nan"), ctx30, [(2, 2)], (0, 1))
        with pytest.raises(NonFiniteEvaluation):
            integrate(lambda x: mpf("inf") if x > mpf("0.5") else x, ctx30, [(2, 2)], (0, 1))

    def test_interval_cap_raises(self, ctx30):
        # sqrt is not analytic at 0 (see TestEndpointSingularities): refused
        # before any evaluation
        seen = []
        with pytest.raises(NoConvergence,
                           match="^Fejer's second rule cannot reach .* within 2048 intervals"):
            integrate(lambda x: (seen.append(x), mp.sqrt(x))[1], ctx30, [(mpf("1.01"), 2)],
                      (0, 1))
        assert seen == []

    def test_identical_reruns(self, ctx30):
        # the second run rebuilds the weights from an empty cache
        a = integrate(lambda x: 1 / (1 + x * x), ctx30, [(2, 3)], (0, 1))
        _fejer_rule.cache_clear()
        b = integrate(lambda x: 1 / (1 + x * x), ctx30, [(2, 3)], (0, 1))
        assert a.value == b.value
        assert a.evaluations == b.evaluations

    def test_rule_and_tables_built_once_per_precision(self, ctx30):
        # a second call at the same precision reads every rule and table
        # from the caches
        _fejer_rule.cache_clear()
        _sine_table.cache_clear()
        integrate(mp.exp, ctx30, EXP_BOUNDS, (0, 1))
        misses = (_fejer_rule.cache_info().misses, _sine_table.cache_info().misses)
        assert misses[0] > 0 and misses[1] > 0
        integrate(mp.exp, ctx30, EXP_BOUNDS, (0, 1))
        assert (_fejer_rule.cache_info().misses, _sine_table.cache_info().misses) == misses


def _recording(monkeypatch):
    """Record (rule name, arguments, result) of every call of the two rules
    made through the quadrature module."""
    calls = []
    for name in ("integrate_analytic", "integrate_even_periodic"):
        def recording(*args, _rule=getattr(quadrature, name), _name=name):
            res = _rule(*args)
            calls.append((_name, args, res))
            return res
        monkeypatch.setattr(quadrature, name, recording)
    return calls


def _ellipse(a, b, rho):
    """64 points of the boundary of the Bernstein ellipse E_rho about [a, b]."""
    r, m = (b - a) / 2, (a + b) / 2
    return [m + r * (rho * mp.expjpi(mpf(j) / 32) + mp.expjpi(-mpf(j) / 32) / rho) / 2
            for j in range(64)]


def _strip(width):
    """64 points of the boundary of |Im t| < width, over one period pi."""
    return [mp.pi * j / 32 + side * width * 1j for j in range(32) for side in (1, -1)]


def _oracle_reference(k, closed):
    """closed(m) at the parameter m = 1 - k'^2 that the K and E oracles
    integrate, with k'^2 = (1 - k)(1 + k) rounded as they round it."""
    def reference(ctx):
        with ctx.workprec():
            kp2 = (1 - mpf(k)) * (1 + mpf(k))
        return closed(1 - kp2)
    return reference


def _q_power(kp2, power):
    """(c2 + kp2 s2)^power, the integrand of the K and E oracles."""
    return lambda s2, c2: (c2 + kp2 * s2) ** power


def _kp2(k):
    with mp.workdps(PrecisionContext(digits=30).working_dps):
        return (1 - mpf(k)) * (1 + mpf(k))


# every quadrature of verify_all, with the test oracles K(i) and E(i) and
# the K and E oracles at three moduli: each runs one rule call, and its
# value against the closed form of what that call integrates; but a_n's,
# each with its integrand as a formula that holds off the real axis
PROVED = {
    "tail": (identities._tail_integral, lambda ctx: mp.pi ** 2 / 8 - _L() ** 2 / 2,
             lambda s: s / mp.sinh(s)),
    "a_3": (lambda ctx: series.fourier_a_quadrature(3, ctx),
            lambda ctx: mp.pi / 8 * fourier_a(3, PrecisionContext(digits=ctx.digits + 20)) - _L(),
            None),
    "Haagerup": (elliptic.haagerup_bound_quadrature,
                 lambda ctx: 2 * mp.ellipk(-1) - mp.ellipe(-1),
                 lambda s2, c2: c2 / mp.sqrt(1 + s2)),
    "Krivine middle": (lambda ctx: elliptic.krivine_complex_middle(mpf("0.5"), ctx),
                       lambda ctx: 4 * mp.ellipe(mpf(1) / 4) - 3 * mp.ellipk(mpf(1) / 4),
                       lambda s2, c2: c2 / mp.sqrt(c2 + mpf(3) / 4 * s2)),
    "K(i)": (lambda ctx: _periodic(lambda s2, c2: 1 / mp.sqrt(1 + s2), mpf(2),
                                   lambda low, high, a: 1 / mp.sqrt(low), ctx),
             lambda ctx: mp.ellipk(-1),
             lambda s2, c2: 1 / mp.sqrt(1 + s2)),
    "E(i)": (lambda ctx: _periodic(lambda s2, c2: mp.sqrt(1 + s2), mpf(2),
                                   lambda low, high, a: mp.sqrt(high), ctx),
             lambda ctx: mp.ellipe(-1),
             lambda s2, c2: mp.sqrt(1 + s2)),
}
for _k in ("0.3", "0.9", "0.99"):
    PROVED[f"K({_k})"] = (lambda ctx, k=_k: elliptic.ellip_K_quadrature(k, ctx),
                          _oracle_reference(_k, mp.ellipk), _q_power(_kp2(_k), -0.5))
    PROVED[f"E({_k})"] = (lambda ctx, k=_k: elliptic.ellip_E_quadrature(k, ctx),
                          _oracle_reference(_k, mp.ellipe), _q_power(_kp2(_k), 0.5))


class TestProvedBounds:
    def test_declared_bounds_hold_on_the_boundary(self, monkeypatch):
        # |f| <= M at 64 points of the boundary of each declared ellipse or
        # strip, for every integrand of PROVED but a_n's (below); E's and
        # Haagerup's bounds are attained at Re t = 0, so up to rounding.  M
        # is taken at 64 bits, and the rules' slack 1 + 2^-20 covers an M
        # short by up to 2^-21 (quadrature._intervals).
        # The integrands run on integers, on real nodes only: there each
        # must match its formula in PROVED, which is sampled off the axis
        ctx = PrecisionContext(digits=30)
        calls = _recording(monkeypatch)
        clear_memos()
        slack = mpf(2) ** -21
        close = mpf(10) ** -(ctx.working_dps - 5)
        for name, (run, _, formula) in PROVED.items():
            if name == "a_3":
                continue
            del calls[:]
            with ctx.workprec():
                run(ctx)
            [(rule, args, _)] = calls
            with mp.workdps(ctx.working_dps):
                if rule == "integrate_analytic":
                    f, a, b, _, bounds, bits = args
                    for x in ((b - a) / 7, 3 * (b - a) / 7):
                        X = int(mp.nint(mp.ldexp(x, bits)))
                        x = mp.ldexp(X, -bits)
                        assert abs(mp.ldexp(f(X), -bits)
                                   - (formula(a + x) + formula(b - x))) < close, name
                    f = formula
                    boundary = lambda p, a=a, b=b: _ellipse(a, b, p)
                else:
                    g, _, bounds, bits = args
                    for t in (mp.pi / 7, 3 * mp.pi / 7):
                        s2, c2 = (int(mp.nint(mp.ldexp(v, bits)))
                                  for v in (mp.sin(t) ** 2, mp.cos(t) ** 2))
                        assert abs(mp.ldexp(g(s2, c2), -bits) - formula(
                            mp.ldexp(s2, -bits), mp.ldexp(c2, -bits))) < close, name
                    f = lambda t: formula(mp.sin(t) ** 2, mp.cos(t) ** 2)
                    boundary = _strip
                for p, M in bounds:
                    assert max(abs(f(x)) for x in boundary(p)) <= M * (1 + slack), (name, p, M)

    @pytest.mark.parametrize("n", [0, 1, 3, 8, 64])
    def test_coefficient_bounds_hold_on_the_boundary(self, n, monkeypatch):
        # a_n's integrand h_n through T_4n(c) = cos(8n atan u), which holds
        # off the real axis, where the library's integer doubling does not
        # run; the library's takes a pair of points, u = x and b - x
        ctx = PrecisionContext(digits=30)
        calls = _recording(monkeypatch)
        series.fourier_a_quadrature(n, ctx)
        [(_, (f, a, b, _, bounds, bits), _)] = calls
        with mp.workdps(ctx.working_dps):
            def h(u):
                t = mp.cos(8 * n * mp.atan(u))
                return (2 * (t - 1) / (1 - u * u)
                        + 2 * mp.sqrt(2) * ((-1) ** n * t - 1) / (1 + 2 * u - u * u))

            for x in (0, (b - a) / 7):
                X = int(mp.nint(mp.ldexp(x, bits)))
                x = mp.ldexp(X, -bits)
                assert abs(h(a + x) + h(b - x) - mp.ldexp(f(X), -bits)) < (
                    mpf(10) ** -(ctx.working_dps - 5))
            assert [rho for rho, _ in bounds] == [2, 4, 8, 16]
            for rho, M in bounds:
                assert max(abs(h(u)) for u in _ellipse(a, b, rho)) <= M, rho

    @pytest.mark.parametrize("digits", [10, 20, 50, 200, 500])
    def test_error_within_bound(self, digits, monkeypatch):
        # |value - closed form| <= error_bound <= ctx.working_tolerance, up to
        # the rule's rounding, RULE_EXTRA_DPS digits finer than its target
        ctx = PrecisionContext(digits=digits)
        calls = _recording(monkeypatch)
        clear_memos()
        rounding = mpf(10) ** -(ctx.working_dps + 5)
        for name, (run, closed, _) in PROVED.items():
            del calls[:]
            with ctx.workprec():
                run(ctx)
            [(_, _, res)] = calls
            with mp.workdps(ctx.working_dps + 40):
                assert res.error_bound <= ctx.working_tolerance, name
                assert abs(res.value - closed(ctx)) <= res.error_bound + rounding, name

    def test_fewest_intervals_that_a_pair_proves(self, ctx30):
        # Fejer: n - 1 evaluations at the smallest power of 2 whose bound
        # meets the target; the trapezoid: n + 1
        # (r = 1/2 for [0, 1]), the bounds computed here at 80 digits
        tol = ctx30.working_tolerance
        bounds = [(2, 5)] + EXP_BOUNDS  # |exp x| <= e^(1/2 + 5/8) < 5 on E_2
        res = integrate(mp.exp, ctx30, bounds, (0, 1))
        n = res.evaluations + 1

        def fejer(n):
            return min(32 * M * mpf(rho) ** (1 - n) / (15 * (rho - 1)) for rho, M in bounds)
        assert n & (n - 1) == 0
        # the bound is taken at 64 bits, with slack 1 + 2^-20 that only loosens it
        assert fejer(n) <= res.error_bound <= fejer(n) * (1 + mpf(2) ** -19)
        assert fejer(n) < tol <= fejer(n // 2)
        res = integrate(lambda s2, c2: 1 / (2 + c2 - s2), ctx30, PERIODIC_BOUNDS)
        n = res.evaluations - 1
        [(width, M)] = PERIODIC_BOUNDS
        assert n & (n - 1) == 0
        trapezoid = mp.pi * M / mp.expm1(4 * n * width)
        assert trapezoid <= res.error_bound <= trapezoid * (1 + mpf(2) ** -19)
        assert mp.pi * M / mp.expm1(4 * n * width) < tol <= mp.pi * M / mp.expm1(2 * n * width)

    @pytest.mark.parametrize("bounds", [[], [(1, 1)], [(mpf("0.5"), 1)], [(2, 0)],
                                        [(2, -1)], [(2, mp.inf)], [(2, 1), (1, 1)]])
    def test_bad_ellipse_bounds_rejected(self, bounds, ctx30):
        seen = []
        with pytest.raises(DomainError):
            integrate(lambda x: (seen.append(x), x)[1], ctx30, bounds, (0, 1))
        assert seen == []

    @pytest.mark.parametrize("bounds", [[], [(0, 1)], [(-1, 1)], [(1, 0)], [(1, mp.nan)]])
    def test_bad_strip_bounds_rejected(self, bounds, ctx30):
        seen = []
        with pytest.raises(DomainError):
            integrate(lambda s2, c2: (seen.append(s2), s2)[1], ctx30, bounds)
        assert seen == []

    def test_entire_integrand_at_kappa_one(self, ctx30, monkeypatch):
        # k = 0, and x so small that 1 - x^2 rounds to 1: the integrands are
        # 1 and cos^2 t, and the rule takes its fewest intervals, n = 4
        calls = _recording(monkeypatch)
        x = mpf("1e-30")
        with ctx30.workprec():
            half_pi = mp.pi / 2
            assert (1 - x) * (1 + x) == 1
        assert abs(elliptic.ellip_K_quadrature(0, ctx30) - half_pi) < ctx30.tolerance
        assert abs(elliptic.ellip_E_quadrature(0, ctx30) - half_pi) < ctx30.tolerance
        middle = elliptic.krivine_complex_middle(x, ctx30)
        assert abs(middle - x * half_pi / 2) < x * ctx30.tolerance
        assert [res.evaluations for _, _, res in calls] == [5, 5, 5]
