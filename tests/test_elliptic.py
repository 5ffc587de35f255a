import time

import pytest
from mpmath import mp, mpf

from kgconst import (
    DomainError,
    NoConvergence,
    PrecisionContext,
    ellip_E,
    ellip_E_imag,
    ellip_K,
    ellip_K_imag,
    haagerup_bound,
    kc_upper,
    krivine_complex_f,
    solve_x0,
)
from kgconst import elliptic, quadrature
from kgconst.elliptic import (
    ellip_E_quadrature,
    ellip_K_quadrature,
    haagerup_bound_quadrature,
    krivine_complex_middle,
    legendre_lhs,
)

from integrands import on_integers

K_GRID = ["0.05", "0.3", "0.5", "0.7", "0.9", "0.99"]


# Defining integrals of K(i) and E(i), functions of sin^2 t, by the periodic
# trapezoid rule: a route that shares nothing with the AGM (mpmath's ellipk
# and ellipe run the AGM too).
# 1 + sin^2 t = cos^2 t + 2 sin^2 t, bounded on strips by elliptic._periodic
def ellip_K_imag_quadrature(ctx):
    with ctx.workprec():
        return elliptic._periodic(
            lambda K, W: on_integers(lambda s2, c2: 1 / mp.sqrt(1 + s2), W), mpf(2),
            lambda low, high, a: 1 / mp.sqrt(low), ctx).value


def ellip_E_imag_quadrature(ctx):
    with ctx.workprec():
        return elliptic._periodic(
            lambda K, W: on_integers(lambda s2, c2: mp.sqrt(1 + s2), W), mpf(2),
            lambda low, high, a: mp.sqrt(high), ctx).value


class TestSpecialValues:
    def test_k_zero(self, ctx30):
        with ctx30.workprec():
            half_pi = mp.pi / 2
        assert abs(ellip_K(0, ctx30) - half_pi) < ctx30.tolerance
        assert abs(ellip_E(0, ctx30) - half_pi) < ctx30.tolerance

    def test_E_at_one_exact(self, ctx30):
        assert ellip_E(1, ctx30) == 1

    def test_domain_errors(self, ctx30):
        with pytest.raises(DomainError):
            ellip_K(1, ctx30)
        with pytest.raises(DomainError):
            ellip_K(-0.1, ctx30)
        with pytest.raises(DomainError):
            ellip_E(1.5, ctx30)
        # k = 0 leaves K(k') infinite at the complement k' = 1
        for k in (1, -0.1, 0):
            with pytest.raises(DomainError):
                legendre_lhs(k, ctx30)

    @pytest.mark.parametrize("k", [1, 1.5, -0.5])
    def test_oracle_domain_errors(self, k, ctx30):
        # raised before any quadrature: at k = 1 the K integrand is infinite
        # at pi/2 and the E integrand |cos t| is not analytic there
        with pytest.raises(DomainError):
            ellip_K_quadrature(k, ctx30)
        with pytest.raises(DomainError):
            ellip_E_quadrature(k, ctx30)


class TestAgmVsReferences:
    @pytest.mark.parametrize("k", K_GRID)
    def test_against_mpmath(self, k, ctx30):
        with mp.workdps(60):
            m = mpf(k) ** 2
            ref_K = mp.ellipk(m)
            ref_E = mp.ellipe(m)
        assert abs(ellip_K(mpf(k), ctx30) - ref_K) < mpf("1e-35")
        assert abs(ellip_E(mpf(k), ctx30) - ref_E) < mpf("1e-35")

    @pytest.mark.parametrize("digits", [20, 60, 200])
    @pytest.mark.parametrize("k", ["2^-60", "0.1", "1/sqrt(2)", "0.999", "1 - 2^-60"])
    def test_integer_agm_keeps_relative_precision(self, k, digits):
        # K, E and E - k'^2 K, each relative, at both ends: the last cancels
        # as k -> 0, and k' = 2^-29.5 at 1 - 2^-60
        ctx = PrecisionContext(digits=digits)
        with ctx.workprec():
            k = {"2^-60": mp.ldexp(1, -60), "1/sqrt(2)": 1 / mp.sqrt(2),
                 "1 - 2^-60": 1 - mp.ldexp(1, -60)}.get(k) or mpf(k)
            values = elliptic._agm_KE(k)
        with mp.workdps(ctx.working_dps + 40):
            K, E = mp.ellipk(k * k), mp.ellipe(k * k)
            for value, reference in zip(values, (K, E, E - (1 - k) * (1 + k) * K)):
                assert abs(value / reference - 1) < mpf(10) ** -(ctx.working_dps - 1)

    @pytest.mark.parametrize("k", ["0.3", "0.7", "0.999999"])
    def test_against_defining_integral(self, k, ctx30):
        kk = mpf(k)
        assert abs(ellip_K(kk, ctx30) - ellip_K_quadrature(kk, ctx30)) < mpf("1e-25")
        assert abs(ellip_E(kk, ctx30) - ellip_E_quadrature(kk, ctx30)) < mpf("1e-25")

    def test_near_one_window_consistent(self, ctx30):
        # values straddling the quadrature fallback window agree smoothly
        inside = ellip_E(mpf(1) - mpf("1e-6"), ctx30)
        outside = ellip_E(mpf(1) - mpf("2e-5"), ctx30)
        assert inside < outside
        assert abs(inside - 1) < mpf("1e-4")


class TestLegendreCertificate:
    @pytest.mark.parametrize("k", K_GRID)
    def test_residual(self, k, ctx30):
        k = mpf(k)
        with ctx30.workprec():
            assert abs(legendre_lhs(k, ctx30) - mp.pi / 2) < mpf("1e-25")

    def test_self_complementary_modulus(self, ctx30):
        with ctx30.workprec():
            k = 1 / mp.sqrt(2)
            assert abs(legendre_lhs(k, ctx30) - mp.pi / 2) < mpf("1e-25")


class TestImaginaryModulus:
    def test_reduction_vs_quadrature(self, ctx30):
        assert abs(ellip_K_imag(ctx30) - ellip_K_imag_quadrature(ctx30)) < mpf("1e-25")
        assert abs(ellip_E_imag(ctx30) - ellip_E_imag_quadrature(ctx30)) < mpf("1e-25")

    def test_against_mpmath_negative_parameter(self, ctx30):
        # K(i), E(i) with modulus i correspond to parameter m = -1
        with mp.workdps(60):
            ref_K = mp.ellipk(-1)
            ref_E = mp.ellipe(-1)
        assert abs(ellip_K_imag(ctx30) - ref_K) < mpf("1e-35")
        assert abs(ellip_E_imag(ctx30) - ref_E) < mpf("1e-35")


class TestHaagerupBound:
    def test_value(self, ctx15):
        assert mp.nstr(haagerup_bound(ctx15), 15) == "1.40457593466374"

    def test_dual_route(self, ctx30):
        assert abs(haagerup_bound(ctx30) - haagerup_bound_quadrature(ctx30)) < mpf("1e-25")


class TestRootSolve:
    def test_bracket_signs(self, ctx30):
        assert krivine_complex_f(mpf("0.01"), ctx30) * krivine_complex_f(mpf("0.99"), ctx30) < 0

    def test_middle_expression_equality(self, ctx30):
        # x * integral form equals the closed elliptic combination
        for x in (mpf("0.25"), mpf("0.5"), mpf("0.8")):
            closed = (ellip_E(x, ctx30) - (1 - x * x) * ellip_K(x, ctx30)) / x
            assert abs(krivine_complex_middle(x, ctx30) - closed) < mpf("1e-25")

    def test_root_value_and_residual(self, ctx40):
        root = solve_x0(ctx40)
        assert mp.nstr(root.x0, 16) == "0.8125578588214724"
        assert root.residual < ctx40.tolerance
        assert root.iterations > 0
        lo, hi = elliptic.ROOT_BRACKET
        assert lo < root.x0 < hi
        assert abs(lo - mpf("0.01")) < mpf("1e-15")
        assert abs(hi - mpf("0.99")) < mpf("1e-15")

    def test_precision_consistency(self):
        lo = solve_x0(PrecisionContext(digits=20)).x0
        hi = solve_x0(PrecisionContext(digits=40)).x0
        assert abs(lo - hi) < mpf("1e-20")

    @pytest.mark.parametrize("digits", [60, 200])
    def test_small_x_keeps_its_digits(self, digits):
        # E - (1 - x^2) K is about pi x^2 / 4: formed from E and K it would
        # lose 2 log10(1/x) digits; x is built at working precision, since a
        # 53-bit 1e-20 would hide the loss
        ctx = PrecisionContext(digits=digits)
        with ctx.workprec():
            x = mpf(10) ** -20
        f = krivine_complex_f(x, ctx)
        lhs = elliptic.krivine_complex_lhs(x, ctx)
        with mp.workdps(2 * digits + 60):
            m = x * x
            closed = (mp.ellipe(m) - (1 - m) * mp.ellipk(m)) / x
            assert abs(f - (closed - mp.pi * (x + 1) / 8)) < ctx.tolerance
            assert abs(lhs - closed) < ctx.tolerance * closed

    def test_domain_guard(self, ctx30):
        with pytest.raises(DomainError):
            krivine_complex_f(0, ctx30)
        with pytest.raises(DomainError):
            krivine_complex_f(1, ctx30)


class TestUpperLimit:
    def test_value_and_ordering(self, ctx30):
        kc = kc_upper(ctx30)
        assert mp.nstr(kc, 6) == "1.40491"
        # the root-equation limit sits strictly above Haagerup's bound
        assert kc > haagerup_bound(ctx30)


class TestNearOne:
    @pytest.mark.parametrize("gap", ["1e-9", "1e-15", "1e-20"])
    def test_against_mpmath(self, gap, ctx30):
        # reference at the k the functions receive: K is ill-conditioned
        # near 1, so an unrounded k would measure the rounding, not the code
        with ctx30.workprec():
            k = 1 - mpf(gap)
        ref_K, ref_E = mp.ellipk(k * k), mp.ellipe(k * k)
        assert abs(ellip_K(k, ctx30) / ref_K - 1) < mpf("1e-35")
        assert abs(ellip_E(k, ctx30) / ref_E - 1) < mpf("1e-35")

    @pytest.mark.parametrize("oracle", [ellip_K_quadrature, ellip_E_quadrature,
                                        krivine_complex_middle])
    def test_trapezoid_oracle_fails_fast(self, oracle, ctx30):
        # the error bound needs 2^18 intervals, past PERIODIC_MAX_INTERVALS = 2^16
        start = time.perf_counter()
        with pytest.raises(NoConvergence, match="needs about 262144 intervals"):
            oracle(1 - mpf("1e-8"), ctx30)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("digits, kp", [(30, "3e-4"), (10, "1.5e-4")])
    @pytest.mark.parametrize("oracle, agm", [(ellip_K_quadrature, ellip_K),
                                             (ellip_E_quadrature, ellip_E)])
    def test_trapezoid_oracle_returns_within_its_bound_or_fails_fast(
            self, digits, kp, oracle, agm, monkeypatch):
        # moduli whose integrals could reach 10^-digits but not the rule's
        # target 10^-working_dps within 2^16 intervals: each oracle returns
        # within its error bound or raises before evaluating anything
        ctx = PrecisionContext(digits=digits)
        with ctx.workprec():
            k = mp.sqrt(1 - mpf(kp) ** 2)
        results = []
        rule = quadrature.integrate_even_periodic
        monkeypatch.setattr(quadrature, "integrate_even_periodic",
                            lambda *args: (results.append(rule(*args)), results[-1])[1])
        start = time.perf_counter()
        try:
            value = oracle(k, ctx)
        except NoConvergence:
            assert results == []
            assert time.perf_counter() - start < 0.1
        else:
            with ctx.workprec():
                assert abs(value - agm(k, ctx)) <= (
                    results[0].error_bound + abs(value) * mpf(10) ** -(ctx.working_dps - 1))

    def test_trapezoid_oracle_reaches_its_last_levels(self, ctx30):
        # 2^15 intervals, just inside the cap
        k = "0.999999"
        assert abs(ellip_K_quadrature(k, ctx30) / ellip_K(k, ctx30) - 1) < mpf("1e-30")


def record_solve(monkeypatch, digits):
    """solve_x0 at the given digits, with every argument passed to f."""
    points = []
    f = elliptic.krivine_complex_f

    def recording(x, ctx):
        points.append(mpf(x))
        return f(x, ctx)

    monkeypatch.setattr(elliptic, "krivine_complex_f", recording)
    return solve_x0(PrecisionContext(digits=digits)), points


def test_solve_computes_bracket_ends_once(monkeypatch):
    root, points = record_solve(monkeypatch, 50)
    lo, hi = elliptic.ROOT_BRACKET
    assert points.count(lo) == 1
    assert points.count(hi) == 1
    # every evaluation computed, except the residual gate's at x0
    assert root.iterations == len(points) - 1


def test_solve_runs_one_agm_per_evaluation(monkeypatch):
    runs = []
    agm = elliptic._agm_KE
    monkeypatch.setattr(elliptic, "_agm_KE", lambda k: (runs.append(k), agm(k))[1])
    root = solve_x0(PrecisionContext(digits=50))
    # K and E from one run per evaluation of f, plus the residual gate's at x0
    assert len(runs) == root.iterations + 1


@pytest.mark.parametrize("digits", [10, 20, 50, 500])
def test_solve_evaluates_no_point_twice(monkeypatch, digits):
    root, points = record_solve(monkeypatch, digits)
    assert len(set(points)) == len(points)
    # every call of f but the residual gate's at x0 found the root
    assert root.iterations == len(points) - 1


def test_bracket_ends_of_one_sign_reach_the_root(monkeypatch):
    # the ends' signs are not checked: the residual gate certifies x0
    ctx = PrecisionContext(digits=50)
    x0 = solve_x0(ctx).x0
    lo, hi = mpf("0.01"), mpf("0.02")
    assert krivine_complex_f(lo, ctx) * krivine_complex_f(hi, ctx) > 0
    monkeypatch.setattr(elliptic, "ROOT_BRACKET", (lo, hi))
    root = solve_x0(ctx)
    assert root.residual < ctx.tolerance
    assert abs(root.x0 - x0) < ctx.tolerance
