import time
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from conftest import clear_memos
from kgconst import (
    DomainError,
    IdentityId,
    NoConvergence,
    PrecisionContext,
    const_L,
    const_pi,
    double_series,
    fourier_a,
    fourier_a_quadrature,
    khintchine_partial,
    legendre_chi2,
    limit_S,
    partial_sums,
    verify,
    verify_all,
)
from kgconst import cli, identities, quadrature, series
from kgconst.series import CHI2_MAX_TERMS, _terms_to_tolerance, inner_term_magnitude
from kgconst.core import GUARD_BITS


def _term(k):
    """t_k = (-1)^k (1/(4k-1) - 1/(4k-3)), the k-th inner term, at the
    current precision."""
    return (-1) ** k * (mpf(1) / (4 * k - 1) - mpf(1) / (4 * k - 3))


def _reference_sum(first, last, dps):
    """Plain mpf loop: sum_{k=first}^{last} t_k at dps digits."""
    with mp.workdps(dps):
        acc = mpf(0)
        for k in range(first, last + 1):
            acc += _term(k)
        return acc


def _reference_double_partial(N, dps):
    """Plain mpf loop: sum_{n=1}^{N} T_n^2 at dps digits, T_0 = S."""
    with mp.workdps(dps):
        tail = mp.sqrt(2) / 2 * mp.log(1 + mp.sqrt(2))
        acc = mpf(0)
        for n in range(1, N + 1):
            tail -= _term(n)
            acc += tail * tail
        return acc


def _tail(n, ctx):
    """T_n = S - S_n, from the closed-form limit and the partial sum."""
    with ctx.workprec():
        return limit_S(ctx) - partial_sums([n], ctx)[0]


def _recurrence_residual(n, ctx):
    """|a_n - a_{n-1} - (8 sqrt(2)/pi)(-1)^n [1/(4n-3) - 1/(4n-1)]| at the
    working precision."""
    with ctx.workprec():
        step = fourier_a(n, ctx) - fourier_a(n - 1, ctx)
        return abs(step - 8 * mp.sqrt(2) / mp.pi * (-1) ** n
                   * (mpf(1) / (4 * n - 3) - mpf(1) / (4 * n - 1)))


def _counting_loop_N(tol, ctx):
    """The closed-form term count, found one term at a time instead."""
    needed = 1
    while inner_term_magnitude(needed + 1, ctx) >= tol:
        needed += 1
    return needed


class TestInnerTerm:
    def test_first_terms_exact(self, ctx30):
        # the loop's first terms, t_1 = 2/3 and t_2 = -2/35
        s1, s2 = partial_sums([1, 2], ctx30)
        assert abs(s1 - mpf(2) / 3) < mpf("1e-38")
        assert abs(s2 - s1 - mpf(-2) / 35) < mpf("1e-38")

    def test_index_zero_rejected(self, ctx30):
        with pytest.raises(DomainError):
            inner_term_magnitude(0, ctx30)

    @given(k=st.integers(min_value=1, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_magnitude_closed_form(self, k):
        # |t_k| against the step S_k - S_{k-1} of the summation loop
        ctx = PrecisionContext(digits=30)
        previous, current = partial_sums([k - 1, k], ctx)
        assert abs(abs(current - previous) - inner_term_magnitude(k, ctx)) < mpf("1e-38")


class TestPartialSums:
    def test_small_sums_exact(self, ctx30):
        assert partial_sums([0], ctx30)[0] == 0
        assert abs(partial_sums([1], ctx30)[0] - mpf(2) / 3) < mpf("1e-38")
        assert abs(partial_sums([2], ctx30)[0] - mpf(64) / 105) < mpf("1e-38")

    @pytest.mark.parametrize("squared", [False, True])
    def test_no_indices(self, squared, ctx30):
        assert partial_sums([], ctx30, squared=squared) == []

    def test_large_sum_within_remainder_bound(self, ctx30):
        n = 10 ** 4
        bound = mpf(2) / ((4 * n + 1) * (4 * n + 3))
        assert abs(partial_sums([n], ctx30)[0] - limit_S(ctx30)) <= bound


class TestFixedPointKernel:
    """The integer kernel against plain mpf loops run 20 digits deeper."""

    @given(digits=st.integers(min_value=12, max_value=200),
           n=st.integers(min_value=1, max_value=3000))
    @settings(max_examples=25, deadline=None)
    def test_partial_sum_matches_mpf_loop(self, digits, n):
        ctx = PrecisionContext(digits=digits)
        reference = _reference_sum(1, n, ctx.working_dps + 20)
        assert abs(partial_sums([n], ctx)[0] - reference) < mpf(10) ** -(ctx.working_dps - 1)

    @given(digits=st.integers(min_value=12, max_value=200),
           N=st.integers(min_value=1, max_value=3000))
    @settings(max_examples=25, deadline=None)
    def test_double_partial_matches_mpf_loop(self, digits, N):
        ctx = PrecisionContext(digits=digits)
        reference = _reference_double_partial(N, ctx.working_dps + 20)
        value = partial_sums([N], ctx, squared=True)[0]
        assert abs(value - reference) < mpf(10) ** -(ctx.working_dps - 1)

    def test_many_indices_in_one_pass(self, ctx30):
        # the fixed-point scale depends on the last index, so only the
        # working-precision digits are shared with one-index calls
        eps = mpf(10) ** -(ctx30.working_dps - 1)
        indices = [0, 1, 2, 10, 10, 11, 500]
        plain = partial_sums(indices, ctx30)
        squared = partial_sums(indices[1:], ctx30, squared=True)
        assert isinstance(plain, list) and isinstance(squared, list)
        for n, value in zip(indices, plain):
            assert abs(value - partial_sums([n], ctx30)[0]) < eps
        for N, value in zip(indices[1:], squared):
            assert abs(value - partial_sums([N], ctx30, squared=True)[0]) < eps

    def test_indices_must_ascend(self, ctx30):
        with pytest.raises(DomainError):
            partial_sums([3, 2], ctx30)
        with pytest.raises(DomainError):
            partial_sums([0, 1], ctx30, squared=True)

    def test_closed_form_count_is_minimal(self):
        # both bounds hold at the count and fail one term earlier, compared
        # exactly, at counts up to about 10^250 terms
        for digits in range(10, 501):
            scale = 10 ** digits
            N = _terms_to_tolerance(digits, squared=True)
            assert 3 * (4 * N + 1) ** 3 > scale >= 3 * (4 * N - 3) ** 3
            n = _terms_to_tolerance(digits)
            assert (4 * n + 1) * (4 * n + 3) > 2 * scale >= (4 * n - 3) * (4 * n - 1)

    def test_closed_form_count_equals_counting_loop_at_1e10(self):
        ctx = PrecisionContext(digits=10)
        assert _terms_to_tolerance(10) == _counting_loop_N(ctx.tolerance, ctx)


class TestLimit:
    def test_value(self):
        ctx = PrecisionContext(digits=10)
        assert mp.nstr(limit_S(ctx), 8) == "0.62322524"
        with ctx.workprec():
            closed = mp.sqrt(2) / 2 * mp.log(1 + mp.sqrt(2))
        assert abs(limit_S(ctx) - closed) < ctx.tolerance

    def test_alternating_envelope(self, ctx30):
        S = limit_S(ctx30)
        for n in range(1, 51):
            gap = S - partial_sums([n], ctx30)[0]
            # remainder has the sign of the first omitted term and is
            # bounded by it in magnitude
            first_omitted = _term(n + 1)
            assert abs(gap) <= abs(first_omitted)
            assert mp.sign(gap) == mp.sign(first_omitted)

    def test_tail_formula_consistent_at_zero(self, ctx30):
        lhs = 8 * mp.sqrt(2) / mp.pi * limit_S(ctx30)
        rhs = 8 / const_pi(ctx30) * const_L(ctx30)
        assert abs(lhs - rhs) < mpf("1e-35")


class TestInnerTail:
    def test_tail_at_zero_is_limit(self, ctx30):
        assert abs(_tail(0, ctx30) - limit_S(ctx30)) < mpf("1e-38")

    def test_t1_negative_pin(self, ctx30):
        assert _tail(1, ctx30) < 0

    def test_t1_against_accelerated_oracle(self, ctx30):
        # independent tail oracle: mpmath series acceleration of the raw sum
        with mp.workdps(40):
            oracle = mp.nsum(
                lambda k: (-1) ** k * (mpf(1) / (4 * k - 1) - mpf(1) / (4 * k - 3)),
                [2, mp.inf])
        assert abs(_tail(1, ctx30) - oracle) < mpf("1e-30")

    def test_closed_vs_direct_routes(self):
        # T_n against sum_{k=n+1}^{m} t_k, m the first index with
        # |t_{m+1}| < 1e-8, which the alternating remainder bound puts
        # within |t_{m+1}| of T_n; the reference tails for n = 200 .. 0
        # come from one cumulative pass of m terms
        ctx = PrecisionContext(digits=20)
        m = _counting_loop_N(mpf("1e-8"), ctx)
        bound = inner_term_magnitude(m + 1, ctx)
        dps = ctx.working_dps + 20
        with mp.workdps(dps):
            reference = [_reference_sum(201, m, dps)]
            for k in range(200, 0, -1):
                reference.append(reference[-1] + _reference_sum(k, k, dps))
        reference.reverse()  # reference[n] = sum_{k=n+1}^{m} t_k
        with ctx.workprec():
            for n in range(0, 201):
                assert abs(_tail(n, ctx) - reference[n]) <= bound, n

    def test_smooth_magnitude_matches_closed(self, ctx30):
        # |a_n| pi/(8 sqrt(2)) = I(n), summed by the accelerator
        for n in (1, 3, 10, 250):
            closed = abs(_tail(n, ctx30))
            summed = abs(fourier_a(n, ctx30)) * mp.pi / (8 * mp.sqrt(2))
            assert abs(closed - summed) < mpf("1e-35")


class TestFourierCoefficients:
    def test_a0(self, ctx30):
        a0 = fourier_a(0, ctx30)
        assert mp.nstr(a0, 8) == "2.2443994"

    def test_a1_sign_and_value(self, ctx30):
        a1 = fourier_a(1, ctx30)
        expected = 8 * mp.sqrt(2) / mp.pi * (limit_S(ctx30) - mpf(2) / 3)
        assert abs(a1 - expected) < mpf("1e-35")
        assert mp.nstr(a1, 5) == "-0.15644"

    def test_closed_form_vs_quadrature(self):
        # both parities: the fold about pi/8 adds its second term with sign
        # (-1)^n
        for ctx in (PrecisionContext(digits=30), PrecisionContext(digits=120)):
            for n in range(0, 9):
                closed = fourier_a(n, ctx)
                quad = fourier_a_quadrature(n, ctx)
                assert abs(closed - quad) < ctx.tolerance, (ctx.digits, n)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 12, 255, 800])
    def test_chebyshev_doubling_within_stated_bound(self, m):
        # T_m(c) = cos(m arccos c) for c read exactly as an integer scaled by
        # 2^W, W = prec + 2 bitlength(m) + GUARD_BITS, off by under 4^k/3
        # units 2^-W, so under 2^-(prec + GUARD_BITS)
        with mp.workdps(60):
            prec = mp.prec
            W = prec + 2 * m.bit_length() + GUARD_BITS
            cs = [int(mp.ldexp(mpf(c), W)) for c in ("-1", "-0.3", "0.5", "0.98", "0.9999", "1")]
        values = [series._chebyshev_t(m, c, W) for c in cs]
        with mp.workdps(120):
            for c, v in zip(cs, values):
                exact = mp.cos(m * mp.acos(mp.ldexp(c, -W)))
                assert abs(mp.ldexp(v, -W) - exact) < mp.ldexp(1, -(prec + GUARD_BITS)), c

    @pytest.mark.parametrize("digits", [30, 120])
    @pytest.mark.parametrize("n", [64, 200])
    def test_quadrature_at_large_index(self, digits, n):
        # T_4n(c) by doubling, over the 9 and 10 bits of 4n; near u = 0 the
        # rounding of c costs up to 2 log10(4n) of the rule's 10 extra digits
        ctx = PrecisionContext(digits=digits)
        closed = fourier_a(n, ctx)
        quad = fourier_a_quadrature(n, ctx)
        with ctx.workprec():
            assert abs(closed - quad) < ctx.tolerance

    def test_decay_envelope(self, ctx30):
        for n in range(1, 60):
            bound = 8 * mp.sqrt(2) / mp.pi * inner_term_magnitude(n + 1, ctx30)
            assert abs(fourier_a(n, ctx30)) <= bound

    def test_no_partial_sums(self, ctx30, monkeypatch):
        # a_n sums the tail |T_n| from its own terms, so the recurrence
        # check does not telescope the sums S_n that would build it
        def forbidden(*args, **kwargs):
            raise AssertionError("partial sums used")

        monkeypatch.setattr(series, "_fixed_point_sums", forbidden)
        assert _recurrence_residual(7, ctx30) < ctx30.tolerance

    @pytest.mark.parametrize("digits", [20, 200])
    @pytest.mark.parametrize("n", [1, 7, 10 ** 6, 10 ** 9])
    def test_integer_cvz_matches_mpmath(self, digits, n):
        # the fixed-point kernel against mp.cohen_alt on the same terms;
        # mp.cohen_alt rounds d and every weight product, so the two agree to
        # within 2^10 units in the last place, relatively at every n
        with PrecisionContext(digits=digits).workprec():
            exact = series._inner_tail(n)
            terms = [(-1) ** j * mpf(2) / ((4 * (n + j) + 1) * (4 * (n + j) + 3))
                     for j in range(int(1.31 * mp.dps) + 2)]
            floating = mp.cohen_alt().update(terms)[0]
            assert abs(exact / floating - 1) < mp.ldexp(1, 10 - mp.prec)

    def test_cvz_weights_exact(self):
        # every division of the e_k recurrence leaves no remainder, for every
        # term count up to the one at 500 digits, and d = T_N(3)
        top = int(1.31 * PrecisionContext(digits=500).working_dps) + 2
        for N in range(1, top + 1):
            weights, d = series._cvz_weights.__wrapped__(N)
            e, c = -1, -d
            for k in range(N):
                c = e - c
                assert weights[k] == c, (N, k)
                e, rest = divmod(2 * (k + N) * (k - N) * e, (2 * k + 1) * (k + 1))
                assert rest == 0, (N, k)
            with mp.workprec(3 * N + 64):
                assert d == mp.nint(mp.cosh(N * mp.acosh(3))), N

    def test_large_index_is_fast(self, ctx30):
        start = time.perf_counter()
        a = fourier_a(10 ** 6, ctx30)
        assert time.perf_counter() - start < 0.05
        bound = 8 * mp.sqrt(2) / mp.pi * inner_term_magnitude(10 ** 6 + 1, ctx30)
        assert 0 < a <= bound


class TestRecurrence:
    @pytest.mark.parametrize("n", [1, 2, 7, 50, 100])
    def test_residual_below_tolerance(self, n, ctx40):
        assert _recurrence_residual(n, ctx40) < mpf("1e-30")

    def test_row_checks_its_index(self, ctx40):
        r = verify(IdentityId.RECURRENCE, ctx40)
        assert r.residual == _recurrence_residual(identities.RECURRENCE_N, ctx40)


@pytest.mark.parametrize("index", [2.5, "3"])
# the partial_sums ids name what one index gives: S_n, and the truncation V_N
@pytest.mark.parametrize("fn", [
    fourier_a, fourier_a_quadrature,
    pytest.param(lambda n, ctx: partial_sums([n], ctx), id="partial_sum_S"),
    pytest.param(lambda n, ctx: partial_sums([n], ctx, squared=True),
                 id="double_series_partial"),
    khintchine_partial, inner_term_magnitude])
def test_non_integer_index_raises_domain_error(fn, index, ctx15):
    with pytest.raises(DomainError):
        fn(index, ctx15)


@pytest.fixture
def perturbed_sums(monkeypatch):
    """Adds (-1)^n/n^5 to every fixed-point partial sum at n, with the
    route memos cleared on entry and exit."""
    kernel = series._fixed_point_sums

    def perturbed(marks, *, squared=False):
        sums, shift = kernel(marks, squared=squared)
        return [v + (-1) ** n * (1 << shift) // n ** 5
                for n, v in zip(marks, sums)], shift

    monkeypatch.setattr(series, "_fixed_point_sums", perturbed)
    clear_memos()
    yield
    clear_memos()


class TestDoubleSeries:
    def test_value_against_boxed_closed_form(self, ctx30):
        ds = double_series(ctx30)
        with ctx30.workprec():
            closed = mp.pi / 16 - mp.log(1 + mp.sqrt(2)) ** 2 / 4
        assert ds.tail_bound < ctx30.working_tolerance
        assert ds.tail_bound < ctx30.tolerance
        assert abs(ds.value - closed) < ctx30.tolerance

    def test_magnitude(self):
        ctx = PrecisionContext(digits=10)
        assert mp.nstr(double_series(ctx).value, 6) == "0.00214469"

    def test_bound_driven_term_count_for_1e12(self):
        ctx = PrecisionContext(digits=12)
        ds = double_series(ctx)
        assert ds.terms_used <= 10 ** 5

    def test_accelerated_vs_bruteforce_oracle(self, ctx30):
        brute = partial_sums([10 ** 5], ctx30, squared=True)[0]
        assert abs(double_series(ctx30).value - brute) < mpf("1e-15")

    def test_pure_and_accelerated_routes_agree(self):
        # the partial sum up to the bound-driven N that the CLI trace uses
        ctx = PrecisionContext(digits=14)
        pure = partial_sums([_terms_to_tolerance(14, squared=True)], ctx, squared=True)[0]
        accel = double_series(PrecisionContext(digits=30))
        assert abs(pure - accel.value) < ctx.tolerance

    def test_300_digits(self):
        ctx = PrecisionContext(digits=300)
        ds = double_series(ctx)
        with ctx.workprec():
            closed = mp.pi / 16 - mp.log(1 + mp.sqrt(2)) ** 2 / 4
        assert ds.tail_bound < ctx.working_tolerance
        assert abs(ds.value - closed) < ctx.tolerance

    def test_miss_makes_no_quadrature_call(self, monkeypatch):
        calls = []
        integrate = quadrature.integrate_analytic

        def counting(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(quadrature, "integrate_analytic", counting)
        clear_memos()
        double_series(PrecisionContext(digits=45))
        assert calls == []

    @pytest.mark.parametrize("digits", [10, 20, 50, 200, 500, 1000])
    def test_digit_ladder(self, digits):
        ctx = PrecisionContext(digits=digits)
        ds = double_series(ctx)
        with mp.workdps(ctx.working_dps + 40):
            closed = mp.pi / 16 - mp.log(1 + mp.sqrt(2)) ** 2 / 4
            assert ds.tail_bound < ctx.working_tolerance
            assert abs(ds.value - closed) < ctx.working_tolerance

    @pytest.mark.parametrize("digits", [10, 50, 200])
    def test_richardson_weights_below_extra_digits(self, digits, monkeypatch):
        # the largest weight multiplies the rounding errors of the sums, so it
        # must stay below the digits the sums carry beyond working precision
        ctx = PrecisionContext(digits=digits)
        calls = []
        weights = series._richardson_weights

        def recording(N):
            ws = weights(N)
            calls.append((max(abs(w) for w in ws) / mpf(factorial(N)),
                          mp.dps - ctx.working_dps))
            return ws

        monkeypatch.setattr(series, "_richardson_weights", recording)
        clear_memos()
        double_series(ctx)
        assert calls
        for weight, extra in calls:
            assert 1 < weight < mpf(10) ** extra

    @pytest.mark.parametrize("digits", [30, 100])
    def test_perturbed_sums_not_converged(self, digits, perturbed_sums):
        # a (-1)^n/n^5 component has no expansion in powers of 1/n, so the
        # extrapolates of two orders disagree by more than working tolerance
        with pytest.raises(NoConvergence, match="not below working tolerance"):
            double_series(PrecisionContext(digits=digits))

    def test_perturbed_sums_fail_only_the_double_series_rows(self, perturbed_sums):
        # the raise becomes a failed report in each row that reads V, and the
        # CLI exits as not converged
        reports = verify_all(PrecisionContext(digits=30))
        failed = {r.id for r in reports if not r.passed}
        assert failed == {IdentityId.PARSEVAL_DOUBLE_SERIES,
                          IdentityId.PARSEVAL_CLOSURE, IdentityId.KG_FROM_SERIES}
        for r in reports:
            if r.id in failed:
                assert r.error.startswith("NoConvergence")
        assert cli.run(["verify", "all", "--digits", "30"]) == cli.EXIT_NOT_CONVERGED

    @pytest.mark.parametrize("digits", [10, 50, 200])
    def test_integer_richardson_matches_mpmath(self, digits):
        # the integer weights against mp.richardson on the same sums, at the
        # depth double_series takes them; mp.richardson rounds each weight
        # product, so the two agree to the sums' precision less the weights'
        # 10^(0.93 N), which leaves the working digits; mp.richardson takes
        # its order from the length, len // 2 - 1
        ctx = PrecisionContext(digits=digits)
        N = ctx.working_dps + 10
        with ctx.workprec(), mp.extradps(N):
            sums, shift = series._fixed_point_sums(range(1, 2 * N + 2), squared=True)
            sums = [0] + sums
            for order, length in ((N, 2 * N + 2), (N - 10, 2 * N - 18)):
                exact = mp.ldexp(series._richardson(sums, order), -shift)
                floating = mp.richardson([mp.ldexp(v, -shift) for v in sums[:length]])[0]
                assert abs(exact - floating) < ctx.working_tolerance, order
    def test_determinism(self, ctx30):
        a = double_series(ctx30)
        b = double_series(ctx30)
        assert mp.nstr(a.value, 30) == mp.nstr(b.value, 30)


class TestParsevalClosure:
    def test_equals_8_over_pi(self, ctx30):
        closure = verify(IdentityId.PARSEVAL_CLOSURE, ctx30).lhs
        assert mp.nstr(closure, 12) == "2.54647908947"
        assert abs(closure - 8 / const_pi(ctx30)) < mpf("1e-25")

    def test_exact_relation_to_double_series(self, ctx30):
        closure = verify(IdentityId.PARSEVAL_CLOSURE, ctx30).lhs
        a0 = fourier_a(0, ctx30)
        with ctx30.workprec():
            combined = a0 ** 2 / 2 + 128 / mp.pi ** 2 * double_series(ctx30).value
        assert abs(closure - combined) < ctx30.tolerance


class TestLegendreChi2:
    """chi_2(z) = sum z^(2j+1)/(2j+1)^2 by the fixed-point series, against
    mpmath's dilogarithm and Landen's value, both 40 digits deeper."""

    @pytest.mark.parametrize("digits", [12, 60, 250])
    @pytest.mark.parametrize("z", ["0.05", "0.3", "0.5", "0.8", "0.95"])
    def test_against_dilogarithm(self, digits, z):
        ctx = PrecisionContext(digits=digits)
        res = legendre_chi2(z, ctx)
        with mp.workdps(ctx.working_dps + 40):
            zz = mpf(z)
            reference = (mp.polylog(2, zz) - mp.polylog(2, -zz)) / 2
            assert abs(res.value / reference - 1) < mpf(10) ** -(ctx.working_dps - 1)
            assert res.tail_bound < ctx.working_tolerance

    @pytest.mark.parametrize("digits", [12, 50, 200, 500])
    def test_landen_value(self, digits):
        ctx = PrecisionContext(digits=digits)
        with mp.workdps(ctx.working_dps + 10):
            z = mp.sqrt(2) - 1
        res = legendre_chi2(z, ctx)
        with mp.workdps(ctx.working_dps + 40):
            reference = mp.pi ** 2 / 16 - mp.log(1 + mp.sqrt(2)) ** 2 / 4
            assert abs(res.value / reference - 1) < mpf(10) ** -(ctx.working_dps - 1)
        # the terms shrink by (sqrt(2)-1)^2 = 0.17, 2.54 bits each
        with ctx.workprec():
            assert res.terms_used < mp.prec / 2.5 + 10

    @pytest.mark.parametrize("z", ["0", "1", "-0.5"])
    def test_domain(self, z, ctx30):
        with pytest.raises(DomainError):
            legendre_chi2(z, ctx30)

    def test_fails_fast_near_one(self, ctx30):
        # at 1 - z = 2^-40 the loop would take about 8.6e13 terms; the count
        # is taken before the loop, so the call raises at once (the precision
        # ladder's 1 - 2^-10 at 140 digits takes 185,812 terms, under the cap)
        start = time.perf_counter()
        with pytest.raises(NoConvergence, match=str(CHI2_MAX_TERMS)):
            legendre_chi2(1 - 2 ** -40, ctx30)
        assert time.perf_counter() - start < 0.1
