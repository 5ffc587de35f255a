"""The identity table: failed reports instead of exceptions, an independent
KG_DEFINITION side, a_n summed by one route without digamma values, the
integrals shared by the appendix identities and their fixed-point forms,
the rewrite that gives A3, A4 and their fixed points the chi_2 series
instead of a quadrature, and the log-moment series that gives A2 and
FIXED_POINT_2 the head."""

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from conftest import clear_memos
from kgconst import (
    DomainError,
    IdentityId,
    PrecisionContext,
    elliptic,
    identities,
    khintchine,
    quadrature,
    series,
    verify,
)
from kgconst.core import GUARD_BITS

# each fixed-point form reads the integral of the appendix identity before it
SHARED_INTEGRALS = [
    (IdentityId.APPENDIX_A1, IdentityId.FIXED_POINT_1),
    (IdentityId.APPENDIX_A2_CORRECTED, IdentityId.FIXED_POINT_2),
    (IdentityId.APPENDIX_A3, IdentityId.FIXED_POINT_3),
    (IdentityId.APPENDIX_A4, IdentityId.FIXED_POINT_4),
]

SPELLINGS = {
    "arcsinh(csch x)": lambda x: mp.asinh(1 / mp.sinh(x)),
    "arccosh(coth x)": lambda x: mp.acosh(mp.coth(x)),
    "arctanh(sech x)": lambda x: mp.atanh(1 / mp.cosh(x)),
}


@pytest.mark.parametrize("ident, module, name, exc", [
    # a route of each side: a_n on RECURRENCE's lhs, the middle expression
    # on the Krivine row's rhs
    (IdentityId.RECURRENCE, series, "fourier_a", DomainError),
    (IdentityId.KRIVINE_COMPLEX_MIDDLE_EQUALITY, elliptic, "krivine_complex_middle",
     TypeError),
], ids=["lhs", "rhs"])
def test_route_errors_become_failed_reports(ident, module, name, exc, monkeypatch):
    def raising(*args, **kwargs):
        raise exc("route failed")

    monkeypatch.setattr(module, name, raising)
    r = verify(ident, PrecisionContext(digits=20))
    assert r.passed is False
    assert r.residual == mp.inf
    assert r.error == f"{exc.__name__}: route failed"


def test_routes_call_the_patched_function(monkeypatch):
    # each route looks up the function it calls when it runs, so a patched
    # haagerup_bound fails its row, and only that row
    haagerup_bound = elliptic.haagerup_bound
    monkeypatch.setattr(elliptic, "haagerup_bound",
                        lambda ctx: haagerup_bound(ctx) * (1 + mpf("1e-25")))
    reports = identities.verify_all(PrecisionContext(digits=30))
    assert [r.id for r in reports if not r.passed] == [IdentityId.HAAGERUP_CONSISTENCY]


def test_kg_definition_fails_when_log_is_wrong(monkeypatch):
    # the rhs takes L from sinh(L) = 1, so a wrong log moves only the lhs
    log = mp.log
    monkeypatch.setattr(mp, "log", lambda *a, **k: log(*a, **k) * (1 + mpf("1e-25")))
    r = verify(IdentityId.KG_DEFINITION, PrecisionContext(digits=30))
    assert not r.passed
    assert r.residual > mpf("1e-26")


def test_khintchine_fails_when_log_sum_is_wrong(monkeypatch):
    # the rhs is mpmath's zeta series, so a shifted log-sum moves only the
    # lhs; the shift leaves the spread across the doubling unchanged
    log_sum = khintchine._log_sum
    monkeypatch.setattr(khintchine, "_log_sum",
                        lambda marks: [v + 1e-5 for v in log_sum(marks)])
    r = verify(IdentityId.KHINTCHINE_STABILITY, PrecisionContext(digits=20))
    assert not r.passed
    assert r.residual > mpf("1e-5")


def test_verify_all_without_digamma(monkeypatch):
    # a_n is summed from the inner terms, not from four digamma values
    def forbidden(*args, **kwargs):
        raise AssertionError("mp.psi called")

    monkeypatch.setattr(mp, "psi", forbidden)
    clear_memos()
    reports = identities.verify_all(PrecisionContext(digits=50))
    assert len(reports) == 18
    assert [(r.id, r.error) for r in reports if not r.passed] == []


def test_shifted_accelerator_fails_only_its_rows(monkeypatch):
    # the alternating-series accelerator gives a_n on one side of RECURRENCE
    # (against a rational) and of COEFF_VS_QUADRATURE (against Fejer), and is
    # no route of any other row
    inner_tail = series._inner_tail
    monkeypatch.setattr(series, "_inner_tail",
                        lambda n: inner_tail(n) * (1 + mpf("1e-25")))
    clear_memos()
    reports = identities.verify_all(PrecisionContext(digits=50))
    assert {r.id for r in reports if not r.passed} == {
        IdentityId.RECURRENCE, IdentityId.COEFF_VS_QUADRATURE}


@pytest.fixture
def integrate_calls(monkeypatch):
    """Record the result of each quadrature.integrate_analytic (Fejer) call,
    starting from an empty integral cache."""
    calls = []
    fejer = quadrature.integrate_analytic

    def counting(*args, **kwargs):
        res = fejer(*args, **kwargs)
        calls.append(res)
        return res

    monkeypatch.setattr(quadrature, "integrate_analytic", counting)
    identities._tail_integral.cache_clear()
    identities._head_integral.cache_clear()
    return calls


@pytest.fixture
def head_series_calls(monkeypatch):
    """Record the result of each identities._log_moment_series call, the
    head's series, starting from an empty integral cache."""
    calls = []
    head_series = identities._log_moment_series

    def counting(prec):
        res = head_series(prec)
        calls.append(res)
        return res

    monkeypatch.setattr(identities, "_log_moment_series", counting)
    identities._head_integral.cache_clear()
    return calls


@pytest.mark.parametrize("appendix, fixed_point", SHARED_INTEGRALS)
def test_fixed_point_reuses_appendix_integral(appendix, fixed_point, integrate_calls,
                                              head_series_calls):
    # A1's integral is one Fejer call, A2's one head series
    ctx = PrecisionContext(digits=23)
    quadratures = 1 if appendix is IdentityId.APPENDIX_A1 else 0
    head_series = 1 if appendix is IdentityId.APPENDIX_A2_CORRECTED else 0
    assert verify(appendix, ctx).passed
    assert (len(integrate_calls), len(head_series_calls)) == (quadratures, head_series)
    r = verify(fixed_point, ctx)
    assert r.passed, r.error
    assert (len(integrate_calls), len(head_series_calls)) == (quadratures, head_series)


def test_fixed_point_alone_computes_its_integral(integrate_calls, head_series_calls):
    r = verify(IdentityId.FIXED_POINT_2, PrecisionContext(digits=27))
    assert r.passed, r.error
    assert r.residual < mpf("1e-27")
    assert integrate_calls == []
    assert len(head_series_calls) == 1


def test_fejer_calls_at_200_digits(integrate_calls):
    # Fejer's second rule: a_3 for COEFF_VS_QUADRATURE and the
    # arcsinh(csch x) integral over (L, inf); the one over (0, L) is a
    # series
    reports = identities.verify_all(PrecisionContext(digits=200))
    assert all(r.passed for r in reports)
    assert len(integrate_calls) == 2


@pytest.mark.parametrize("ident, max_evaluations", [
    (IdentityId.COEFF_VS_QUADRATURE, 255),
    (IdentityId.APPENDIX_A1, 255),
])
def test_analytic_evaluations_at_200_digits(ident, max_evaluations, integrate_calls):
    # Fejer's second rule at n = 256 (a_3, folded about pi/8 and rational in
    # u = tan(t/2), and the tail as int_0^L s/sinh s)
    r = verify(ident, PrecisionContext(digits=200))
    assert r.passed, r.error
    assert len(integrate_calls) == 1
    assert integrate_calls[0].evaluations <= max_evaluations


@pytest.mark.parametrize("ident", [IdentityId.COEFF_VS_QUADRATURE,
                                   IdentityId.APPENDIX_A1])
def test_analytic_evaluations_at_500_digits(ident, integrate_calls):
    # n = 512 for each
    r = verify(ident, PrecisionContext(digits=500))
    assert r.passed, r.error
    assert len(integrate_calls) == 1
    assert integrate_calls[0].evaluations <= 511


@pytest.mark.parametrize("digits, max_terms", [(200, 256), (500, 598)])
def test_head_takes_its_series_not_a_quadrature(digits, max_terms, integrate_calls,
                                                head_series_calls):
    # the head, taken at the rule's precision, 10 digits beyond the working
    # one: no Fejer node, and the log-moment series' terms fall as 7.52^-k
    r = verify(IdentityId.APPENDIX_A2_CORRECTED, PrecisionContext(digits=digits))
    assert r.passed, r.error
    assert integrate_calls == []
    [res] = head_series_calls
    assert res.terms_used <= max_terms


@pytest.mark.parametrize("digits", [10, 20, 50, 200, 500, 1000])
def test_head_series_value_and_terms(digits):
    # H = L^2 + J = pi^2/8 + L^2/2 to the rule's precision, and J within
    # its tail_bound from K terms, the fewest whose tail bound
    # 2 (alpha + beta) rho_a^-K/(1 - 1/rho_a) is below 2^-(prec + GUARD_BITS)
    # (up to one more, for the float logarithms)
    ctx = PrecisionContext(digits=digits)
    identities._head_integral.cache_clear()
    value = identities._head_integral(ctx)
    with quadrature.rule_precision(ctx):
        prec = mp.prec
        res = identities._log_moment_series(prec)
    with mp.workdps(ctx.working_dps + 40):
        L = mp.log(1 + mp.sqrt(2))
        H = mp.pi ** 2 / 8 + L ** 2 / 2
        assert abs(value / H - 1) < mpf(10) ** -(ctx.working_dps + quadrature.RULE_EXTRA_DPS - 1)
        ulp = mp.ldexp(1, -prec)
        assert abs(res.value - (H - L ** 2)) <= res.tail_bound + ulp
        r2 = mp.sqrt(2)
        rho = 2 * r2 + 1 + 2 * mp.sqrt(2 + r2)
        gamma = 2 * (1 / mp.sqrt(2 + r2) + 1 / mp.sqrt(4 + 3 * r2)) / (1 - 1 / rho)
        target = mp.ldexp(1, -(prec + GUARD_BITS))
        K = res.terms_used
        assert gamma * rho ** -K < target <= gamma * rho ** -(K - 2)
        assert res.tail_bound < 2 * target


@pytest.mark.parametrize("digits, exps", [(200, 128), (500, 256)])
def test_tail_takes_one_exp_per_pair_of_nodes(digits, exps, monkeypatch):
    # n = 2 exps intervals: n/2 - 1 pairs of nodes s and L - s and the
    # midpoint, one exp each
    calls = {"exp": 0, "sinh": 0}
    for name in calls:
        def counting(*args, _f=getattr(mp, name), _name=name, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(mp, name, counting)
    identities._tail_integral.cache_clear()
    identities._tail_integral(PrecisionContext(digits=digits))
    assert calls == {"exp": exps, "sinh": 0}


@pytest.mark.parametrize("digits", [10, 50, 200, 500, 1000])
def test_tail_value_across_the_ladder(digits):
    # the tail's integer integrand (identities._tail_integral) within the
    # rule's error bound and rounding of pi^2/8 - L^2/2
    ctx = PrecisionContext(digits=digits)
    identities._tail_integral.cache_clear()
    value = identities._tail_integral(ctx)
    with mp.workdps(ctx.working_dps + 40):
        L = mp.log(1 + mp.sqrt(2))
        assert abs(value - (mp.pi ** 2 / 8 - L ** 2 / 2)) < mpf(10) ** -(ctx.working_dps + 9)


def test_appendix_tail_margin_at_66_digits():
    # at 66 digits the tail's Fejer error on 64 intervals, 2.7e-76, lies
    # above the target of 1e-76, so the rule must take 128 (its bound on
    # E_11 is 5.6e-66 at 64 and 1.2e-132 at 128)
    ctx = PrecisionContext(digits=66)
    r = verify(IdentityId.APPENDIX_A1, ctx)
    assert r.passed, r.error
    with ctx.workprec():
        assert r.residual < ctx.tolerance * mpf(10) ** -9


@given(x=st.floats(min_value=0.01, max_value=300), digits=st.integers(12, 500))
@settings(max_examples=30, deadline=None)
def test_spellings_are_two_atanh_exp(x, digits):
    # each spelling runs int(x) + 10 digits deeper: coth x - 1 cancels about
    # 0.87 x digits, and 1 - sech x under 5 at x >= 0.01
    ctx = PrecisionContext(digits=digits)
    with mp.workdps(ctx.working_dps + 40):
        reference = 2 * mp.atanh(mp.exp(-mpf(x)))
    for name, f in SPELLINGS.items():
        with mp.workdps(ctx.working_dps + int(x) + 10):
            value = f(mpf(x))
        with ctx.workprec():
            value = +value
        with mp.workdps(ctx.working_dps + 40):
            assert abs(value / reference - 1) < mpf(10) ** -(ctx.working_dps - 1), name


@pytest.mark.parametrize("ident", [IdentityId.HAAGERUP_CONSISTENCY,
                                   IdentityId.KRIVINE_COMPLEX_MIDDLE_EQUALITY])
def test_periodic_integrands_make_no_fejer_call(ident, integrate_calls):
    r = verify(ident, PrecisionContext(digits=200))
    assert r.passed, r.error
    assert integrate_calls == []


def test_no_legendre_modulus_is_anothers_complement():
    # k and k' give the same lhs, with K and K' swapped, so a grid holding
    # both runs the same two AGMs twice
    with mp.workdps(60):
        grid = [mpf(k) for k in identities.LEGENDRE_GRID] + [1 / mp.sqrt(2)]
        for i, k in enumerate(grid):
            kp = mp.sqrt((1 - k) * (1 + k))
            assert all(abs(kp - other) > mpf(10) ** -50
                       for j, other in enumerate(grid) if j != i), k


def test_legendre_relation_computes_each_value_once(monkeypatch):
    calls = []
    agm = elliptic._agm_KE
    monkeypatch.setattr(elliptic, "_agm_KE", lambda k: (calls.append(k), agm(k))[1])
    r = verify(IdentityId.LEGENDRE_RELATION, PrecisionContext(digits=30))
    assert r.passed, r.error
    # one AGM run for K and E at each grid modulus and one at its complement,
    # nothing at the worst one again
    assert len(calls) == 2 * (len(identities.LEGENDRE_GRID) + 1)


@pytest.mark.parametrize("ident", [IdentityId.HAAGERUP_CONSISTENCY,
                                   IdentityId.KRIVINE_COMPLEX_MIDDLE_EQUALITY])
def test_elliptic_side_runs_one_agm(ident, monkeypatch):
    # K and E at the row's one modulus come from a single AGM run
    calls = []
    agm = elliptic._agm_KE
    monkeypatch.setattr(elliptic, "_agm_KE", lambda k: (calls.append(k), agm(k))[1])
    r = verify(ident, PrecisionContext(digits=30))
    assert r.passed, r.error
    assert len(calls) == 1
