import pytest
from mpmath import mp, mpf

from kgconst import (
    IdentityReport,
    InvalidPrecision,
    PrecisionContext,
    RootResult,
    SeriesResult,
    const_KG,
    const_L,
    const_pi,
    khintchine_accelerated,
    khintchine_partial,
    verify,
)


def machin_pi(dps):
    """Independent pi oracle: Machin's arctan formula, summed term by term."""
    with mp.workdps(dps + 10):
        def arctan_inv(q):
            # arctan(1/q) for integer q > 1, plain Taylor series
            total = mpf(0)
            term = mpf(1) / q
            q2 = q * q
            k = 0
            while abs(term) > mpf(10) ** (-(dps + 8)):
                total += term / (2 * k + 1)
                term = -term / q2
                k += 1
            return total
        return 16 * arctan_inv(5) - 4 * arctan_inv(239)


def test_pi_matches_independent_oracle():
    ctx = PrecisionContext(digits=15)
    assert mp.nstr(const_pi(ctx), 15) == "3.14159265358979"
    assert abs(const_pi(ctx) - machin_pi(40)) < mpf("1e-15")


def test_pi_precision_consistency():
    lo = const_pi(PrecisionContext(digits=30))
    hi = const_pi(PrecisionContext(digits=50))
    assert abs(lo - hi) < mpf("1e-30")


def test_invalid_precision_rejected():
    with pytest.raises(InvalidPrecision):
        PrecisionContext(digits=9)
    with pytest.raises(InvalidPrecision):
        PrecisionContext(digits=20)._replace(digits=9)


def test_L_value_and_defining_property():
    ctx = PrecisionContext(digits=10)
    assert mp.nstr(const_L(ctx), 10) == "0.881373587"
    ctx15 = PrecisionContext(digits=15)
    assert abs(mp.sinh(const_L(ctx15)) - 1) < ctx15.tolerance


def test_L_equals_log_tan_3pi_over_8():
    ctx = PrecisionContext(digits=30)
    with ctx.workprec():
        tan_form = mp.tan(3 * mp.pi / 8)
    assert abs(tan_form - mp.exp(const_L(ctx))) < ctx.tolerance


def test_KG_value_and_identity():
    ctx = PrecisionContext(digits=11)
    assert mp.nstr(const_KG(ctx), 11) == "1.7822139782"
    for digits in (15, 25, 40):
        c = PrecisionContext(digits=digits)
        assert abs(2 * const_L(c) * const_KG(c) - const_pi(c)) < c.tolerance


def test_KG_precision_monotone():
    lo = const_KG(PrecisionContext(digits=25))
    hi = const_KG(PrecisionContext(digits=50))
    assert abs(lo - hi) < mpf("1e-25")


def test_tolerance_default_and_override():
    ctx = PrecisionContext(digits=12)
    assert abs(ctx.tolerance / mpf(10) ** -12 - 1) < mpf("1e-20")
    # the digit count is the only setting: the tolerance derives from it
    with pytest.raises(TypeError):
        PrecisionContext(digits=12, tolerance=mpf("1e-8"))


def test_records_carry_only_results():
    # each record holds what the call computed, not what the caller passed or
    # chose; accelerated results meet their target or raise
    assert SeriesResult._fields == ("value", "terms_used", "tail_bound")
    # the Khintchine products are series results: their error is a tail bound
    for result in (khintchine_partial(10, PrecisionContext(digits=15)),
                   khintchine_accelerated(PrecisionContext(digits=15))):
        assert type(result) is SeriesResult
    assert RootResult._fields == ("x0", "residual", "iterations")
    assert IdentityReport._fields == ("id", "lhs", "rhs", "residual", "digits_agreed",
                                      "passed", "error", "runtime_ms")
    assert IdentityReport._field_defaults == {}
    # a report names an error only when a route raised
    assert verify("KG_DEFINITION", PrecisionContext(digits=20)).error is None
