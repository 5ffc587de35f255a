"""Registry of every verifiable identity, with residual reports.

Each identity is one row of ``_TABLE``: its paper anchor and a ``sides``
callable returning ``(lhs, rhs, extra)`` from independent routes through the
owning modules.  ``verify`` reports the absolute residual, the number of
digits of agreement, and a pass flag against the context tolerance (with
per-identity overrides where a check is intrinsically desk-scale, e.g. the
eight-digit Khintchine product).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable, NamedTuple

from mpmath import mp, mpf

from .core import BigReal, PrecisionContext, const_KG, const_L
from .errors import DomainError
from . import elliptic, khintchine, quadrature, series


class IdentityId(str, Enum):
    PARSEVAL_DOUBLE_SERIES = "PARSEVAL_DOUBLE_SERIES"
    PARSEVAL_CLOSURE = "PARSEVAL_CLOSURE"
    KG_DEFINITION = "KG_DEFINITION"
    KG_FROM_SERIES = "KG_FROM_SERIES"
    RECURRENCE = "RECURRENCE"
    COEFF_VS_QUADRATURE = "COEFF_VS_QUADRATURE"
    APPENDIX_A1 = "APPENDIX_A1"
    APPENDIX_A2_CORRECTED = "APPENDIX_A2_CORRECTED"
    APPENDIX_A3 = "APPENDIX_A3"
    APPENDIX_A4 = "APPENDIX_A4"
    FIXED_POINT_1 = "FIXED_POINT_1"
    FIXED_POINT_2 = "FIXED_POINT_2"
    FIXED_POINT_3 = "FIXED_POINT_3"
    FIXED_POINT_4 = "FIXED_POINT_4"
    HAAGERUP_CONSISTENCY = "HAAGERUP_CONSISTENCY"
    KRIVINE_COMPLEX_MIDDLE_EQUALITY = "KRIVINE_COMPLEX_MIDDLE_EQUALITY"
    LEGENDRE_RELATION = "LEGENDRE_RELATION"
    KHINTCHINE_STABILITY = "KHINTCHINE_STABILITY"


@dataclass(frozen=True)
class IdentityReport:
    id: IdentityId
    lhs: BigReal
    rhs: BigReal
    residual: BigReal
    digits_agreed: int
    passed: bool
    params: dict = field(default_factory=dict)
    runtime_ms: float = 0.0


# k = 0 is excluded: its complement k' = 1 makes K(k') diverge, so the
# Legendre combination is undefined there
LEGENDRE_GRID = ("0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8",
                 "0.9", "0.999")  # plus 1/sqrt(2), added at working precision


class _Row(NamedTuple):
    anchor: str
    sides: Callable  # (ctx, params) -> (lhs, rhs, extra)


def _arcsinh_csch(x):
    return mp.asinh(1 / mp.sinh(x))


@lru_cache(maxsize=None)
def _tail_integral(ctx: PrecisionContext) -> BigReal:
    """int_L^inf arcsinh(csch x) dx by Fejer's second rule, taken through
    x = L - ln(1-u) as the integral over u in (0, 1) of arcsinh(csch x)/(1-u),
    whose nearest singularity is at u = 1 - (sqrt(2)+1).

    The integrand is written in v = 1 - u, so the rule's points near u = 1
    give 1 - u as r(1 - cos theta), not by a subtraction.  Shared by
    APPENDIX_A1 and FIXED_POINT_1, whose limit pi/(2 K_G) is L by definition.
    """
    L = const_L(ctx)
    return quadrature.integrate_analytic(
        lambda v: _arcsinh_csch(L - mp.log(v)) / v, 0, 1, ctx).value


@lru_cache(maxsize=None)
def _head_integral(ctx: PrecisionContext) -> BigReal:
    """int_0^L arcsinh(csch x) dx by Fejer's second rule.

    Over (0, L) the only singularity is -ln(x/2) at 0, since
    arcsinh(csch x) = -ln tanh(x/2): the rule integrates
    arcsinh(csch x) + ln(x/2), whose nearest singularities are at +-i pi,
    and int_0^L -ln(x/2) dx = L - L ln(L/2) is added in closed form.  L and
    that closed form are taken at the rule's precision.  Shared by
    APPENDIX_A2_CORRECTED and FIXED_POINT_2.
    """
    with mp.workdps(ctx.working_dps + quadrature.RULE_EXTRA_DPS):
        L = mp.log(1 + mp.sqrt(2))
        regular = quadrature.integrate_analytic(
            lambda x: _arcsinh_csch(x) + mp.log(x / 2), 0, L, ctx).value
        return regular + L - L * mp.log(L / 2)


def _chi2_tail(ctx: PrecisionContext) -> BigReal:
    """int_L^inf 2 atanh(e^-x) dx = 2 chi_2(sqrt(2) - 1), by the chi_2 series.

    For x > 0, arccosh(coth x) = arctanh(sech x) = 2 atanh(e^-x), since
    coth x + csch x = coth(x/2) and (1 + sech x)/(1 - sech x) = coth^2(x/2),
    and e^-L = sqrt(2) - 1.  That is taken 10 digits deeper; the series
    reads every bit of it.
    """
    with mp.extradps(10):
        z = mp.sqrt(2) - 1
    return 2 * series.legendre_chi2(z, ctx).value


# anchor suffix of the rows whose integrand is a rewrite of 2 atanh(e^-x)
_CHI2_ROUTE = "; = 2 atanh(e^-x), int = 2 chi_2(sqrt(2)-1) by series"


def _appendix(spelling, tail_integral, route=""):
    """Row of the appendix identity pi^2 = 4L^2 + 8 int_L^inf f."""
    return _Row(f"pi^2 = 4L^2 + 8 int_L^inf {spelling} dx{route}",
                lambda ctx, p: (mp.pi ** 2,
                                4 * const_L(ctx) ** 2 + 8 * tail_integral(ctx), {}))


def _kg_fixed_point(integral, tail):
    """K_G = 1/sqrt(+-(1 - (8/pi^2) int f)), the integral limit being pi/(2 K_G) = L."""
    def sides(ctx, params):
        inner = 8 / mp.pi ** 2 * integral(ctx)
        return const_KG(ctx), 1 / mp.sqrt(1 - inner if tail else inner - 1), {}
    return sides


def _kg_definition(ctx, params):
    # rhs takes L from its defining property sinh(L) = 1 (exp path, no log)
    L = mp.findroot(lambda x: mp.sinh(x) - 1, mpf("0.88"))
    return const_KG(ctx), mp.pi / (2 * L), {}


def _kg_from_series(ctx, params):
    V = series.double_series(ctx).value
    KG = const_KG(ctx)
    # first boxed form: V = (pi/16)(1 - pi/KG^2)
    resid_a = abs(V - mp.pi / 16 * (1 - mp.pi / KG ** 2))
    # second boxed form: KG = pi / sqrt(pi - 16 V)
    return KG, mp.pi / mp.sqrt(mp.pi - 16 * V), {"series_form_residual": resid_a}


def _recurrence(ctx, params):
    n = params.get("n", 7)
    if n < 1:
        # fourier_a(n - 1) would name index n - 1 in its error, not n
        raise DomainError(f"recurrence index must be >= 1, got {n}")
    sign = 1 if n % 2 == 0 else -1
    lhs = series.fourier_a(n, ctx).value - series.fourier_a(n - 1, ctx).value
    rhs = 8 * mp.sqrt(2) / mp.pi * sign * (mpf(1) / (4 * n - 3) - mpf(1) / (4 * n - 1))
    return lhs, rhs, {"n": n}


def _coeff_vs_quadrature(ctx, params):
    n = params.get("n", 3)
    return (series.fourier_a(n, ctx).value,
            series.fourier_a_quadrature(n, ctx).value, {"n": n})


def _krivine_middle(ctx, params):
    x = mpf(params.get("x", "0.5"))
    return (elliptic.krivine_complex_lhs(x, ctx),
            elliptic.krivine_complex_middle(x, ctx), {"x": x})


def _legendre(ctx, params):
    grid = [mpf(k) for k in LEGENDRE_GRID] + [1 / mp.sqrt(2)]
    half_pi = mp.pi / 2
    worst_k, lhs = max(((k, elliptic.legendre_lhs(k, ctx)) for k in grid),
                       key=lambda pair: abs(pair[1] - half_pi))
    return lhs, half_pi, {"worst_k": worst_k, "grid_size": len(grid)}


def _khintchine_stability(ctx, params):
    res = khintchine.khintchine_accelerated(ctx)
    return res.value, khintchine.zeta_series_value(), {"terms_used": res.terms_used}


_TABLE = {
    IdentityId.PARSEVAL_DOUBLE_SERIES: _Row(
        "boxed double series = pi/16 - ln^2(1+sqrt(2))/4",
        lambda ctx, p: (series.double_series(ctx).value,
                        mp.pi / 16 - mp.log(1 + mp.sqrt(2)) ** 2 / 4, {})),
    IdentityId.PARSEVAL_CLOSURE: _Row(
        "a0^2/2 + sum a_n^2 = 8/pi (Parseval for 1/cos(x/4))",
        lambda ctx, p: (series.parseval_closure(ctx).value, 8 / mp.pi, {})),
    IdentityId.KG_DEFINITION: _Row("K_G = pi/(2 ln(1+sqrt(2)))", _kg_definition),
    IdentityId.KG_FROM_SERIES: _Row("K_G = pi/sqrt(pi - 16 * double series)",
                                    _kg_from_series),
    IdentityId.RECURRENCE: _Row(
        "a_n - a_{n-1} = (8 sqrt(2)/pi)(-1)^n [1/(4n-3) - 1/(4n-1)]", _recurrence),
    IdentityId.COEFF_VS_QUADRATURE: _Row(
        "closed-form a_n vs (8/pi) int cos(4nt)/cos(t) dt", _coeff_vs_quadrature),
    IdentityId.APPENDIX_A1: _appendix("arcsinh(csch x)", _tail_integral),
    IdentityId.APPENDIX_A2_CORRECTED: _Row(
        "pi^2 + 4L^2 = 8 int_0^L arcsinh(csch x) dx (corrected)",
        lambda ctx, p: (mp.pi ** 2 + 4 * const_L(ctx) ** 2,
                        8 * _head_integral(ctx),
                        {"as_printed": "ambiguous"})),
    IdentityId.APPENDIX_A3: _appendix("arccosh(coth x)", _chi2_tail, _CHI2_ROUTE),
    IdentityId.APPENDIX_A4: _appendix("arctanh(sech x)", _chi2_tail, _CHI2_ROUTE),
    IdentityId.FIXED_POINT_1: _Row(
        "K_G = 1/sqrt(1 - (8/pi^2) int_{pi/2K_G}^inf arcsinh(csch))",
        _kg_fixed_point(_tail_integral, True)),
    IdentityId.FIXED_POINT_2: _Row(
        "K_G = 1/sqrt((8/pi^2) int_0^{pi/2K_G} arcsinh(csch) - 1)",
        _kg_fixed_point(_head_integral, False)),
    IdentityId.FIXED_POINT_3: _Row(
        "K_G = 1/sqrt(1 - (8/pi^2) int_{pi/2K_G}^inf arccosh(coth))" + _CHI2_ROUTE,
        _kg_fixed_point(_chi2_tail, True)),
    IdentityId.FIXED_POINT_4: _Row(
        "K_G = 1/sqrt(1 - (8/pi^2) int_{pi/2K_G}^inf arctanh(sech))" + _CHI2_ROUTE,
        _kg_fixed_point(_chi2_tail, True)),
    IdentityId.HAAGERUP_CONSISTENCY: _Row(
        "1/(2K(i)-E(i)) vs 1/int cos^2/sqrt(1+sin^2)",
        lambda ctx, p: (elliptic.haagerup_bound(ctx),
                        elliptic.haagerup_bound_quadrature(ctx), {})),
    IdentityId.KRIVINE_COMPLEX_MIDDLE_EQUALITY: _Row(
        "x int cos^2/sqrt(1-x^2 sin^2) = (1/x)[E(x)-(1-x^2)K(x)]", _krivine_middle),
    IdentityId.LEGENDRE_RELATION: _Row("E K' + E' K - K K' = pi/2", _legendre),
    IdentityId.KHINTCHINE_STABILITY: _Row(
        "Gauss-Kuz'min product (Euler-Maclaurin tail) = zeta-series value (mpmath)",
        _khintchine_stability),
}

# desk-scale checks keep a fixed tolerance regardless of ctx.digits
_TOLERANCE_OVERRIDES = {
    IdentityId.KHINTCHINE_STABILITY: khintchine.STABILITY_TOLERANCE,
}
# the printed outputs, by identity, CLI constant or trace target, whose
# values carry a fixed number of digits
_CARRIED_DIGITS = {
    IdentityId.KHINTCHINE_STABILITY: khintchine.CARRIED_DIGITS,
    "KHINTCHINE": khintchine.CARRIED_DIGITS,
    "khintchine_partial": khintchine.CARRIED_DIGITS,
}

REGISTRY_ORDER = tuple(_TABLE)


def anchor(identity: IdentityId) -> str:
    return _TABLE[identity].anchor


def printed_digits(name: str, digits: int) -> int:
    """Significant digits worth printing of the values of an identity, CLI
    constant or trace target name at the requested digits: those, or fewer
    for a desk-scale value."""
    return min(digits, _CARRIED_DIGITS.get(name, digits))


def _digits_agreed(residual, lhs, rhs, cap):
    if residual == 0:
        return cap
    scale = max(abs(lhs), abs(rhs), mpf(1))
    d = int(mp.floor(-mp.log10(residual / scale)))
    return max(0, min(d, cap))


def verify(identity, ctx: PrecisionContext, **params) -> IdentityReport:
    """Evaluate both sides of one identity and report the residual.

    An unknown id raises ValueError; any error while evaluating a registered
    identity (a library error or a bad parameter) becomes a failed report.
    """
    identity = IdentityId(identity)
    tol = _TOLERANCE_OVERRIDES.get(identity, ctx.tolerance)
    start = time.perf_counter()
    with ctx.workprec():
        try:
            lhs, rhs, extra = _TABLE[identity].sides(ctx, params)
            residual = abs(lhs - rhs)
            passed = bool(residual < tol)
            if "series_form_residual" in extra:
                passed = passed and bool(extra["series_form_residual"] < tol)
            digits = _digits_agreed(residual, lhs, rhs, ctx.digits)
        except Exception as exc:
            elapsed = (time.perf_counter() - start) * 1000
            return IdentityReport(id=identity, lhs=mpf(0), rhs=mpf(0),
                                  residual=mp.inf, digits_agreed=0, passed=False,
                                  params={"error": f"{type(exc).__name__}: {exc}"},
                                  runtime_ms=elapsed)
    elapsed = (time.perf_counter() - start) * 1000
    return IdentityReport(id=identity, lhs=lhs, rhs=rhs, residual=residual,
                          digits_agreed=digits, passed=passed,
                          params=dict(extra), runtime_ms=elapsed)


def verify_all(ctx: PrecisionContext, ids=None) -> list:
    """Run every registered identity (or the given subset) in registry order.

    A failing identity never aborts the suite; failures are recorded in the
    corresponding report.
    """
    if ids is None:
        selected = REGISTRY_ORDER
    else:
        wanted = {IdentityId(i) for i in ids}
        selected = tuple(i for i in REGISTRY_ORDER if i in wanted)
    return [verify(identity, ctx) for identity in selected]
