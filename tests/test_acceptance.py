"""Acceptance gate: one test per release criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in the
captured output of a failing run) summarizing the measured quantity against
its threshold.
"""

import json
import time

import pytest
from mpmath import mp, mpf

from kgconst import (
    PrecisionContext,
    IdentityId,
    const_KG,
    double_series,
    ellip_E,
    ellip_K,
    fourier_a,
    fourier_a_quadrature,
    haagerup_bound,
    khintchine_accelerated,
    khintchine_partial,
    krivine_complex_f,
    partial_sums,
    solve_x0,
    verify,
)
from kgconst.cli import EXIT_OK, run
from kgconst.elliptic import (
    ellip_E_quadrature,
    ellip_K_quadrature,
    haagerup_bound_quadrature,
    legendre_lhs,
)


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_double_series_identity():
    ctx = PrecisionContext(digits=30)
    start = time.perf_counter()
    ds = double_series(ctx)
    with mp.workdps(80):
        closed = mp.pi / 16 - mp.log(1 + mp.sqrt(2)) ** 2 / 4
        residual = abs(ds.value - closed)
        elapsed = time.perf_counter() - start
        brute = partial_sums([10 ** 5], ctx, squared=True)[0]
        cross = abs(ds.value - brute)
        ok = (residual < mpf("1e-30") and ds.tail_bound < ctx.working_tolerance
              and ds.tail_bound < ctx.tolerance
              and elapsed < 30 and cross < mpf("1e-15"))
        _report(1, ok,
                f"residual={mp.nstr(residual, 3)} (<1e-30), "
                f"runtime={elapsed:.2f}s (<30s), "
                f"bruteforce-gap={mp.nstr(cross, 3)} (<1e-15)")


def test_criterion_2_parseval_closure():
    ctx = PrecisionContext(digits=30)
    with mp.workdps(80):
        residual = abs(verify(IdentityId.PARSEVAL_CLOSURE, ctx).lhs - 8 / mp.pi)
        _report(2, residual < mpf("1e-25"),
                f"|a0^2/2 + sum a_n^2 - 8/pi| = {mp.nstr(residual, 3)} (<1e-25)")


def test_criterion_3_coefficient_oracle_and_recurrence():
    ctx30 = PrecisionContext(digits=30)
    ctx40 = PrecisionContext(digits=40)
    with mp.workdps(90):
        worst_coeff = max(
            abs(fourier_a(n, ctx30) - fourier_a_quadrature(n, ctx30))
            for n in range(0, 9))
        with ctx40.workprec():
            worst_rec = max(
                abs(fourier_a(n, ctx40) - fourier_a(n - 1, ctx40)
                    - 8 * mp.sqrt(2) / mp.pi * (-1) ** n
                    * (mpf(1) / (4 * n - 3) - mpf(1) / (4 * n - 1)))
                for n in range(1, 101))
        ok = worst_coeff < mpf("1e-25") and worst_rec < mpf("1e-30")
        _report(3, ok,
                f"max coeff-vs-quadrature gap n=0..8: {mp.nstr(worst_coeff, 3)} "
                f"(<1e-25); max recurrence residual n=1..100: "
                f"{mp.nstr(worst_rec, 3)} (<1e-30)")


def test_criterion_4_KG_identities():
    ctx = PrecisionContext(digits=40)
    with mp.workdps(90):
        r_def = verify(IdentityId.KG_DEFINITION, ctx)
        r_series = verify(IdentityId.KG_FROM_SERIES, ctx)
        with ctx.workprec():
            # the first boxed form, V = (pi/16)(1 - pi/K_G^2)
            KG = const_KG(ctx)
            series_form = abs(double_series(ctx).value - mp.pi / 16 * (1 - mp.pi / KG ** 2))
        worst = max(r_def.residual, r_series.residual, series_form)
        ok = worst < mpf("1e-30") and r_def.passed and r_series.passed
        _report(4, ok, f"worst K_G identity residual = {mp.nstr(worst, 3)} (<1e-30)")


def test_criterion_5_appendix_integrals_and_fixed_points():
    ctx = PrecisionContext(digits=30)
    start = time.perf_counter()
    ids = [IdentityId.APPENDIX_A1, IdentityId.APPENDIX_A2_CORRECTED,
           IdentityId.APPENDIX_A3, IdentityId.APPENDIX_A4,
           IdentityId.FIXED_POINT_1, IdentityId.FIXED_POINT_2,
           IdentityId.FIXED_POINT_3, IdentityId.FIXED_POINT_4]
    with mp.workdps(80):
        reports = [verify(i, ctx) for i in ids]
        elapsed = time.perf_counter() - start
        worst = max(r.residual for r in reports)
        ok = worst < mpf("1e-25") and all(r.passed for r in reports) and elapsed < 60
        _report(5, ok,
                f"worst of A1-A4 + fixed points = {mp.nstr(worst, 3)} (<1e-25), "
                f"runtime={elapsed:.2f}s (<60s)")


def test_criterion_6_elliptic_certificates():
    ctx = PrecisionContext(digits=30)
    grid = [mpf(k) for k in
            ("0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9", "0.999")]
    with mp.workdps(80):
        grid.append(1 / mp.sqrt(2))
        half_pi = mp.pi / 2
        special = max(abs(ellip_K(0, ctx) - half_pi),
                      abs(ellip_E(0, ctx) - half_pi),
                      abs(ellip_E(1, ctx) - 1))
        worst_leg = max(abs(legendre_lhs(k, ctx) - half_pi) for k in grid)
        worst_quad = max(
            max(abs(ellip_K(k, ctx) - ellip_K_quadrature(k, ctx)),
                abs(ellip_E(k, ctx) - ellip_E_quadrature(k, ctx)))
            for k in grid)
        ok = (special < mpf(10) ** -(ctx.digits + 5)
              and worst_leg < mpf("1e-25") and worst_quad < mpf("1e-25"))
        _report(6, ok,
                f"special values off by {mp.nstr(special, 3)} (~working precision); "
                f"worst Legendre residual {mp.nstr(worst_leg, 3)} (<1e-25); "
                f"worst AGM-vs-quadrature gap {mp.nstr(worst_quad, 3)} (<1e-25)")


def test_criterion_7_complex_case_root():
    ctx40 = PrecisionContext(digits=40)
    with mp.workdps(90):
        root = solve_x0(ctx40)
        residual = abs(krivine_complex_f(root.x0, ctx40))
        drift = abs(solve_x0(PrecisionContext(digits=20)).x0 - root.x0)
        haag = abs(haagerup_bound(PrecisionContext(digits=30))
                   - haagerup_bound_quadrature(PrecisionContext(digits=30)))
        ok = residual < mpf("1e-30") and drift < mpf("1e-19") and haag < mpf("1e-25")
        _report(7, ok,
                f"|f(x0)| = {mp.nstr(residual, 3)} (<1e-30); "
                f"x0 drift digits 20->40 = {mp.nstr(drift, 3)} (<1e-19); "
                f"Haagerup dual-route gap = {mp.nstr(haag, 3)} (<1e-25)")


def test_criterion_8_khintchine_product():
    ctx = PrecisionContext(digits=15)
    with mp.workdps(40):
        values = [khintchine_partial(N, ctx).value
                  for N in (1, 2, 10, 100, 1000, 10 ** 4, 10 ** 5, 10 ** 6)]
        monotone = all(a <= b for a, b in zip(values, values[1:])) and \
            all(a < b for a, b in zip(values[1:], values[2:]))
        res = khintchine_accelerated(ctx)
        spread = res.tail_bound
        # tail bound of the partial product must respect the integral bound
        # and must dominate the true remaining growth
        p = khintchine_partial(1000, ctx)
        integral_cap = p.value * mp.expm1((mp.log(1000) + 1) / (1000 * mp.log(2)))
        true_gap = values[-1] - khintchine_partial(1000, ctx).value
        bound_ok = bool(true_gap <= p.tail_bound
                        <= integral_cap * (1 + mpf("1e-10")))
        ok = monotone and spread < mpf("1e-6") and bound_ok
        _report(8, ok,
                f"partials non-decreasing: {monotone}; doubling spread 1e3->2e3 = "
                f"{mp.nstr(spread, 3)} (<1e-6); tail bound respected: {bound_ok}")


def test_criterion_9_determinism(capsys):
    argv = ["verify", "all", "--digits", "20", "--format", "json"]
    code1 = run(list(argv))
    out1 = capsys.readouterr().out
    code2 = run(list(argv))
    out2 = capsys.readouterr().out
    records = json.loads(out1)
    ok = (code1 == EXIT_OK and code2 == EXIT_OK and out1 == out2
          and all(r["passed"] for r in records))
    with capsys.disabled():
        print(f"\nACCEPTANCE 9: {'PASS' if ok else 'FAIL'} - "
              f"byte-identical reruns: {out1 == out2}; exit codes "
              f"{code1}/{code2}; all {len(records)} identities passed")
    assert ok
