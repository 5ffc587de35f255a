"""Workload definitions and output checks for the kgconst benchmark.

Everything here is judged from what the CLI prints, against references the
benchmark computes itself with mpmath, so no private kgconst name is needed.

A *check* is one identity report of a `verify` command, or one whole
`compute`/`trace` command.  A check fails when its command exits with an
unexpected code, times out, or when its value misses the reference (for
`verify`, the reference is a zero residual) by more than its tolerance.

An *op* is one CLI command.  An op fails when it times out, exits with a
code the CLI contract does not allow for what it printed, or prints output
that cannot be read.  A value that misses its tolerance fails the check,
not the op: that is how the known defects of the program are recorded
without stopping the benchmark.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Optional

from mpmath import mp, mpf

# Registry order of `verify all`; the benchmark keeps its own copy.
IDENTITY_IDS = (
    "PARSEVAL_DOUBLE_SERIES", "PARSEVAL_CLOSURE", "KG_DEFINITION", "KG_FROM_SERIES",
    "RECURRENCE", "COEFF_VS_QUADRATURE", "APPENDIX_A1", "APPENDIX_A2_CORRECTED",
    "APPENDIX_A3", "APPENDIX_A4", "FIXED_POINT_1", "FIXED_POINT_2", "FIXED_POINT_3",
    "FIXED_POINT_4", "HAAGERUP_CONSISTENCY", "KRIVINE_COMPLEX_MIDDLE_EQUALITY",
    "LEGENDRE_RELATION", "KHINTCHINE_STABILITY",
)

# Tolerance of a verify report is 10^-digits, except for the desk-scale
# Khintchine check, which mirrors the registry's fixed override.
TOLERANCE_OVERRIDES = {"KHINTCHINE_STABILITY": mpf("1e-6")}

# Working precision guards the result with ten digits beyond the request, so
# no check can show a wider margin than this.
MARGIN_CAP = 10.0

EXIT_OK, EXIT_NOT_CONVERGED, EXIT_IDENTITY_FAILED = 0, 2, 3


@dataclass(frozen=True)
class Op:
    """One CLI command of a workload and what the benchmark expects of it."""

    args: tuple            # arguments after `python -m kgconst.cli`
    digits: int
    timeout_s: float
    expect_exit: Optional[int] = None  # None: derived from the verify reports
    reference: Optional[str] = None    # key into references() for the value
    converges: bool = True             # counted in digits_margin


@dataclass(frozen=True)
class Check:
    passed: bool
    margin: Optional[float]  # digits by which the check beats its tolerance


@dataclass(frozen=True)
class OpResult:
    failed: bool
    checks: tuple
    reason: str = ""


def _verify(digits, timeout_s):
    return Op(("verify", "all", "--digits", str(digits), "--format", "json"),
              digits, timeout_s)


WORKLOADS = {
    "verify-50": (_verify(50, 30.0),),
    "verify-200": (_verify(200, 60.0),),
    "explore": (
        Op(("trace", "double_series", "--digits", "15"), 15, 30.0,
           expect_exit=EXIT_OK, reference="V"),
        Op(("trace", "double_series", "--digits", "16"), 16, 30.0,
           expect_exit=EXIT_OK, reference="V"),
        Op(("trace", "partial_sum_S", "--digits", "20", "--max-terms", "100000"), 20, 30.0,
           expect_exit=EXIT_NOT_CONVERGED, converges=False),
        Op(("compute", "KC_UPPER", "--digits", "200", "--format", "json"), 200, 30.0,
           expect_exit=EXIT_OK, reference="KC_UPPER"),
    ),
}


def _dps(ops):
    return max(op.digits for op in ops) + 30


def references(ops) -> dict:
    """mpmath values of every reference the given ops use."""
    wanted = {op.reference for op in ops if op.reference}
    refs = {}
    with mp.workdps(_dps(ops)):
        if "V" in wanted:
            refs["V"] = mp.pi / 16 - mp.log(1 + mp.sqrt(2)) ** 2 / 4
        if "KC_UPPER" in wanted:
            def f(x):
                m = x * x
                return (mp.ellipe(m) - (1 - m) * mp.ellipk(m)) / x - mp.pi * (x + 1) / 8
            x0 = mp.findroot(f, (mpf("0.01"), mpf("0.99")), solver="anderson")
            refs["KC_UPPER"] = 8 / (mp.pi * (x0 + 1))
    return refs


def _margin(tol, residual):
    if residual == 0:
        return MARGIN_CAP
    return min(float(mp.log10(tol / residual)), MARGIN_CAP)


def _value_tolerance(digits, ref):
    """10^-digits, but never finer than one unit in the last printed digit."""
    exponent = int(mp.floor(mp.log10(abs(ref)))) if ref != 0 else 0
    return max(mpf(10) ** (-digits), mpf(10) ** (exponent - digits + 1))


def _all_failed(op, n, reason):
    margin = -float(op.digits) if op.converges else None
    return OpResult(True, (Check(False, margin),) * n, reason)


def _check_verify(op, returncode, stdout):
    n = len(IDENTITY_IDS)
    try:
        records = [(r["target"], r["passed"], abs(mpf(r["residual"])))
                   for r in json.loads(stdout)]
    except (ValueError, TypeError, KeyError) as exc:
        return _all_failed(op, n, f"unreadable verify output: {exc}")
    targets = tuple(target for target, _, _ in records)
    if targets != IDENTITY_IDS:
        return _all_failed(op, n, f"unexpected identities {targets}")
    all_passed = all(reported is True for _, reported, _ in records)
    allowed = {EXIT_OK} if all_passed else {EXIT_NOT_CONVERGED, EXIT_IDENTITY_FAILED}
    if returncode not in allowed:
        return _all_failed(op, n, f"exit {returncode}, expected one of {sorted(allowed)}")
    checks = []
    reason = ""
    for target, reported, residual in records:
        tol = TOLERANCE_OVERRIDES.get(target, mpf(10) ** (-op.digits))
        passed = bool(residual < tol)
        # a report that raised prints an infinite residual: it agrees to no digits
        margin = _margin(tol, residual) if mp.isfinite(residual) else -float(op.digits)
        if passed != reported:
            reason = f"{target} reports passed={reported} at residual {mp.nstr(residual, 5)}"
        checks.append(Check(passed, margin))
    return OpResult(bool(reason), tuple(checks), reason)


def _last_value(op, stdout):
    if op.args[0] == "compute":
        return mpf(json.loads(stdout)["value"])
    rows = list(csv.reader(io.StringIO(stdout)))
    if rows[0] != ["index", "value", "residual"] or len(rows) < 2:
        raise ValueError("not a trace table")
    return mpf(rows[-1][1])


def check_op(op: Op, returncode, stdout: str, timed_out: bool, refs: dict) -> OpResult:
    """Judge one finished (or killed) command."""
    n = len(IDENTITY_IDS) if op.expect_exit is None else 1
    if timed_out:
        return _all_failed(op, n, f"timed out after {op.timeout_s} s")
    with mp.workdps(_dps((op,))):
        if op.expect_exit is None:
            return _check_verify(op, returncode, stdout)
        if returncode != op.expect_exit:
            return _all_failed(op, n, f"exit {returncode}, expected {op.expect_exit}")
        if op.reference is None:
            return OpResult(False, (Check(True, None),))
        try:
            value = _last_value(op, stdout)
        except (ValueError, TypeError, KeyError, IndexError) as exc:
            return _all_failed(op, n, f"unreadable output: {exc}")
        ref = refs[op.reference]
        tol = _value_tolerance(op.digits, ref)
        residual = abs(value - ref)
        margin = _margin(tol, residual) if op.converges else None
        return OpResult(False, (Check(bool(residual < tol), margin),))


def summarize_checks(results) -> tuple:
    """(attempted, passed, digits margin) over the checks of many op results."""
    checks = [c for r in results for c in r.checks]
    margins = [c.margin for c in checks if c.margin is not None]
    margin = min(margins) if margins else math.nan
    return len(checks), sum(c.passed for c in checks), margin
