"""Command-line interface: constant computation, identity verification, and
convergence-trace emission.

Grammar (each subcommand takes only the options listed for it)::

    kgconst compute <CONST> [--digits N] [--format text|json|csv] [--out PATH]
    kgconst verify <IDENTITY|all> [--digits N] [--format text|json|csv]
                   [--out PATH] [--timings]
    kgconst list [--out PATH]
    kgconst trace <TARGET> [--digits N] [--max-terms N] [--out PATH]

Exit codes: 0 success/verified, 2 not converged, a series trace needing
more than --max-terms terms, or --out not writable, 3 identity failed beyond
tolerance, 64 usage error (--digits outside 10..MAX_DIGITS, --max-terms
below 1, an unknown target, or an option the subcommand does not take).

Numbers are serialized as decimal strings carrying exactly ``digits``
significant digits, or fewer where the value carries fewer (_value,
_residual), never as binary floats.  Output is byte-deterministic for
identical argv; measured runtimes are therefore suppressed (reported as 0.0)
unless --timings is given.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import sys

from mpmath import mp

from . import elliptic, identities, khintchine, series
from .core import (GUARD_DIGITS, MIN_DIGITS, KgconstError, NoConvergence, PrecisionContext,
                   const_KG, const_L, const_pi)

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_IDENTITY_FAILED = 3
EXIT_USAGE = 64
# the highest --digits accepted; verify all is tested up to it
MAX_DIGITS = 500
# the default --max-terms: the most terms a series trace sums
DEFAULT_MAX_TERMS = 10_000_000


_CONSTANTS = {
    "PI": (const_pi, "ratio of circumference to diameter"),
    "L": (const_L, "ln(1+sqrt(2)), the a0 integral up to 8/pi"),
    "S": (series.limit_S, "limit of the alternating partial sums, (sqrt(2)/2) L"),
    "KG": (const_KG, "Grothendieck-Krivine constant pi/(2L)"),
    "A0": (lambda ctx: series.fourier_a(0, ctx), "zeroth Fourier coefficient (8/pi) L"),
    "HAAGERUP": (elliptic.haagerup_bound, "Haagerup's complex bound 1/(2K(i)-E(i))"),
    "X0": (lambda ctx: elliptic.solve_x0(ctx).x0, "root of the complex-case equation"),
    "KC_UPPER": (elliptic.kc_upper, "Krivine complex upper limit 8/(pi(x0+1))"),
    "KHINTCHINE": (lambda ctx: khintchine.khintchine_accelerated(ctx).value,
                   f"Khintchine product, Euler-Maclaurin tail "
                   f"({khintchine.PRODUCT_DIGITS} digits)"),
}

_TRACE_TARGETS = ("double_series", "partial_sum_S", "khintchine_partial")

# the digits the values of some identities, constants and trace targets carry:
# (lhs or value, rhs or a trace's final value); every other value carries all
# the requested digits
_CARRIED_DIGITS = dict.fromkeys(
    ("KHINTCHINE_STABILITY", "KHINTCHINE", "khintchine_partial"),
    (khintchine.PRODUCT_DIGITS, khintchine.REFERENCE_DIGITS))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int_in(low, high=None):
    """argparse type: an integer >= low and, unless high is None, <= high."""
    def integer(text):
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if value < low or (high is not None and value > high):
            bound = f">= {low}" if value < low else f"<= {high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value
    return integer


def _build_parser() -> _Parser:
    parser = _Parser(prog="kgconst", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "--digits": {"type": _int_in(MIN_DIGITS, MAX_DIGITS), "default": 20},
        "--max-terms": {"type": _int_in(1), "default": DEFAULT_MAX_TERMS},
        "--format": {"choices": ("text", "json", "csv"), "default": "text"},
        "--out": {},
        "--timings": {"action": "store_true"},
    }
    for name, help_text, handler, targets, names in (
        ("compute", "compute one named constant", _run_compute, list(_CONSTANTS),
         "--digits --format --out"),
        ("verify", "verify one identity, or 'all'", _run_verify,
         ["all", *(ident.value for ident in identities.IdentityId)],
         "--digits --format --out --timings"),
        ("list", "list constants and identities", _run_list, None, "--out"),
        ("trace", "emit a convergence trace as CSV", _run_trace, _TRACE_TARGETS,
         "--digits --max-terms --out"),
    ):
        p = sub.add_parser(name, help=help_text)
        if targets:
            p.add_argument("target", choices=targets, metavar="target")
        for option in names.split():
            p.add_argument(option, **options[option])
        # trace takes no --format and always writes CSV, list text; set for
        # compute or verify, this default would override the one --format declares
        p.set_defaults(handler=handler, **({"trace": {"format": "csv"},
                                            "list": {"format": "text"}}.get(name, {})))
    return parser


def _nstr(value, digits):
    # format the value's own binary digits; converting it at mpmath's default
    # 53-bit precision would keep only about 16 of them
    with mp.workdps(digits + GUARD_DIGITS):
        text = mp.nstr(mp.convert(value), digits, strip_zeros=False)
    return text.replace(".e", "e").rstrip(".")  # one digit: "7.e-17" as "7e-17"


def _residual(ctx, name, residual, a, b):
    """residual = |a - b|, printed to the significant digits it carries.

    a and b carry the digits _CARRIED_DIGITS gives name, and at most the
    working ones, so each is known only to the absolute precision of its
    last digit: the residual carries the digits above it, the operands'
    digits less the decades between max(|a|, |b|) and the residual (at
    least one, at most ctx.digits).  A zero or the infinite residual of a
    failed report prints every digit the operands carry.
    """
    carried = min(_CARRIED_DIGITS.get(name, ()) + (ctx.working_dps,))
    if residual and mp.isfinite(residual):
        decades = mp.floor(mp.log10(max(abs(a), abs(b)))) - mp.floor(mp.log10(residual))
        carried = max(1, carried - int(decades))
    return _nstr(residual, min(ctx.digits, carried))


def _value(ctx, name, value, side=0):
    """A value of name (side 0: lhs or value, 1: rhs) printed to the
    digits it carries, at most ctx.digits."""
    return _nstr(value, min(ctx.digits, _CARRIED_DIGITS.get(name, (ctx.digits,) * 2)[side]))


def _write(ns, records, lines=()):
    """Emit records as JSON (one object, or a list for 'all'), as CSV, or as
    the text lines."""
    if ns.format == "json":
        text = json.dumps(records if ns.target == "all" else records[0], indent=2) + "\n"
    elif ns.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(records[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)
        text = buf.getvalue()
    else:
        text = "\n".join(lines) + "\n"
    if ns.out:
        with open(ns.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_record(report, ns, ctx):
    name, lhs, rhs = report.id.value, report.lhs, report.rhs
    return {
        "target": name,
        "lhs": _value(ctx, name, lhs),
        "rhs": _value(ctx, name, rhs, 1),
        "residual": _residual(ctx, name, report.residual, lhs, rhs),
        "digits_agreed": report.digits_agreed,
        "passed": report.passed,
        "runtime_ms": report.runtime_ms if ns.timings else 0.0,
        "paper_anchor": identities.anchor(report.id),
    }


def _run_compute(ns) -> int:
    ctx = PrecisionContext(digits=ns.digits)
    fn, description = _CONSTANTS[ns.target]
    value = fn(ctx)
    record = {
        "target": ns.target,
        "value": _value(ctx, ns.target, value),
        "runtime_ms": 0.0,
        "paper_anchor": description,
    }
    _write(ns, [record], [f"{ns.target} = {record['value']}"])
    return EXIT_OK


def _run_verify(ns) -> int:
    ctx = PrecisionContext(digits=ns.digits)
    reports = (identities.verify_all(ctx) if ns.target == "all"
               else [identities.verify(ns.target, ctx)])
    records = [_report_record(r, ns, ctx) for r in reports]
    _write(ns, records, [f"{'PASS' if rec['passed'] else 'FAIL'} {rec['target']}: "
                         f"residual={rec['residual']} digits_agreed={rec['digits_agreed']}"
                         for rec in records])
    not_converged = any(r.error and r.error.startswith("NoConvergence") for r in reports)
    if not all(r.passed for r in reports):
        return EXIT_NOT_CONVERGED if not_converged else EXIT_IDENTITY_FAILED
    return EXIT_OK


def _run_list(ns) -> int:
    lines = ["constants:"]
    for name, (_, description) in _CONSTANTS.items():
        lines.append(f"  {name:12s} {description}")
    lines.append("identities:")
    for ident in identities.IdentityId:
        lines.append(f"  {ident.value:34s} {identities.anchor(ident)}")
    lines.append("trace targets:")
    for name in _TRACE_TARGETS:
        lines.append(f"  {name}")
    _write(ns, [], lines)
    return EXIT_OK


def _checkpoints(final_n):
    points = []
    n = 1
    while n < final_n:
        points.append(n)
        n *= 10
    points.append(final_n)
    return points


def _trace_rows(target, ctx, max_terms):
    """The final value, the (index, partial value, residual vs final value)
    rows, and the tolerance the last row's residual must meet.

    A series target sums up to the closed-form term count that meets
    ctx.tolerance, and raises NoConvergence before summing when that
    count exceeds max_terms.  The Khintchine rows end with the accelerated
    value when max_terms covers its factor count, and their residuals are
    taken against khintchine.zeta_series_value, mpmath's zeta series.
    """
    if target == "khintchine_partial":
        final, tol = khintchine.zeta_series_value(), khintchine.STABILITY_TOLERANCE
        marks = _checkpoints(min(10 ** 6, max_terms))
        values = [khintchine.khintchine_partial(N, ctx).value for N in marks]
        if max_terms >= khintchine.ACCEL_TERMS:
            marks.append("accelerated")
            values.append(khintchine.khintchine_accelerated(ctx).value)
    else:
        squared = target == "double_series"
        needed = series._terms_to_tolerance(ctx.digits, squared=squared)
        if needed > max_terms:
            raise NoConvergence(
                f"trace {target} needs N = {needed} terms to reach tolerance "
                f"{ctx.tolerance}, more than --max-terms {max_terms}")
        final = series.double_series(ctx).value if squared else series.limit_S(ctx)
        tol = ctx.tolerance
        marks = _checkpoints(needed)
        values = series.partial_sums(marks, ctx, squared=squared)
    with ctx.workprec():
        return final, [(n, value, abs(value - final)) for n, value in zip(marks, values)], tol


def _run_trace(ns) -> int:
    ctx = PrecisionContext(digits=ns.digits)
    final, rows, tol = _trace_rows(ns.target, ctx, ns.max_terms)
    _write(ns, [{"index": index, "value": _value(ctx, ns.target, value),
                 "residual": _residual(ctx, ns.target, residual, value, final)}
                for index, value, residual in rows])
    return EXIT_OK if rows[-1][2] < tol else EXIT_NOT_CONVERGED


def run(argv) -> int:
    """Parse argv and execute; returns the process exit code."""
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return ns.handler(ns)
    except OSError as exc:
        print(f"error: cannot write {ns.out or 'stdout'}: {exc}",
              file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except KgconstError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED


def main() -> None:
    code = run(sys.argv[1:])
    # the process is ending, and the collections the interpreter runs at exit
    # would traverse every object it built (mpmath's, kgconst's, site's) only
    # to find nothing to free; frozen objects are skipped.  atexit and the
    # flush of stdout and stderr still run.  Only the process entry point
    # freezes: in-process callers of run() keep normal collection.
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    main()
