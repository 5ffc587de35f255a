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
below 1, or an option the subcommand does not take).

Numbers are serialized as decimal strings carrying exactly ``digits``
significant digits, or fewer where the value carries fewer
(identities.printed_digits), never as binary floats.  Output is
byte-deterministic for identical argv; measured runtimes are therefore
suppressed (reported as 0.0) unless --timings is given.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from mpmath import mp

from . import elliptic, identities, khintchine, series
from .core import GUARD_DIGITS, MIN_DIGITS, PrecisionContext, const_KG, const_L, const_pi
from .errors import KgconstError, MaxTermsExceeded

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_IDENTITY_FAILED = 3
EXIT_USAGE = 64
# the highest --digits accepted; verify all is tested up to it
MAX_DIGITS = 500
# the default --max-terms: the most terms a series trace sums
DEFAULT_MAX_TERMS = 10_000_000


def _fourier_a0(ctx):
    return series.fourier_a(0, ctx).value


_CONSTANTS = {
    "PI": (const_pi, "ratio of circumference to diameter"),
    "L": (const_L, "ln(1+sqrt(2)), the a0 integral up to 8/pi"),
    "S": (series.limit_S, "limit of the alternating partial sums, (sqrt(2)/2) L"),
    "KG": (const_KG, "Grothendieck-Krivine constant pi/(2L)"),
    "A0": (_fourier_a0, "zeroth Fourier coefficient (8/pi) L"),
    "HAAGERUP": (elliptic.haagerup_bound, "Haagerup's complex bound 1/(2K(i)-E(i))"),
    "X0": (lambda ctx: elliptic.solve_x0(ctx).x0, "root of the complex-case equation"),
    "KC_UPPER": (elliptic.kc_upper, "Krivine complex upper limit 8/(pi(x0+1))"),
    "KHINTCHINE": (lambda ctx: khintchine.khintchine_accelerated(ctx).value,
                   "Khintchine product (accurate to ~6-8 digits by construction)"),
}

_TRACE_TARGETS = ("double_series", "partial_sum_S", "khintchine_partial")


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
        "target": {},
        "--digits": {"type": _int_in(MIN_DIGITS, MAX_DIGITS), "default": 20},
        "--max-terms": {"type": _int_in(1), "default": DEFAULT_MAX_TERMS},
        "--format": {"choices": ("text", "json", "csv"), "default": "text"},
        "--out": {},
        "--timings": {"action": "store_true"},
    }
    for name, help_text, handler, names in (
        ("compute", "compute one named constant", _run_compute,
         "target --digits --format --out"),
        ("verify", "verify one identity, or 'all'", _run_verify,
         "target --digits --format --out --timings"),
        ("list", "list constants and identities", _run_list, "--out"),
        ("trace", "emit a convergence trace as CSV", _run_trace,
         "target --digits --max-terms --out"),
    ):
        p = sub.add_parser(name, help=help_text)
        for option in names.split():
            p.add_argument(option, **options[option])
        p.set_defaults(handler=handler)
    return parser


def _nstr(value, digits):
    # format the value's own binary digits; converting it at mpmath's default
    # 53-bit precision would keep only about 16 of them
    with mp.workdps(digits + GUARD_DIGITS):
        return mp.nstr(mp.convert(value), digits, strip_zeros=False)


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write(ns, records, lines):
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
    _emit(text, ns.out)


def _report_record(report, ns):
    digits = identities.printed_digits(report.id, ns.digits)
    return {
        "target": report.id.value,
        "lhs": _nstr(report.lhs, digits),
        "rhs": _nstr(report.rhs, digits),
        "residual": _nstr(report.residual, digits),
        "digits_agreed": report.digits_agreed,
        "passed": report.passed,
        "runtime_ms": report.runtime_ms if ns.timings else 0.0,
        "paper_anchor": identities.anchor(report.id),
    }


def _run_compute(ns) -> int:
    if ns.target not in _CONSTANTS:
        print(f"error: unknown constant {ns.target!r}; valid targets: "
              f"{', '.join(_CONSTANTS)}", file=sys.stderr)
        return EXIT_USAGE
    ctx = PrecisionContext(digits=ns.digits)
    fn, description = _CONSTANTS[ns.target]
    value = fn(ctx)
    record = {
        "target": ns.target,
        "value": _nstr(value, identities.printed_digits(ns.target, ns.digits)),
        "runtime_ms": 0.0,
        "paper_anchor": description,
    }
    _write(ns, [record], [f"{ns.target} = {record['value']}"])
    return EXIT_OK


def _run_verify(ns) -> int:
    valid = [i.value for i in identities.REGISTRY_ORDER]
    ctx = PrecisionContext(digits=ns.digits)
    if ns.target == "all":
        reports = identities.verify_all(ctx)
    elif ns.target in valid:
        reports = [identities.verify(ns.target, ctx)]
    else:
        print(f"error: unknown identity {ns.target!r}; valid targets: "
              f"all, {', '.join(valid)}", file=sys.stderr)
        return EXIT_USAGE
    records = [_report_record(r, ns) for r in reports]
    _write(ns, records, [f"{'PASS' if rec['passed'] else 'FAIL'} {rec['target']}: "
                         f"residual={rec['residual']} digits_agreed={rec['digits_agreed']}"
                         for rec in records])
    not_converged = any("error" in r.params and "NoConvergence" in r.params["error"]
                        for r in reports)
    if not all(r.passed for r in reports):
        return EXIT_NOT_CONVERGED if not_converged else EXIT_IDENTITY_FAILED
    return EXIT_OK


def _run_list(ns) -> int:
    lines = ["constants:"]
    for name, (_, description) in _CONSTANTS.items():
        lines.append(f"  {name:12s} {description}")
    lines.append("identities:")
    for ident in identities.REGISTRY_ORDER:
        lines.append(f"  {ident.value:34s} {identities.anchor(ident)}")
    lines.append("trace targets:")
    for name in _TRACE_TARGETS:
        lines.append(f"  {name}")
    _emit("\n".join(lines) + "\n", ns.out)
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
    """(index, partial value, residual vs final value) rows.

    A series target sums up to the closed-form term count that meets
    ctx.tolerance, and raises MaxTermsExceeded before summing when that
    count exceeds max_terms.  The Khintchine rows end with the accelerated
    value when max_terms covers its factor count, and their residuals are
    taken against khintchine.zeta_series_value, mpmath's zeta series.
    """
    if target == "khintchine_partial":
        final = khintchine.zeta_series_value()
        marks = _checkpoints(min(10 ** 6, max_terms))
        values = [khintchine.khintchine_partial(n, ctx).value for n in marks]
        if max_terms >= 2 * khintchine.ACCEL_BASE_TERMS:
            marks.append("accelerated")
            values.append(khintchine.khintchine_accelerated(ctx).value)
    else:
        squared = target == "double_series"
        with ctx.workprec():
            needed = (series._pure_truncation_N(ctx.tolerance) if squared
                      else series._inner_truncation_N(ctx.tolerance, ctx))
        if needed > max_terms:
            raise MaxTermsExceeded(
                f"trace {target} needs N = {needed} terms to reach tolerance "
                f"{ctx.tolerance}, more than --max-terms {max_terms}")
        final = series.double_series(ctx).value if squared else series.limit_S(ctx)
        marks = _checkpoints(needed)
        values = series.partial_sums(marks, ctx, squared=squared)
    with ctx.workprec():
        return [(n, value, abs(value - final)) for n, value in zip(marks, values)]


def _run_trace(ns) -> int:
    if ns.target not in _TRACE_TARGETS:
        print(f"error: unknown trace target {ns.target!r}; valid targets: "
              f"{', '.join(_TRACE_TARGETS)}", file=sys.stderr)
        return EXIT_USAGE
    ctx = PrecisionContext(digits=ns.digits)
    rows = _trace_rows(ns.target, ctx, ns.max_terms)
    digits = identities.printed_digits(ns.target, ns.digits)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "value", "residual"])
    for index, value, residual in rows:
        writer.writerow([index, _nstr(value, digits), _nstr(residual, digits)])
    _emit(buf.getvalue(), ns.out)
    final_residual = rows[-1][2]
    tol = (khintchine.STABILITY_TOLERANCE if ns.target == "khintchine_partial"
           else ctx.tolerance)
    with ctx.workprec():
        return EXIT_OK if final_residual < tol else EXIT_NOT_CONVERGED


def run(argv) -> int:
    """Parse argv and execute; returns the process exit code."""
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
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
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
