import gc
import json
import sys
import time

import pytest
from mpmath import mp, mpf

from kgconst import (
    IdentityId,
    NoConvergence,
    PrecisionContext,
    elliptic,
    khintchine,
    series,
)
from kgconst.cli import (
    EXIT_IDENTITY_FAILED,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_USAGE,
    _trace_rows,
    main,
    run,
)

COMPUTE_TARGETS = ("PI", "L", "S", "KG", "A0", "HAAGERUP", "X0", "KC_UPPER", "KHINTCHINE")
TRACE_TARGETS = ("double_series", "partial_sum_S", "khintchine_partial")


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def significant_digits(text):
    """The number of significant digits a printed value carries."""
    return len(text.split("e")[0].lstrip("-0.").replace(".", ""))


def assert_unknown_target(code, out, err, targets):
    """A usage error that names every valid target; argparse's quoting of
    the names differs across Python versions, so only the names are read."""
    assert code == EXIT_USAGE
    assert out == ""
    assert "invalid choice" in err
    named = set(err.split("choose from", 1)[1].replace("'", " ").replace(",", " ")
                .replace("(", " ").replace(")", " ").split())
    assert named == set(targets)


def residual_digits_of(carried, residual, *operands):
    """The significant digits of a residual between values that carry
    `carried` digits: those above the operands' last digit, at least one."""
    top = max(mp.floor(mp.log10(abs(mpf(x)))) for x in operands)
    return max(1, carried - int(top - mp.floor(mp.log10(mpf(residual)))))


def half_unit(text):
    """Half a unit of the last significant digit of a printed value."""
    lead = mp.floor(mp.log10(abs(mpf(text))))
    return mpf(10) ** (lead - significant_digits(text) + 1) / 2


def assert_digits_of_khinchin(text):
    """Every printed digit is right: the value is within half a unit of its
    last digit of Khintchine's constant."""
    with mp.workdps(40):
        assert abs(mpf(text) - mp.khinchin) < half_unit(text), text


class TestCompute:
    def test_text_default(self, capsys):
        code, out, err = invoke(capsys, "compute", "KG")
        assert code == EXIT_OK
        assert out == "KG = 1.7822139781913691118\n"

    def test_json(self, capsys):
        code, out, _ = invoke(capsys, "compute", "PI", "--digits", "25",
                              "--format", "json")
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["target"] == "PI"
        assert record["value"].startswith("3.141592653589793238462643")
        assert record["runtime_ms"] == 0.0

    def test_csv(self, capsys):
        code, out, _ = invoke(capsys, "compute", "L", "--format", "csv")
        assert code == EXIT_OK
        header, row = out.strip().splitlines()
        assert header == "target,value,runtime_ms,paper_anchor"
        assert row.startswith("L,0.88137358701954302523")

    def test_prints_every_requested_digit(self, capsys):
        # a fresh CLI process runs at mpmath's default precision, not the
        # 80 digits the test bodies get
        with mp.workdps(15):
            code, out, _ = invoke(capsys, "compute", "KC_UPPER", "--digits", "60",
                                  "--format", "json")
        assert code == EXIT_OK
        with mp.workdps(90):
            def f(x):
                m = x * x
                return (mp.ellipe(m) - (1 - m) * mp.ellipk(m)) / x - mp.pi * (x + 1) / 8
            x0 = mp.findroot(f, (mpf("0.01"), mpf("0.99")), solver="anderson")
            reference = 8 / (mp.pi * (x0 + 1))
            assert abs(mpf(json.loads(out)["value"]) - reference) < mpf(10) ** -59

    def test_unknown_constant(self, capsys):
        assert_unknown_target(*invoke(capsys, "compute", "NOPE"), COMPUTE_TARGETS)

    def test_khintchine_printed_to_the_digits_it_carries(self, capsys):
        code, out, _ = invoke(capsys, "compute", "KHINTCHINE", "--digits", "60")
        assert code == EXIT_OK
        value = out.strip().split(" = ")[1]
        assert significant_digits(value) == khintchine.PRODUCT_DIGITS
        assert_digits_of_khinchin(value)

    def test_not_converged(self, capsys, monkeypatch):
        def fail(ctx):
            raise NoConvergence("root solve stalled")

        monkeypatch.setattr(elliptic, "solve_x0", fail)
        code, out, err = invoke(capsys, "compute", "X0")
        assert code == EXIT_NOT_CONVERGED
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_not_converged_at_the_residual_gate(self, capsys, monkeypatch):
        # a solver that returns a point that is not a root: solve_x0's
        # residual gate, not the solver, reports it
        monkeypatch.setattr(mp, "findroot", lambda *args, **kwargs: mpf("0.3"))
        code, out, err = invoke(capsys, "compute", "X0")
        assert code == EXIT_NOT_CONVERGED
        assert out == ""
        assert err.startswith("error: root residual")
        assert "Traceback" not in err

    def test_invalid_digits(self, capsys):
        code, _, err = invoke(capsys, "compute", "PI", "--digits", "5")
        assert code == EXIT_USAGE

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "kg.json"
        code, out, _ = invoke(capsys, "compute", "KG", "--format", "json",
                              "--out", str(path))
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(path.read_text())["target"] == "KG"


class TestVerify:
    def test_single_identity_text(self, capsys):
        code, out, _ = invoke(capsys, "verify", "KG_DEFINITION")
        assert code == EXIT_OK
        assert out.startswith("PASS KG_DEFINITION:")

    def test_single_identity_json_object(self, capsys):
        code, out, _ = invoke(capsys, "verify", "LEGENDRE_RELATION",
                              "--format", "json")
        assert code == EXIT_OK
        record = json.loads(out)
        assert isinstance(record, dict)
        assert record["passed"] is True
        assert record["digits_agreed"] >= 19

    def test_all_json_array(self, capsys):
        code, out, _ = invoke(capsys, "verify", "all", "--format", "json")
        assert code == EXIT_OK
        records = json.loads(out)
        assert isinstance(records, list)
        assert len(records) == 18
        assert all(r["passed"] for r in records)

    def test_all_byte_deterministic(self, capsys):
        _, first, _ = invoke(capsys, "verify", "all", "--digits", "20",
                             "--format", "json")
        _, second, _ = invoke(capsys, "verify", "all", "--digits", "20",
                              "--format", "json")
        assert first == second

    def test_timings_fill_only_runtime_ms(self, capsys):
        argv = ("verify", "all", "--digits", "20", "--format", "json")
        code, out, _ = invoke(capsys, *argv, "--timings")
        assert code == EXIT_OK
        timed = json.loads(out)
        assert len(timed) == 18
        assert all(r.pop("runtime_ms") > 0 for r in timed)
        _, out, _ = invoke(capsys, *argv)
        assert timed == [{k: v for k, v in r.items() if k != "runtime_ms"}
                         for r in json.loads(out)]

    def test_khintchine_printed_to_the_digits_it_carries(self, capsys):
        # the product carries the 15 digits of its binary64 sums and the
        # zeta-series reference 30; neither is padded to --digits with the
        # binary expansion of its last bits, and their residual, near 5e-17,
        # carries only the digits above the product's last one: one digit,
        # the same at every --digits
        residuals = []
        for digits in ("20", "50", "500"):
            code, out, _ = invoke(capsys, "verify", "KHINTCHINE_STABILITY",
                                  "--digits", digits, "--format", "json")
            assert code == EXIT_OK
            record = json.loads(out)
            residuals.append(record["residual"])
        assert significant_digits(record["lhs"]) == khintchine.PRODUCT_DIGITS
        assert significant_digits(record["rhs"]) == khintchine.REFERENCE_DIGITS
        expected = residual_digits_of(khintchine.PRODUCT_DIGITS, record["residual"],
                                      record["lhs"], record["rhs"])
        assert expected == 1
        assert significant_digits(record["residual"]) == expected
        assert residuals == [residuals[0]] * 3
        for key in ("lhs", "rhs"):
            assert_digits_of_khinchin(record[key])
        with mp.workdps(40):
            assert abs(mpf(record["rhs"]) - mp.khinchin) < mpf("1e-28")

    def test_khintchine_failure_prints_infinite_residual(self, capsys, monkeypatch):
        def fail(ctx):
            raise NoConvergence("accelerated product did not converge")

        monkeypatch.setattr(khintchine, "khintchine_accelerated", fail)
        code, out, err = invoke(capsys, "verify", "KHINTCHINE_STABILITY", "--format", "json")
        assert code == EXIT_NOT_CONVERGED
        assert json.loads(out)["residual"] == "+inf"
        assert err == ""

    @pytest.fixture
    def haagerup_off(self, monkeypatch):
        # the quadrature route off by a relative 10^-12, far beyond the
        # tolerance, so HAAGERUP_CONSISTENCY fails with a finite residual
        quadrature = elliptic.haagerup_bound_quadrature
        monkeypatch.setattr(elliptic, "haagerup_bound_quadrature",
                            lambda ctx: quadrature(ctx) * (1 + mpf(10) ** -12))

    def test_failed_identity_exits_3(self, capsys, haagerup_off):
        code, out, err = invoke(capsys, "verify", "all", "--digits", "20", "--format", "json")
        assert code == EXIT_IDENTITY_FAILED
        assert err == ""
        records = json.loads(out)
        assert [r["target"] for r in records if not r["passed"]] == ["HAAGERUP_CONSISTENCY"]
        [record] = [r for r in records if not r["passed"]]
        assert mpf("1e-12") < mpf(record["residual"]) < mpf("2e-12")
        code, out, _ = invoke(capsys, "verify", "HAAGERUP_CONSISTENCY")
        assert code == EXIT_IDENTITY_FAILED
        assert out.startswith("FAIL HAAGERUP_CONSISTENCY:")

    def test_not_converged_wins_over_failed(self, capsys, monkeypatch, haagerup_off):
        def fail(ctx):
            raise NoConvergence("accelerated product did not converge")

        monkeypatch.setattr(khintchine, "khintchine_accelerated", fail)
        code, out, _ = invoke(capsys, "verify", "all", "--digits", "20", "--format", "json")
        assert code == EXIT_NOT_CONVERGED
        assert {r["target"] for r in json.loads(out) if not r["passed"]} == {
            "HAAGERUP_CONSISTENCY", "KHINTCHINE_STABILITY"}

    def test_unknown_identity(self, capsys):
        assert_unknown_target(*invoke(capsys, "verify", "MYSTERY"),
                              ["all", *(ident.value for ident in IdentityId)])


class TestDigitLadder:
    """Every printed digit is right: at --digits d, each value that compute,
    verify all and trace print is within half a unit of its last digit of a
    reference: the same quantity at 2d + 20 digits or, for the Khintchine
    product and its zeta-series check, Khintchine's constant at 40 digits.

    Each nonzero verify residual but KHINTCHINE_STABILITY's (which has its
    own test) prints the digits its working-precision sides carry above
    their last one, at most d.  It is not held to the residual at 2d + 20
    digits: for an exact identity that is 0, and a printed residual is the
    rounding of the sides, which that deeper run does not reproduce.

    The Khintchine trace rows print 15 digits at every --digits, so their
    references are 40-digit values: up to 1000 factors, the exponential of
    the mp.fsum of the mp.log terms, and above, the constant less the
    Euler-Maclaurin tail (whose next term is below 5e-21 at 10^4 factors).
    Each trace residual is held to the distance of the row's reference from
    the same-precision limit, except the accelerated row's, whose reference
    is the constant itself.  The series traces print no rows where they need
    more than --max-terms terms.
    """

    @pytest.mark.parametrize("digits", [20, 60])
    def test_every_printed_digit_is_right(self, capsys, digits):
        deeper = 2 * digits + 20
        with mp.workdps(40):
            khinchin = +mp.khinchin
        printed = []  # (name, printed value, reference)

        def read(kind, target, at):
            code, out, _ = invoke(capsys, kind, target, "--digits", str(at),
                                  *(() if kind == "trace" else ("--format", "json")))
            if kind == "trace":
                return code, [row.split(",") for row in out.splitlines()[1:]]
            assert code == EXIT_OK
            return code, json.loads(out)

        for name in COMPUTE_TARGETS:
            value = read("compute", name, digits)[1]["value"]
            reference = (khinchin if name == "KHINTCHINE"
                         else mpf(read("compute", name, deeper)[1]["value"]))
            printed.append((name, value, reference))
        records = read("verify", "all", digits)[1]
        references = read("verify", "all", deeper)[1]
        working_dps = PrecisionContext(digits=digits).working_dps
        overprinted = [
            (record["target"], residual) for record in records
            if record["target"] != "KHINTCHINE_STABILITY" and mpf(residual := record["residual"])
            and significant_digits(residual) != min(digits, residual_digits_of(
                working_dps, residual, record["lhs"], record["rhs"]))]
        assert overprinted == []
        for record, reference in zip(records, references):
            for side in ("lhs", "rhs"):
                printed.append((f"{record['target']} {side}", record[side],
                                khinchin if record["target"] == "KHINTCHINE_STABILITY"
                                else mpf(reference[side])))
        for target in TRACE_TARGETS:
            code, rows = read("trace", target, digits)
            if code != EXIT_OK:  # needs more than --max-terms terms
                assert rows == [] and target != "khintchine_partial"
                continue
            marks = [int(index) for index, _, _ in rows if index != "accelerated"]
            deeper_ctx = PrecisionContext(digits=deeper)
            if target == "khintchine_partial":
                final = khinchin
                with mp.workdps(40):
                    terms = [mp.log(n) / mp.log(2) * mp.log1p(mpf(1) / (n * (n + 2)))
                             for n in range(1, 1001)]
                    references = [mp.exp(mp.fsum(terms[:n])) if n <= 1000
                                  else khinchin / mp.exp(khintchine._em_log_tail(n))
                                  for n in marks] + [khinchin]
            else:
                squared = target == "double_series"
                references = series.partial_sums(marks, deeper_ctx, squared=squared)
                final = (series.double_series(deeper_ctx).value if squared
                         else series.limit_S(deeper_ctx))
            printed += [(f"{target} {index}", value, reference)
                        for (index, value, _), reference in zip(rows, references)]
            with mp.workdps(deeper + 10):
                printed += [(f"{target} {index} residual", residual, abs(reference - final))
                            for (index, _, residual), reference in zip(rows, references)
                            if index != "accelerated"]

        with mp.workdps(deeper + 10):
            wrong = [(name, value) for name, value, reference in printed
                     if not abs(mpf(value) - reference) < half_unit(value)]
        assert wrong == []
        assert len(printed) > 2 * len(IdentityId) + len(COMPUTE_TARGETS)


class TestList:
    def test_sections_present(self, capsys):
        code, out, _ = invoke(capsys, "list")
        assert code == EXIT_OK
        assert "constants:" in out
        assert "identities:" in out
        assert "trace targets:" in out
        for name in ("KG", "HAAGERUP", "KHINTCHINE"):
            assert name in out
        assert "KG_DEFINITION" in out


class TestMain:
    """main() is the process entry point, the kgconst script and
    python -m kgconst.cli: it exits with run()'s code after one gc.freeze()."""

    @pytest.fixture
    def freezes(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append(True))
        return calls

    @pytest.mark.parametrize("argv, code", [(["list"], EXIT_OK),
                                            (["compute", "NOPE"], EXIT_USAGE)])
    def test_exits_with_the_code_of_run_after_one_freeze(
            self, capsys, monkeypatch, freezes, argv, code):
        monkeypatch.setattr(sys, "argv", ["kgconst", *argv])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == code
        assert freezes == [True]
        assert capsys.readouterr() == invoke(capsys, *argv)[1:]

    def test_run_does_not_freeze(self, capsys, freezes):
        assert invoke(capsys, "list")[0] == EXIT_OK
        assert freezes == []


class TestTrace:
    def test_double_series_checkpoints(self, capsys):
        code, out, _ = invoke(capsys, "trace", "double_series", "--digits", "12")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "index,value,residual"
        indices = [int(line.split(",")[0]) for line in lines[1:]]
        # powers of ten then the final term count
        assert indices[:3] == [1, 10, 100]
        assert indices[-1] == max(indices)

    def test_partial_sum_trace(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        code, out, _ = invoke(capsys, "trace", "partial_sum_S", "--digits", "10",
                              "--out", str(path))
        assert code == EXIT_OK
        assert out == ""
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,value,residual"
        assert len(lines) > 2

    def test_khintchine_default_flags(self, capsys):
        code, out, _ = invoke(capsys, "trace", "khintchine_partial")
        assert code == EXIT_OK
        last = out.strip().splitlines()[-1].split(",")
        assert last[0] == "accelerated"
        assert mpf(last[2]) < mpf("1e-6")

    def test_khintchine_printed_to_the_digits_it_carries(self, capsys):
        # the rows' values carry the product's 15 digits, and their
        # residuals against the 30-digit zeta-series value only the digits
        # above the product's last one, so the accelerated row's residual is
        # the same at every --digits
        accelerated = []
        for digits in ("20", "50", "500"):
            code, out, _ = invoke(capsys, "trace", "khintchine_partial", "--digits", digits)
            assert code == EXIT_OK
            rows = [line.split(",") for line in out.strip().splitlines()[1:]]
            assert rows[-1][0] == "accelerated"
            accelerated.append(rows[-1][2])
        final = khintchine.zeta_series_value()
        for _, value, residual in rows:
            assert significant_digits(value) == khintchine.PRODUCT_DIGITS
            assert significant_digits(residual) == residual_digits_of(
                khintchine.PRODUCT_DIGITS, residual, value, final)
        assert significant_digits(accelerated[0]) == 1
        assert accelerated == [accelerated[0]] * 3
        assert_digits_of_khinchin(rows[-1][1])

    def test_khintchine_rows_sum_each_mark_once(self, capsys, monkeypatch):
        # each partial-product row is khintchine_partial's product at its
        # mark, one _log_sum call each, up to 10^6 factors; the accelerated
        # row is khintchine_accelerated's own call
        ctx = PrecisionContext(digits=20)
        marks = [1, 10, 100, 1000, 1999]
        _, rows, _ = _trace_rows("khintchine_partial", ctx, 1999)
        assert [(n, value) for n, value, _ in rows] == [
            (N, khintchine.khintchine_partial(N, ctx).value) for N in marks]
        calls = []
        log_sum = khintchine._log_sum
        monkeypatch.setattr(khintchine, "_log_sum",
                            lambda N: (calls.append(N), log_sum(N))[1])
        assert invoke(capsys, "trace", "khintchine_partial")[0] == EXIT_OK
        assert calls == [1, 10, 100, 1000, 10 ** 4, 10 ** 5, 10 ** 6,
                         khintchine.ACCEL_TERMS]
        # below the accelerated row's factor count, the marks are all
        calls.clear()
        code = invoke(capsys, "trace", "khintchine_partial", "--max-terms", "1999")[0]
        assert code == EXIT_NOT_CONVERGED
        assert calls == marks

    def test_khintchine_max_terms_below_accelerated(self, capsys):
        # the accelerated row sums ACCEL_TERMS factors, so a cap of
        # one factor ends on the one-factor product, which is 1
        code, out, _ = invoke(capsys, "trace", "khintchine_partial", "--max-terms", "1")
        assert code == EXIT_NOT_CONVERGED
        lines = out.strip().splitlines()
        assert lines[0] == "index,value,residual"
        assert [line.split(",")[0] for line in lines[1:]] == ["1"]

    def test_unknown_target(self, capsys):
        assert_unknown_target(*invoke(capsys, "trace", "mystery_series"), TRACE_TARGETS)

    def test_out_file_holds_the_printed_bytes(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        argv = ("trace", "double_series", "--digits", "12")
        code, printed, _ = invoke(capsys, *argv)
        assert code == EXIT_OK
        code, out, _ = invoke(capsys, *argv, "--out", str(path))
        assert code == EXIT_OK
        assert out == ""
        assert path.read_bytes() == printed.encode()

    def test_truncated_trace_not_converged(self, capsys):
        code, out, _ = invoke(capsys, "trace", "double_series", "--digits", "12",
                              "--max-terms", "50")
        assert code == EXIT_NOT_CONVERGED

    def test_capped_series_trace_fails_fast(self, capsys):
        # 20 digits need about 3.5e9 terms, far above the default cap
        needed = series._terms_to_tolerance(20)
        start = time.perf_counter()
        code, out, err = invoke(capsys, "trace", "partial_sum_S")
        assert time.perf_counter() - start < 0.5
        assert code == EXIT_NOT_CONVERGED
        assert out == ""
        assert f"N = {needed} " in err


class TestUsage:
    def test_no_command(self, capsys):
        code, _, _ = invoke(capsys)
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [("--help",), ("trace", "--help")])
    def test_help_exits_0(self, capsys, argv):
        # argparse prints the help and exits 0; the text itself is not pinned
        code, out, err = invoke(capsys, *argv)
        assert code == EXIT_OK
        assert out.splitlines()[0].startswith("usage: kgconst")
        assert err == ""

    def test_bad_format(self, capsys):
        code, _, _ = invoke(capsys, "compute", "PI", "--format", "xml")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_max_terms_below_one(self, capsys, value):
        code, out, err = invoke(capsys, "trace", "partial_sum_S", "--max-terms", value)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--max-terms" in err

    def test_digits_above_ceiling(self, capsys):
        code, out, err = invoke(capsys, "verify", "all", "--digits", "501")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--digits" in err

    @pytest.mark.parametrize("argv", [
        ("list", "--digits", "30"),
        ("list", "--format", "json"),
        ("verify", "all", "--max-terms", "5"),
        ("trace", "double_series", "--format", "json"),
        ("compute", "PI", "--timings"),
    ])
    def test_option_not_taken_by_subcommand(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("argv", [
        ("compute", "PI"),
        ("verify", "KG_DEFINITION"),
        ("list",),
        ("trace", "double_series", "--digits", "12"),
    ])
    def test_unwritable_out(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "out.txt"
        code, out, err = invoke(capsys, *argv, "--out", str(path))
        assert code == EXIT_NOT_CONVERGED
        assert out == ""
        assert err.startswith(f"error: cannot write {path}")
        assert "Traceback" not in err
