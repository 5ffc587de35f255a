import json
import time

import pytest
from mpmath import mp, mpf

from kgconst import NoConvergence, PrecisionContext, elliptic, series
from kgconst.cli import (
    EXIT_IDENTITY_FAILED,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_USAGE,
    run,
)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def significant_digits(text):
    """The number of significant digits a printed value carries."""
    return len(text.split("e")[0].lstrip("-0.").replace(".", ""))


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
        code, _, err = invoke(capsys, "compute", "NOPE")
        assert code == EXIT_USAGE
        assert "valid targets" in err

    def test_khintchine_printed_to_the_digits_it_carries(self, capsys):
        code, out, _ = invoke(capsys, "compute", "KHINTCHINE", "--digits", "60")
        assert code == EXIT_OK
        value = out.strip().split(" = ")[1]
        assert significant_digits(value) == 30
        with mp.workdps(40):
            assert abs(mpf(value) - mp.khinchin) < mpf("1e-15")

    def test_not_converged(self, capsys, monkeypatch):
        def fail(ctx):
            raise NoConvergence("root solve stalled")

        monkeypatch.setattr(elliptic, "solve_x0", fail)
        code, out, err = invoke(capsys, "compute", "X0")
        assert code == EXIT_NOT_CONVERGED
        assert out == ""
        assert err.startswith("error: ")
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

    def test_khintchine_printed_to_the_digits_it_carries(self, capsys):
        # the 30-digit zeta-series reference and the product are not padded
        # to --digits with the binary expansion of their last bits
        code, out, _ = invoke(capsys, "verify", "KHINTCHINE_STABILITY",
                              "--digits", "500", "--format", "json")
        assert code == EXIT_OK
        record = json.loads(out)
        for key in ("lhs", "rhs", "residual"):
            assert significant_digits(record[key]) == 30, (key, record[key])
        with mp.workdps(40):
            assert abs(mpf(record["rhs"]) - mp.khinchin) < mpf("1e-28")

    def test_unknown_identity(self, capsys):
        code, _, err = invoke(capsys, "verify", "MYSTERY")
        assert code == EXIT_USAGE
        assert "valid targets" in err


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
        # the rows' values and their residuals against the 30-digit
        # zeta-series value carry at most 30 digits
        code, out, _ = invoke(capsys, "trace", "khintchine_partial", "--digits", "60")
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert rows[-1][0] == "accelerated"
        assert all(significant_digits(field) == 30 for row in rows for field in row[1:])

    def test_khintchine_max_terms_below_accelerated(self, capsys):
        # the accelerated row sums 2 * ACCEL_BASE_TERMS factors, so a cap of
        # one factor ends on the one-factor product, which is 1
        code, out, _ = invoke(capsys, "trace", "khintchine_partial", "--max-terms", "1")
        assert code == EXIT_NOT_CONVERGED
        lines = out.strip().splitlines()
        assert lines[0] == "index,value,residual"
        assert [line.split(",")[0] for line in lines[1:]] == ["1"]

    def test_unknown_target(self, capsys):
        code, _, err = invoke(capsys, "trace", "mystery_series")
        assert code == EXIT_USAGE
        assert "valid targets" in err

    def test_truncated_trace_not_converged(self, capsys):
        code, out, _ = invoke(capsys, "trace", "double_series", "--digits", "12",
                              "--max-terms", "50")
        assert code == EXIT_NOT_CONVERGED

    def test_capped_series_trace_fails_fast(self, capsys):
        # 20 digits need about 3.5e9 terms, far above the default cap
        ctx = PrecisionContext(digits=20)
        needed = series._inner_truncation_N(ctx.tolerance, ctx)
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
