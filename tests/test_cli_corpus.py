"""The golden CLI corpus: the stdout, stderr and exit code of every command
below, byte for byte.

The commands are `list`; every `compute` target at 20 and 200 digits;
`verify all` at 20, 50, 200 and 500 digits in each format; each single
`verify` and each `trace` at default flags; and two traces at other flags.
Each command's stdout is the file tests/data/cli/<name>; status.json holds
its exit code and stderr.  A few of them also run as python -m kgconst.cli
processes, whose exit path (cli.main) no in-process call takes.  A change
that moves a printed string rewrites the files with

    PYTHONPATH=src python tests/test_cli_corpus.py

and says in its commit which files and fields moved, and why.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp

from conftest import clear_memos
from kgconst import IdentityId, cli

CORPUS = Path(__file__).parent / "data" / "cli"
SRC = Path(__file__).parent.parent / "src"
STATUS = CORPUS / "status.json"

COMMANDS = [
    ["list"],
    *(["compute", name, "--digits", digits]
      for name in cli._CONSTANTS for digits in ("20", "200")),
    *(["verify", "all", "--digits", digits, "--format", fmt]
      for digits in ("20", "50", "200", "500") for fmt in ("text", "json", "csv")),
    *(["verify", ident.value] for ident in IdentityId),
    *(["trace", target] for target in cli._TRACE_TARGETS),
    ["trace", "double_series", "--digits", "15"],
    ["trace", "partial_sum_S", "--max-terms", "100000"],
]


def file_name(argv):
    """verify all --digits 50 --format json -> verify-all-digits-50-format-json.json"""
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else (
        "csv" if argv[0] == "trace" else "text")
    return "-".join(arg.lstrip("-") for arg in argv) + "." + {"text": "txt"}.get(fmt, fmt)


def run_cli(argv):
    """(exit code, stdout, stderr) of cli.run(argv) with the memos cleared,
    at mpmath's default precision, as in a fresh process."""
    clear_memos()
    out, err = io.StringIO(), io.StringIO()
    with mp.workprec(53), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def test_corpus_holds_exactly_these_commands():
    names = [file_name(argv) for argv in COMMANDS]
    assert len(set(names)) == len(COMMANDS) == 54
    assert set(json.loads(STATUS.read_text())) == set(names)
    assert {p.name for p in CORPUS.iterdir()} == {*names, STATUS.name}


@pytest.mark.parametrize("argv", COMMANDS, ids=file_name)
def test_output_matches_corpus(argv):
    code, out, err = run_cli(argv)
    status = json.loads(STATUS.read_text())[file_name(argv)]
    assert out.encode() == (CORPUS / file_name(argv)).read_bytes()
    assert (code, err) == (status["exit"], status["stderr"])


@pytest.mark.parametrize("argv, to_file", [
    (["list"], False),
    (["verify", "all", "--digits", "20", "--format", "json"], False),
    (["trace", "partial_sum_S", "--max-terms", "100000"], False),
    (["compute", "PI", "--digits", "20"], True),
], ids=["list", "verify-all-json", "trace-over-its-cap", "compute-to-out-file"])
def test_process_output_matches_corpus(argv, to_file, tmp_path):
    out_file = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out_flag = ["--out", str(out_file)] if to_file else []
    proc = subprocess.run([sys.executable, "-m", "kgconst.cli", *argv, *out_flag],
                          capture_output=True, env=env, timeout=60)
    status = json.loads(STATUS.read_text())[file_name(argv)]
    printed = out_file.read_bytes() if to_file else proc.stdout
    assert printed == (CORPUS / file_name(argv)).read_bytes()
    if to_file:
        assert proc.stdout == b""
    assert (proc.returncode, proc.stderr.decode()) == (status["exit"], status["stderr"])


if __name__ == "__main__":
    CORPUS.mkdir(parents=True, exist_ok=True)
    status = {}
    for argv in COMMANDS:
        code, out, err = run_cli(argv)
        (CORPUS / file_name(argv)).write_bytes(out.encode())
        status[file_name(argv)] = {"exit": code, "stderr": err}
    STATUS.write_text(json.dumps(status, indent=1) + "\n")
