"""The demos' printed output, byte for byte.

Each demos/<name>.py runs in-process with the memos cleared, at mpmath's
default precision, as in a fresh process, and its stdout is compared with
tests/data/demos/<name>.txt.  A change that moves a printed string
rewrites the files with

    PYTHONPATH=src python tests/test_demos.py

and says in its commit which files moved, and why.
"""

import contextlib
import io
import runpy
from pathlib import Path

import pytest
from mpmath import mp

from conftest import clear_memos

DEMOS = Path(__file__).parent.parent / "demos"
GOLDEN = Path(__file__).parent / "data" / "demos"


def demo_paths():
    return sorted(DEMOS.glob("*.py"))


def run_demo(path):
    """The stdout of the demo at path, run as __main__."""
    clear_memos()
    out = io.StringIO()
    with mp.workprec(53), contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


def test_every_demo_has_its_golden():
    assert len(demo_paths()) == 4
    assert {p.stem for p in GOLDEN.iterdir()} == {p.stem for p in demo_paths()}


@pytest.mark.parametrize("path", demo_paths(), ids=lambda p: p.stem)
def test_demo_output_matches_golden(path):
    assert run_demo(path).encode() == (GOLDEN / f"{path.stem}.txt").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for path in demo_paths():
        (GOLDEN / f"{path.stem}.txt").write_bytes(run_demo(path).encode())
