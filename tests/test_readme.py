"""README.md's Python examples run as written.

Each fenced ``python`` block, an indented one inside a list item included,
runs in a fresh namespace at mpmath's default precision, as a user would
paste it.  The quadrature example is also held to what its last comment
claims.
"""

import re
import textwrap
from pathlib import Path

import pytest
from mpmath import mp, mpf

README = Path(__file__).parent.parent / "README.md"
FENCE = re.compile(r"^( *)```python\n(.*?)^\1```$", re.M | re.S)


def python_blocks():
    return [textwrap.dedent(code) for _, code in FENCE.findall(README.read_text())]


def run_block(code):
    namespace = {"__name__": "readme"}
    with mp.workprec(53):
        exec(compile(code, str(README), "exec"), namespace)
    return namespace


def test_readme_has_its_examples():
    # the library-usage example and the quadrature example
    assert len(python_blocks()) == 2


@pytest.mark.parametrize("index", range(len(python_blocks())))
def test_block_runs(index):
    run_block(python_blocks()[index])


def test_quadrature_example_gives_k_of_one_half():
    [code] = [code for code in python_blocks() if "integrate_even_periodic" in code]
    assert "K(0.5) = 1.6857503548126 to 30 digits, from 65 nodes" in code
    res = run_block(code)["res"]
    with mp.workdps(60):
        exact = mp.ellipk(mpf("0.25"))  # K(k) takes the parameter m = k^2
        assert mp.nstr(exact, 14) == "1.6857503548126"
        assert abs(res.value - exact) < mpf(10) ** -30
    assert res.evaluations == 65
