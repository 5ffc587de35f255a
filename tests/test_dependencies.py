import ast
import os
import subprocess
import sys
from pathlib import Path

import kgconst

# third-party top-level packages that a fresh `import kgconst, kgconst.cli` loads
LOADED = """
import sys
before = set(sys.modules)
import kgconst, kgconst.cli
print(sorted({m.split('.')[0] for m in set(sys.modules) - before}
             - set(sys.stdlib_module_names)))
"""


# standard modules that a fresh `import kgconst.cli` need not load:
# dataclasses pulls in inspect, and with it dis, ast and tokenize
SLOW_STDLIB = """
import sys
before = set(sys.modules)
import kgconst.cli
print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))
"""


def fresh_python(code):
    """The stdout of code run by a fresh interpreter that imports this package."""
    src = str(Path(kgconst.__file__).resolve().parents[1])
    # mpmath's optional gmpy backend belongs to mpmath, not to this package
    env = dict(os.environ, PYTHONPATH=src, MPMATH_NOGMPY="1")
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_cli_import_loads_mpmath_only():
    assert fresh_python(LOADED) == "['kgconst', 'mpmath']\n"


def test_cli_import_loads_no_dataclasses_or_inspect():
    assert fresh_python(SLOW_STDLIB) == "[]\n"


# mpmath's own quadrature and numerical differentiation: the package
# integrates by its two rules, quadrature.integrate_analytic and
# quadrature.integrate_even_periodic, and differentiates in closed form
MPMATH_QUADRATURE = {"quad", "quadts", "quadgl", "diff"}


def test_no_mpmath_quadrature_or_numerical_derivative():
    used = []
    for path in sorted(Path(kgconst.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in MPMATH_QUADRATURE
                    and isinstance(node.value, ast.Name) and node.value.id == "mp"):
                used.append(f"{path.name}:{node.lineno} mp.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "mpmath":
                used += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                         if alias.name in MPMATH_QUADRATURE]
    assert used == []
