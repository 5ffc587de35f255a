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


def test_cli_import_loads_mpmath_only():
    src = str(Path(kgconst.__file__).resolve().parents[1])
    # mpmath's optional gmpy backend belongs to mpmath, not to this package
    env = dict(os.environ, PYTHONPATH=src, MPMATH_NOGMPY="1")
    result = subprocess.run([sys.executable, "-c", LOADED], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "['kgconst', 'mpmath']\n"
