"""``import vbvar`` stays light.  The modules below are for tests and
oracles; scipy.stats, scipy.integrate and sympy each add 0.3-1 s and
19-39 MB to an import, which every run of the CLI would pay."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("scipy.stats", "scipy.integrate", "scipy.optimize", "sympy", "mpmath", "hypothesis")


def test_import_leaves_heavy_modules_unloaded():
    # a fresh interpreter: this one has loaded them for other tests
    code = ("import sys, vbvar, vbvar.cli; "
            f"print(sorted(m for m in {HEAVY!r} if m in sys.modules))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
