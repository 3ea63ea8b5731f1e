"""Smoke tests of the scripts under scripts/: they run against the current
library API and write what they promise."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_compare_methods_writes_both_reports(tmp_path):
    out = tmp_path / "demo.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_methods.py"), "--t", "80",
         "--draws", "400", "--burn-in", "100", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert set(payload) == {"conjugate", "independent"}
    assert payload["conjugate"]["meta"]["prior_type"] == "conjugate"
    assert payload["independent"]["provenance"]["n_draws"] == 400
