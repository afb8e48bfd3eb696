"""The example scripts run to completion against the library."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_scripts_run(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    runs = [("prefactor_sweep.py", ["--n", "100,400"]),
            ("expurgation_demo.py", ["--seeds", "1", "--trials", "500"]),
            ("fig1_curves.py", ["--points", "2", "--outdir", str(tmp_path)])]
    for script, args in runs:
        proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, f"{script}: {proc.stderr}"
