"""Smoke test: every script in demos/ runs to the end.

Each runs in its own process from an empty working directory, so files a
demo writes (determinant_scan.py writes determinant_demo.csv) stay out of
the repository.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_demos_run(tmp_path):
    scripts = sorted((ROOT / "demos").glob("*.py"))
    assert len(scripts) == 4
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for script in scripts:
        proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, f"{script.name}: {proc.stderr}"
