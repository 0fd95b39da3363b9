"""Smoke tests: the runnable scripts still run against the package."""

import os
import subprocess
import sys
from pathlib import Path

from twinwalk import PRESET_NAMES

ROOT = Path(__file__).resolve().parents[1]


def test_ratio_convergence_prints_one_row_per_preset():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ratio_convergence.py"), "--steps", "40"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    rows = [line.split()[0] for line in result.stdout.splitlines()[2:]]
    assert rows == list(PRESET_NAMES)
