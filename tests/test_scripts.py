"""Smoke tests: the runnable scripts still run against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from twinwalk import PRESET_NAMES

ROOT = Path(__file__).resolve().parents[1]


def run_ratio_convergence(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ratio_convergence.py"), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def test_ratio_convergence_prints_one_row_per_preset():
    result = run_ratio_convergence("--steps", "40")
    assert result.returncode == 0, result.stderr
    rows = [line.split()[0] for line in result.stdout.splitlines()[2:]]
    assert rows == list(PRESET_NAMES)


@pytest.mark.parametrize(
    "args, message",
    [
        (["--steps", "0"], "--steps must be at least 2, got 0"),
        (["--steps", "1"], "--steps must be at least 2, got 1"),
        (["--steps", "40", "--window", "0"], "--window must be within 1..39, got 0"),
        (["--steps", "40", "--window", "100"], "--window must be within 1..39, got 100"),
        # a window of all 40 steps reaches t = 1, where the ratio is undefined
        (["--steps", "40", "--window", "40"], "--window must be within 1..39, got 40"),
    ],
)
def test_ratio_convergence_rejects_bad_arguments(args, message):
    result = run_ratio_convergence(*args)
    assert result.returncode == 2
    assert message in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""
