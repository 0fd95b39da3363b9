"""Smoke tests: the runnable scripts still run against the package."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import twinwalk.experiment
from twinwalk import PRESETS

ROOT = Path(__file__).resolve().parents[1]


def run_from_source(*args):
    """Run ``python *args`` with the source checkout's ``src`` on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def run_ratio_convergence(*args):
    return run_from_source(str(ROOT / "scripts" / "ratio_convergence.py"), *args)


@pytest.mark.parametrize("flag, expected", [("--version", "0.1.0"), ("--help", "Usage:")])
def test_module_entry_point_runs_from_source(flag, expected):
    result = run_from_source("-m", "twinwalk", flag)
    assert result.returncode == 0, result.stderr
    assert expected in result.stdout
    assert "Traceback" not in result.stderr


def test_ratio_convergence_prints_one_row_per_preset():
    result = run_ratio_convergence("--steps", "40")
    assert result.returncode == 0, result.stderr
    rows = [line.split()[0] for line in result.stdout.splitlines()[2:]]
    assert rows == list(PRESETS)


@pytest.mark.parametrize(
    "args, message",
    [
        (["--steps", "0"], "--steps must be at least 2, got 0"),
        (["--steps", "1"], "--steps must be at least 2, got 1"),
        (["--steps", "40", "--window", "0"], "--window must be within 1..39, got 0"),
        (["--steps", "40", "--window", "100"], "--window must be within 1..39, got 100"),
        # a window of all 40 steps reaches t = 1, where the ratio is undefined
        (["--steps", "40", "--window", "40"], "--window must be within 1..39, got 40"),
        (["--steps", "1000001"], "--steps must be at most 1000000, got 1000001"),
        (["--steps", str(10**11)], f"--steps must be at most 1000000, got {10**11}"),
    ],
)
def test_ratio_convergence_rejects_bad_arguments(args, message):
    result = run_ratio_convergence(*args)
    assert result.returncode == 2
    assert message in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_ratio_convergence_evolves_once(monkeypatch, capsys):
    # all five presets come from one real run
    true_blocks = twinwalk.experiment.branch_blocks
    calls = []

    def counted_blocks(n):
        calls.append(n)
        return true_blocks(n)

    monkeypatch.setattr(twinwalk.experiment, "branch_blocks", counted_blocks)
    monkeypatch.setattr(sys, "argv", ["ratio_convergence.py", "--steps", "40"])
    with pytest.raises(SystemExit) as exited:
        runpy.run_path(str(ROOT / "scripts" / "ratio_convergence.py"), run_name="__main__")
    assert exited.value.code == 0
    assert calls == [40]
    assert len(capsys.readouterr().out.splitlines()) == 2 + len(PRESETS)
