"""Smoke tests: the runnable scripts still run against the package."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import twinwalk.experiment
from twinwalk.figures import build_figure_bundle

ROOT = Path(__file__).resolve().parents[1]
RATIO_CONVERGENCE = str(ROOT / "scripts" / "ratio_convergence.py")


def run_from_source(*args):
    """Run ``python *args`` with the source checkout's ``src`` on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def run_ratio_convergence(monkeypatch, capsys, *args):
    """Run the script in this process as ``__main__``: (exit code, stdout,
    stderr).  Any exception but its exit propagates, so a traceback fails."""
    monkeypatch.setattr(sys, "argv", ["ratio_convergence.py", *args])
    with pytest.raises(SystemExit) as exited:
        runpy.run_path(RATIO_CONVERGENCE, run_name="__main__")
    out, err = capsys.readouterr()
    return exited.value.code, out, err


def manifest_rows(steps, window=None):
    """The table rows the script should print: each comparison figure's
    preset, window-mean ratios, mean x/t and mirror distance, as ``%.6f``."""
    _, manifest = build_figure_bundle(steps, window)
    rows = []
    for entry in manifest["files"].values():
        if entry["outcome"] is None:
            ratios, walker = entry["asymptotic_ratio"], entry["single_walker"]
            values = (
                ratios["c0"], ratios["c1"], walker["mean_position_over_t"], walker["mirror_distance"]
            )
            rows.append([entry["preset"], *("null" if v is None else "%.6f" % v for v in values)])
    return rows


@pytest.mark.parametrize("flag, expected", [("--version", "0.1.0"), ("--help", "Usage:")])
def test_module_entry_point_runs_from_source(flag, expected):
    result = run_from_source("-m", "twinwalk", flag)
    assert result.returncode == 0, result.stderr
    assert expected in result.stdout
    assert "Traceback" not in result.stderr


def test_ratio_convergence_prints_one_row_per_preset(monkeypatch, capsys):
    code, out, err = run_ratio_convergence(monkeypatch, capsys, "--steps", "40")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "steps=40  window=4 (trailing mean)"
    assert lines[1].split() == ["preset", "ratio", "c0", "ratio", "c1", "mean", "x/t", "mirror", "TV"]
    rows = [line.split() for line in lines[2:]]
    # one row per plotted preset (4d is 4c's mixing rows), each the manifest's
    assert [row[0] for row in rows] == ["4a", "4b", "4c", "4e"]
    assert rows == manifest_rows(40)
    assert "null" not in out


@pytest.mark.parametrize(
    "args, steps",
    [(["--steps", "40", "--window", "40"], 40), (["--steps", "1"], 1)],
    ids=["window-equals-steps", "one-step"],
)
def test_ratio_convergence_window_of_all_steps_prints_null(monkeypatch, capsys, args, steps):
    # the window reaches t = 1, where the ratio is undefined; `run` and
    # `figures` report it as null too
    code, out, err = run_ratio_convergence(monkeypatch, capsys, *args)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == f"steps={steps}  window={steps} (trailing mean)"
    rows = [line.split() for line in out.splitlines()[2:]]
    assert rows == manifest_rows(steps, steps)
    assert [row[1:3] for row in rows] == [["null", "null"]] * 4
    assert all("null" not in row[3:] for row in rows)


@pytest.mark.parametrize(
    "args, message",
    [
        (["--steps", "0"], "steps must be >= 1, got 0"),
        (["--steps", "-5"], "steps must be >= 1, got -5"),
        (["--steps", "40", "--window", "0"], "window must be within 1..40, got 0"),
        (["--steps", "40", "--window", "41"], "window must be within 1..40, got 41"),
        (["--steps", "40", "--window", "100"], "window must be within 1..40, got 100"),
        (["--steps", "1000001"], "steps must be at most 1000000, got 1000001"),
        (["--steps", str(10**11)], f"steps must be at most 1000000, got {10**11}"),
    ],
    ids=[
        "zero-steps",
        "negative-steps",
        "zero-window",
        "window-past-steps",
        "window-far-past-steps",
        "steps-past-max",
        "steps-far-past-max",
    ],
)
def test_ratio_convergence_rejects_bad_arguments(monkeypatch, capsys, args, message):
    def must_not_evolve(n):
        raise AssertionError("evolved before the arguments were checked")

    monkeypatch.setattr(twinwalk.experiment, "branch_blocks", must_not_evolve)
    code, out, err = run_ratio_convergence(monkeypatch, capsys, *args)
    assert code == 2
    assert err.endswith(f"ratio_convergence.py: error: {message}\n")
    assert "Traceback" not in err
    assert out == ""


def test_ratio_convergence_evolves_once(monkeypatch, capsys):
    # all four plotted presets come from one real run
    true_blocks = twinwalk.experiment.branch_blocks
    calls = []

    def counted_blocks(n):
        calls.append(n)
        return true_blocks(n)

    monkeypatch.setattr(twinwalk.experiment, "branch_blocks", counted_blocks)
    code, out, _ = run_ratio_convergence(monkeypatch, capsys, "--steps", "40")
    assert code == 0
    assert calls == [40]
    assert len(out.splitlines()) == 2 + 4
