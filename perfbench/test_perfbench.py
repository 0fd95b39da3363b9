"""Tests of the benchmark's own output checks and tracing.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from twinwalk import cli  # noqa: E402

COIN = (0.6, 0.0, 0.0, 0.8)
STEPS = 40


@pytest.fixture(scope="module")
def timeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "timeline.csv"
    result = CliRunner().invoke(
        cli.main,
        ["run", "--coin", *map(repr, COIN), "--steps", str(STEPS), "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    return out.read_text(encoding="utf-8"), result.stdout


def _edit_field(text: str, step: int, column: int, delta: float) -> str:
    lines = text.splitlines()
    fields = lines[step].split(",")
    fields[column] = repr(float(fields[column]) + delta)
    lines[step] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_good_timeline_passes(timeline, tmp_path):
    text, stdout = timeline
    path = tmp_path / "timeline.csv"
    path.write_text(text, encoding="utf-8")
    assert checks.check_run_long(path, stdout, COIN, STEPS) == []


@pytest.mark.parametrize(
    "step, column, delta",
    [
        (30, 1, 1e-6),   # p0 of a late row: p0 + p1 != 1
        (30, 6, 1e-6),   # ratio0 no longer entropy0 / max_entropy
        (5, 3, 1e-6),    # entropy0 of an early row: path-sum mismatch
        (25, 5, 1e-6),   # max_entropy is not log2(t)
    ],
)
def test_corrupted_timeline_row_fails(timeline, tmp_path, step, column, delta):
    text, stdout = timeline
    path = tmp_path / "timeline.csv"
    path.write_text(_edit_field(text, step, column, delta), encoding="utf-8")
    assert checks.check_run_long(path, stdout, COIN, STEPS)


def test_wrong_header_or_summary_fails(timeline, tmp_path):
    text, stdout = timeline
    path = tmp_path / "timeline.csv"
    path.write_text(text.replace("ratio1", "ratio_1", 1), encoding="utf-8")
    assert checks.check_run_long(path, stdout, COIN, STEPS)
    path.write_text(text, encoding="utf-8")
    summary = json.loads(stdout)
    summary["asymptotic_ratio"]["c1"] += 1e-6
    assert checks.check_run_long(path, json.dumps(summary), COIN, STEPS)


def _write_bundle(out_dir: Path, wrong: str | None = None) -> None:
    entries = {}
    for preset, first in (("4a", 1), ("4b", 4), ("4c", 7), ("4e", 10)):
        ratios = dict(zip(("c0", "c1"), checks.PINNED_RATIOS[preset]))
        for offset, outcome in enumerate(("c0", "c1")):
            entries[f"fig{first + offset:02d}.csv"] = {
                "preset": preset, "outcome": outcome,
                "asymptotic_ratio": ratios[outcome],
            }
        entries[f"fig{first + 2:02d}.csv"] = {
            "preset": preset, "outcome": None, "asymptotic_ratio": ratios,
        }
    if wrong is not None:
        entries[wrong]["asymptotic_ratio"] += 1e-6
    for name in entries:
        (out_dir / name).write_text("step\n", encoding="utf-8")
    (out_dir / "manifest.json").write_text(
        json.dumps({"steps": 1000, "files": entries}), encoding="utf-8")


def test_pinned_manifest_passes(tmp_path):
    _write_bundle(tmp_path)
    assert checks.check_figures(tmp_path) == []


def test_wrong_manifest_ratio_fails(tmp_path):
    _write_bundle(tmp_path, wrong="fig05.csv")
    assert checks.check_figures(tmp_path)


def test_missing_figure_file_fails(tmp_path):
    _write_bundle(tmp_path)
    (tmp_path / "fig12.csv").unlink()
    assert checks.check_figures(tmp_path)


def test_verify_report_with_a_failure_fails():
    good = "PASS  a  max_error=0  tol=1e-12\nPASS  b  max_error=0  tol=1e-12\n2/2 checks passed\n"
    assert checks.check_verify(good) == []
    bad = "PASS  a  max_error=0  tol=1e-12\nFAIL  b  max_error=1  tol=1e-12\n1/2 checks passed\n"
    assert checks.check_verify(bad)


def _traced_job(tmp_path: Path, argv: list[str]) -> dict:
    result, spans_path = tmp_path / "result.json", tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(HERE / "job.py"), str(result), str(spans_path), "--", *argv],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    dumped = json.loads(spans_path.read_text(encoding="utf-8"))
    assert dumped["counter_errors"] == []
    return spans.layer_metrics(dumped["spans"])


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["run", "--preset", "4e", "--steps", "200", "--out", "{out}/t.csv"],
         {"experiment.steps": 200, "render.write.calls": 1}),
        (["figures", "--steps", "30", "--out-dir", "{out}/figs"],
         {"experiment.steps": 4 * 30, "render.write.calls": 13}),
        (["verify", "--depth", "5", "--random-states", "2", "--seed", "3"],
         {"verification.failed_checks": 0}),
    ],
)
def test_two_traced_runs_give_identical_counts(tmp_path, argv, expected):
    counts = []
    for attempt in ("first", "second"):
        out = tmp_path / attempt
        out.mkdir()
        metrics = _traced_job(out, [a.replace("{out}", str(out)) for a in argv])
        counts.append(spans.exact_counts(metrics))
    assert counts[0] == counts[1]
    for name, value in expected.items():
        assert counts[0][name] == value
    assert any(value > 0 for value in counts[0].values())


def test_missing_function_is_reported_absent():
    recorder = spans.Recorder()
    recorder.install(targets=[("states.gone", "twinwalk.states", "no_such_function", None)])
    assert recorder.absent == ["twinwalk.states.no_such_function"]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layers = [(name, unit, better) for name, unit, better, _ in spans.PER_LAYER]
    layers.append(("trace.overhead_s", "s", "lower"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
