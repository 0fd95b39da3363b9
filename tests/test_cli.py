import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import twinwalk.evolution
import twinwalk.experiment
import twinwalk.verification
from twinwalk.cli import RunSpec, main, parse_run_spec, write_run_spec
from twinwalk.figures import MANIFEST_NAME, write_figure_bundle
from twinwalk.render import TIMELINE_HEADER
from testutil import step_rows


@pytest.fixture
def runner():
    return CliRunner()


def split_csv_and_summary(output):
    body, _, summary = output.partition("\n\n")
    return body.strip().splitlines(), json.loads(summary)


def test_run_stdout_rows_and_summary(runner):
    result = runner.invoke(main, ["run", "--preset", "4a", "--steps", "3"])
    assert result.exit_code == 0, result.output
    rows, summary = split_csv_and_summary(result.output)
    assert rows[0] == TIMELINE_HEADER
    assert len(rows) == 4
    entropy0 = float(rows[3].split(",")[3])
    assert entropy0 == pytest.approx(1.2516, abs=5e-5)
    assert summary["preset"] == "4a"
    assert set(summary["asymptotic_ratio"]) == {"c0", "c1"}


def test_run_first_row_rendering(runner):
    result = runner.invoke(main, ["run", "--preset", "4a", "--steps", "3"])
    rows, _ = split_csv_and_summary(result.output)
    assert rows[1] == "1,0.5,0.5,0,0,0,,"


def test_run_writes_file_and_summary(runner, tmp_path):
    out = tmp_path / "timeline.csv"
    summary_out = tmp_path / "summary.json"
    result = runner.invoke(
        main,
        [
            "run",
            "--preset",
            "4e",
            "--steps",
            "20",
            "--out",
            str(out),
            "--summary-out",
            str(summary_out),
        ],
    )
    assert result.exit_code == 0, result.output
    lines = out.read_text().strip().splitlines()
    assert lines[0] == TIMELINE_HEADER
    assert len(lines) == 21
    stdout_summary = json.loads(result.output)
    file_summary = json.loads(summary_out.read_text())
    assert stdout_summary == file_summary
    assert file_summary["steps"] == 20
    assert file_summary["window"] == 2


@pytest.mark.parametrize("option", ["--out", "--summary-out", "--save-spec"])
@pytest.mark.parametrize("target", ["missing-directory", "existing-directory"])
def test_run_write_error_names_the_requested_path(runner, tmp_path, option, target):
    # the file cannot be made (its directory is missing) or cannot replace
    # what is there (a directory); the error names the path asked for, not
    # the temporary file written beside it, and leaves no temporary file
    path = tmp_path / "missing" / "x.out"
    if target == "existing-directory":
        path = tmp_path / "x.out"
        path.mkdir()
    result = runner.invoke(main, ["run", "--preset", "4a", "--steps", "5", option, str(path)])
    assert result.exit_code == 1
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and errors[0].endswith(f": '{path}'"), result.output
    assert "Traceback" not in result.output
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]


def test_run_explicit_coin_matches_preset(runner, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    roota = runner.invoke(
        main, ["run", "--preset", "4a", "--steps", "8", "--out", str(a)]
    )
    rootb = runner.invoke(
        main, ["run", "--coin", "1", "0", "0", "0", "--steps", "8", "--out", str(b)]
    )
    assert roota.exit_code == 0 and rootb.exit_code == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_json_document(runner, tmp_path):
    out = tmp_path / "doc.json"
    result = runner.invoke(
        main,
        ["run", "--preset", "4a", "--steps", "3", "--format", "json", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    document = json.loads(out.read_text())
    assert set(document) == {"spec", "summary", "timeline"}
    assert len(document["timeline"]) == 3
    assert document["timeline"][2]["entropy0"] == pytest.approx(1.2516, abs=5e-5)
    assert document["timeline"][0]["ratio0"] is None
    assert document["spec"]["steps"] == 3


def test_run_requires_exactly_one_source(runner):
    assert runner.invoke(main, ["run"]).exit_code != 0
    result = runner.invoke(
        main, ["run", "--preset", "4a", "--coin", "1", "0", "0", "0"]
    )
    assert result.exit_code != 0


@pytest.mark.parametrize(
    "coin", [("1e200", "0", "0", "0"), ("1e308", "1e308", "0", "0")], ids=["1e200", "1e308"]
)
def test_run_rejects_coin_whose_norm_overflows(runner, coin):
    # finite amplitudes whose squared norm does not fit in a float
    result = runner.invoke(main, ["run", "--coin", *coin, "--steps", "5"])
    assert result.exit_code == 1
    assert "normalized" in result.output
    assert "Traceback" not in result.output


def must_not_evolve(*args, **kwargs):
    raise AssertionError("evolved before the input was validated")


def forbid_evolution(monkeypatch):
    """Make every path that evolves a walk fail the test."""
    for module, name in (
        (twinwalk.evolution, "branch_blocks"),
        (twinwalk.experiment, "branch_blocks"),
    ):
        monkeypatch.setattr(module, name, must_not_evolve)


@pytest.mark.parametrize("steps", [1_000_001, 10**11])
def test_run_rejects_steps_above_ceiling(runner, monkeypatch, steps):
    forbid_evolution(monkeypatch)
    result = runner.invoke(main, ["run", "--preset", "4a", "--steps", str(steps)])
    assert result.exit_code == 1
    assert f"steps must be at most 1000000, got {steps}" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("steps", [1_000_001, 10**11])
def test_figures_rejects_steps_above_ceiling(runner, monkeypatch, tmp_path, steps):
    forbid_evolution(monkeypatch)
    out_dir = tmp_path / "x"
    result = runner.invoke(main, ["figures", "--out-dir", str(out_dir), "--steps", str(steps)])
    assert result.exit_code == 1
    assert f"steps must be at most 1000000, got {steps}" in result.output
    assert "Traceback" not in result.output
    assert not out_dir.exists()


def test_run_rejects_window_larger_than_steps(runner):
    result = runner.invoke(
        main, ["run", "--preset", "4a", "--steps", "5", "--window", "9"]
    )
    assert result.exit_code != 0


def test_run_unwritable_output_path(runner, tmp_path):
    target = tmp_path / "missing" / "timeline.csv"
    result = runner.invoke(
        main, ["run", "--preset", "4a", "--steps", "3", "--out", str(target)]
    )
    assert result.exit_code != 0


def test_run_spec_roundtrip_functions(tmp_path):
    spec = RunSpec(
        re0=math.sqrt(0.85),
        im0=0.0,
        re1=-math.sqrt(0.15),
        im1=0.0,
        steps=77,
        output="timeline.csv",
        format="json",
    )
    path = tmp_path / "spec.json"
    write_run_spec(spec, path)
    assert parse_run_spec(path) == spec
    # the shared integer rule takes a numpy integer step count too; it is
    # written as a plain integer
    write_run_spec(replace(spec, steps=np.int64(77)), path)
    assert parse_run_spec(path) == spec


def test_run_save_spec_then_replay(runner, tmp_path):
    out1 = tmp_path / "one.csv"
    out2 = tmp_path / "two.csv"
    spec_path = tmp_path / "spec.json"
    first = runner.invoke(
        main,
        [
            "run",
            "--preset",
            "4b",
            "--steps",
            "9",
            "--out",
            str(out1),
            "--save-spec",
            str(spec_path),
        ],
    )
    assert first.exit_code == 0, first.output
    replay = runner.invoke(
        main, ["run", "--spec", str(spec_path), "--out", str(out2)]
    )
    assert replay.exit_code == 0, replay.output
    assert out1.read_bytes() == out2.read_bytes()
    assert parse_run_spec(spec_path).steps == 9


def test_run_replays_spec_with_retired_fields(runner, tmp_path):
    # specs from before the walk was fixed to Hadamard from the origin carry
    # start and coin_operator; they load and change no output byte
    spec = {
        "re0": math.sqrt(0.85),
        "im0": 0.0,
        "re1": -math.sqrt(0.15),
        "im1": 0.0,
        "steps": 30,
        "output": None,
        "format": "csv",
    }
    outputs = []
    for name, extra in (("old", {"coin_operator": "hadamard", "start": 2}), ("new", {})):
        spec_path = tmp_path / f"{name}.json"
        spec_path.write_text(json.dumps({**spec, **extra}, indent=2, sort_keys=True))
        out = tmp_path / f"{name}.csv"
        result = runner.invoke(main, ["run", "--spec", str(spec_path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_run_window_of_all_steps_gives_null_ratios(runner):
    # the window reaches t = 1, where the ratio is undefined
    result = runner.invoke(
        main, ["run", "--preset", "4a", "--steps", "10", "--window", "10"]
    )
    assert result.exit_code == 0, result.output
    _, summary = split_csv_and_summary(result.output)
    assert summary["asymptotic_ratio"] == {"c0": None, "c1": None}


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0, result.output
    assert "0.1.0" in result.output


#: the start of the error each malformed spec gives, after "Error: "
MALFORMED_SPECS = {
    "{not json": "cannot read run spec {path}: Expecting property name",
    '{"re0": 1.0}': "run spec {path} is missing coin fields: ['im0', 're1', 'im1']",
    '{"re0": 1, "im0": 0, "re1": 0, "im1": 0, "bogus": 3}': (
        "run spec {path} has unknown fields: ['bogus']"
    ),
    '[1, 2, 3]': "run spec {path} must be a JSON object",
    b'\xff{"re0": 1.0}': "cannot read run spec {path}: 'utf-8' codec can't decode byte 0xff",
}


@pytest.mark.parametrize("content", MALFORMED_SPECS)
def test_run_rejects_malformed_spec(runner, tmp_path, content):
    spec_path = tmp_path / "spec.json"
    if isinstance(content, bytes):
        spec_path.write_bytes(content)
    else:
        spec_path.write_text(content)
    result = runner.invoke(main, ["run", "--spec", str(spec_path)])
    # a ClickException that names the file: exit code 1 and one error line
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("Error: " + MALFORMED_SPECS[content].format(path=spec_path))
    assert result.output.count("Error:") == 1
    assert "Traceback" not in result.output


VALID_SPEC = {"re0": 1.0, "im0": 0.0, "re1": 0.0, "im1": 0.0, "steps": 3}


@pytest.mark.parametrize(
    "field, value",
    [
        ("steps", "10"),
        ("steps", True),
        ("steps", 2.5),
        ("start", False),
        ("start", "0"),
        ("re0", "1"),
        ("im0", True),
        ("re1", None),
        ("im1", float("nan")),
        ("re0", float("inf")),
        ("format", "xml"),
        ("coin_operator", "grover"),
        ("coin_operator", ["hadamard"]),
        ("output", 7),
    ],
)
def test_run_rejects_mistyped_spec_field(runner, tmp_path, field, value):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**VALID_SPEC, field: value}))
    result = runner.invoke(main, ["run", "--spec", str(spec_path)])
    # a ClickException: exit code 1 and an error line, not a traceback
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"Error: {field}" in result.output


@pytest.mark.parametrize(
    "args, error",
    [
        (["--preset", "4a", "--steps", "0"], "steps must be >= 1, got 0"),
        (["--preset", "4a", "--steps", "-3"], "steps must be >= 1, got -3"),
        (
            ["--preset", "4a", "--steps", "0", "--window", "3"],
            "steps must be >= 1, got 0",
        ),
        (
            ["--coin", "1", "0", "1", "0", "--steps", "5", "--window", "9"],
            "coin state must be normalized",
        ),
        (
            ["--coin", "1", "0", "1", "0", "--steps", "3"],
            "coin state must be normalized: |amp0|^2 + |amp1|^2 = 2.0",
        ),
        (
            ["--coin", "1", "0", "1", "0", "--steps", "0"],
            "steps must be >= 1, got 0",
        ),
        # --steps replaces the spec's 0 before anything is checked
        (["--spec", "SPEC", "--steps", "5"], None),
    ],
    ids=[
        "zero-steps",
        "negative-steps",
        "steps-before-window",
        "coin-before-window",
        "unnormalized-coin",
        "steps-before-coin",
        "spec-steps-overridden",
    ],
)
def test_run_reports_the_first_bad_input(runner, tmp_path, args, error):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**VALID_SPEC, "steps": 0}))
    args = [str(spec_path) if arg == "SPEC" else arg for arg in args]
    result = runner.invoke(main, ["run", *args])
    if error is None:
        assert result.exit_code == 0, result.output
    else:
        assert result.exit_code == 1
        assert result.output.startswith(f"Error: {error}")
        assert result.output.count("Error:") == 1
        assert "Traceback" not in result.output


def test_run_accepts_integer_coin_fields(runner, tmp_path):
    # the summary echoes the spec's values in their JSON form: 1, not 1.0
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**VALID_SPEC, "re0": 1, "im0": 0}))
    result = runner.invoke(main, ["run", "--spec", str(spec_path)])
    assert result.exit_code == 0, result.output
    assert '"re0": 1,' in result.output and '"im0": 0,' in result.output
    _, summary = split_csv_and_summary(result.output)
    assert summary["coin"] == {"re0": 1, "im0": 0, "re1": 0.0, "im1": 0.0}
    result = runner.invoke(main, ["run", "--spec", str(spec_path), "--format", "json"])
    assert result.exit_code == 0, result.output
    assert '"re0": 1,' in result.output and '"re0": 1.0' not in result.output
    assert json.loads(result.output)["summary"]["coin"]["im0"] == 0


def test_figures_manifest_lists_only_written_files(runner, tmp_path):
    out_dir = tmp_path / "figs"
    (out_dir / "fig05.csv").mkdir(parents=True)
    result = runner.invoke(main, ["figures", "--out-dir", str(out_dir), "--steps", "5"])
    assert result.exit_code == 1
    assert "error writing fig05.csv" in result.output
    manifest = json.loads((out_dir / MANIFEST_NAME).read_text())
    assert "fig05.csv" not in manifest["files"]
    assert sorted(manifest["files"]) == [
        f"fig{n:02d}.csv" for n in range(1, 13) if n != 5
    ]
    assert (out_dir / "fig04.csv").is_file()


def test_figures_bundle(runner, tmp_path):
    out_dir = tmp_path / "figs"
    result = runner.invoke(
        main, ["figures", "--out-dir", str(out_dir), "--steps", "40"]
    )
    assert result.exit_code == 0, result.output
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == [f"fig{n:02d}.csv" for n in range(1, 13)] + [MANIFEST_NAME]

    fig01 = (out_dir / "fig01.csv").read_text().splitlines()
    assert fig01[0] == "step,entropy,max_entropy,ratio"
    assert len(fig01) == 41

    fig09 = (out_dir / "fig09.csv").read_text().splitlines()
    assert fig09[0] == "step,entropy0,entropy1,ratio0,ratio1,position,probability"
    dist = {}
    for line in fig09[1:]:
        fields = line.split(",")
        if fields[5]:
            dist[int(fields[5])] = float(fields[6])
    assert dist
    for x, p in dist.items():
        assert p == pytest.approx(dist.get(-x, 0.0), abs=1e-12)

    manifest = json.loads((out_dir / MANIFEST_NAME).read_text())
    assert manifest["steps"] == 40
    assert len(manifest["files"]) == 12
    assert manifest["files"]["fig01.csv"]["preset"] == "4a"
    assert manifest["files"]["fig01.csv"]["outcome"] == "c0"
    entry12 = manifest["files"]["fig12.csv"]
    assert entry12["preset"] == "4e"
    assert entry12["outcome"] is None
    assert set(entry12["asymptotic_ratio"]) == {"c0", "c1"}
    assert "ratio0" in entry12["columns"] and "ratio1" in entry12["columns"]
    figures_covered = sorted(e["figure"] for e in manifest["files"].values())
    assert figures_covered == list(range(1, 13))


def test_figures_determinism(runner, tmp_path):
    dirs = (tmp_path / "first", tmp_path / "second")
    for d in dirs:
        result = runner.invoke(
            main, ["figures", "--out-dir", str(d), "--steps", "30"]
        )
        assert result.exit_code == 0, result.output
    first, second = (sorted(d.iterdir()) for d in dirs)
    assert [p.name for p in first] == [p.name for p in second]
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes()


def test_figure_bundle_writes_numpy_integer_counts_as_ints(tmp_path):
    # the manifest's JSON writes a numpy integer as an int, as the run
    # documents do, so the bundle is whole and its bytes do not move
    bundles = {}
    for label, steps, window in (("int", 20, 5), ("numpy", np.int64(20), np.int64(5))):
        _, failures = write_figure_bundle(tmp_path / label, steps=steps, window=window)
        assert failures == []
        bundles[label] = {p.name: p.read_bytes() for p in sorted((tmp_path / label).iterdir())}
    assert len(bundles["int"]) == 13 and MANIFEST_NAME in bundles["int"]
    assert bundles["numpy"] == bundles["int"]


@pytest.mark.parametrize(
    "args, error",
    [
        (["--steps", "0"], "steps must be >= 1, got 0"),
        (["--steps", "0", "--window", "9"], "steps must be >= 1, got 0"),
        (["--steps", "5", "--window", "9"], "window must be within 1..5, got 9"),
    ],
    ids=["zero-steps", "steps-before-window", "window-above-steps"],
)
def test_figures_reports_the_first_bad_input(runner, monkeypatch, tmp_path, args, error):
    forbid_evolution(monkeypatch)
    out_dir = tmp_path / "x"
    result = runner.invoke(main, ["figures", "--out-dir", str(out_dir), *args])
    assert result.exit_code == 1
    assert result.output.startswith(f"Error: {error}")
    assert result.output.count("Error:") == 1
    assert "Traceback" not in result.output
    assert not out_dir.exists()


def test_figures_single_step_edge(runner, tmp_path):
    # one timeline row, two distribution rows: the ragged comparison layout
    out_dir = tmp_path / "one"
    result = runner.invoke(main, ["figures", "--out-dir", str(out_dir), "--steps", "1"])
    assert result.exit_code == 0, result.output
    lines = (out_dir / "fig03.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "1"
    assert lines[2].split(",")[0] == ""
    manifest = json.loads((out_dir / MANIFEST_NAME).read_text())
    assert manifest["files"]["fig01.csv"]["asymptotic_ratio"] is None


def test_verify_passes(runner):
    result = runner.invoke(main, ["verify", "--depth", "4", "--random-states", "1"])
    assert result.exit_code == 0, result.output
    assert "FAIL" not in result.output
    assert result.output.strip().endswith("checks passed")


def test_verify_rejects_negative_random_states(runner):
    result = runner.invoke(main, ["verify", "--depth", "4", "--random-states", "-3"])
    assert result.exit_code == 1
    assert "random_states must be non-negative, got -3" in result.output
    assert "checks passed" not in result.output
    assert "Traceback" not in result.output


def corrupt_run(monkeypatch, corrupted, modules=(twinwalk.evolution,)):
    """Replace ``branch_blocks`` in ``modules`` by ``corrupted(true, n)``."""
    true_blocks = twinwalk.evolution.branch_blocks
    for module in modules:
        monkeypatch.setattr(module, "branch_blocks", lambda n: corrupted(true_blocks, n))


def test_verify_detects_corrupted_engine(runner, monkeypatch):
    # two coin steps per yielded step, as a doubled step would give: the
    # rows of every second step of a 2n-step run, cut to t + 1 sites, in the
    # run verify reads and the one the timelines measure
    def doubled_blocks(true_blocks, n):
        for t, a0, b0 in step_rows(true_blocks(2 * n)):
            if t % 2 == 0:
                yield t // 2, 0, a0[None, : t // 2 + 1], b0[None, : t // 2 + 1]

    corrupt_run(monkeypatch, doubled_blocks, (twinwalk.evolution, twinwalk.experiment))
    result = runner.invoke(main, ["verify", "--depth", "4", "--random-states", "1"])
    assert result.exit_code != 0
    for check in (
        "three-step amplitudes vs closed form",
        "timeline and distribution vs dense oracle",
        "timeline vs exact branches",
    ):
        assert f"FAIL  {check}" in result.output


RECORD_REFERENCES = pytest.mark.parametrize(
    "reference, tolerance",
    [
        (twinwalk.verification._dense_error, 1e-10),
        (twinwalk.verification._exact_error, 1e-12),
    ],
    ids=["dense", "exact"],
)


@RECORD_REFERENCES
def test_record_error_is_inf_for_arrays_of_the_wrong_length(reference, tolerance):
    # a timeline one record too long or too short, or none at all, is not
    # compared at the requested depth but reported as inf
    coin = twinwalk.experiment.PRESETS["4a"]
    ((timeline, distribution),) = twinwalk.experiment.timelines_and_distributions([coin], 5)
    assert reference([coin], [timeline], [distribution], 5) < tolerance
    assert reference([coin], [timeline + timeline[-1:]], [distribution], 5) == math.inf
    assert reference([coin], [timeline[:-1]], [distribution], 5) == math.inf
    assert reference([coin], [[]], [distribution], 5) == math.inf


def test_dense_error_is_inf_for_a_site_outside_the_light_cone():
    # a distribution with a site outside the light cone is not compared but
    # reported as inf
    coin = twinwalk.experiment.PRESETS["4a"]
    ((timeline, distribution),) = twinwalk.experiment.timelines_and_distributions([coin], 5)
    dense_error = twinwalk.verification._dense_error
    assert dense_error([coin], [timeline], [distribution], 5) < 1e-10
    assert dense_error([coin], [timeline], [{**distribution, 7: 0.0}], 5) == math.inf


@RECORD_REFERENCES
def test_record_error_is_inf_for_a_branch_absent_on_one_side(reference, tolerance):
    # the coin (|0> + |1>)/sqrt(2) has no coin-1 branch at t = 1; an entropy
    # where the reference's branch is absent, or None where it is present, is
    # reported as inf against the one trajectory of this coin
    s = math.sqrt(0.5)
    coin = twinwalk.CoinSpinor(s, s)
    ((timeline, distribution),) = twinwalk.experiment.timelines_and_distributions([coin], 3)
    assert timeline[0].entropy1 is None
    assert reference([coin], [timeline], [distribution], 3) < tolerance
    entropy_where_absent = [timeline[0]._replace(entropy1=0.0), *timeline[1:]]
    none_where_present = [timeline[0], timeline[1]._replace(entropy0=None), timeline[2]]
    assert reference([coin], [entropy_where_absent], [distribution], 3) == math.inf
    assert reference([coin], [none_where_present], [distribution], 3) == math.inf


#: the checks that read the one 1000-step walk verify hands on to the driver
LONG_RUN_CHECKS = (
    "three-step amplitudes vs closed form",
    "norm drift over 1000 steps",
    "light-cone violations over 1000 steps",
    "distribution completeness at t=1000",
    "unscaled run rows vs exact integer run, t <= 4",
)


def test_verify_detects_run_rows_of_the_wrong_length(runner, monkeypatch):
    # every block one index wider than its rows, zero-padded: the walk the
    # row checks read is the one the completeness check measures, so all
    # five fail
    def padded_blocks(true_blocks, n):
        for first, lo, a0, b0 in true_blocks(n):
            pad = ((0, 0), (0, 1))
            yield first, lo, np.pad(a0, pad), np.pad(b0, pad)

    corrupt_run(monkeypatch, padded_blocks)
    result = runner.invoke(main, ["verify", "--depth", "4", "--random-states", "1"])
    assert result.exit_code == 1
    for check in LONG_RUN_CHECKS:
        assert f"FAIL  {check}" in result.output


def test_verify_fails_blocks_that_grow(runner, monkeypatch):
    # the engine's rows, but t = 1 in a block of its own: the next blocks
    # are longer than it, which the driver's buffer, sized by the block at
    # t = 1, cannot hold, so the walk FAILs the long-run checks rather than
    # ending verify in a reshape error
    def split_blocks(true_blocks, n):
        for first, lo, a0, b0 in true_blocks(n):
            if first == 1:
                yield 1, lo, a0[:1, :2], b0[:1, :2]
                first, a0, b0 = 2, a0[1:], b0[1:]
            yield first, lo, a0, b0

    corrupt_run(monkeypatch, split_blocks)
    result = runner.invoke(main, ["verify", "--depth", "4", "--random-states", "1"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    for check in LONG_RUN_CHECKS:
        assert f"FAIL  {check}" in result.output
    assert result.output.count("FAIL") == len(LONG_RUN_CHECKS)


def test_verify_evolves_the_long_run_once(monkeypatch):
    # the row checks read each block of the 1000-step walk on its way to the
    # driver, which measures the completeness check's distribution from it;
    # the records of all ten coins come from one 40-step run
    started = []
    for module in (twinwalk.evolution, twinwalk.experiment):

        def counted_blocks(n, true_blocks=module.branch_blocks):
            started.append(n)
            return true_blocks(n)

        monkeypatch.setattr(module, "branch_blocks", counted_blocks)
    checks = twinwalk.verification.run_checks(40, 5)
    assert all(check.passed for check in checks)
    assert sorted(started) == [40, 1000]


@pytest.mark.parametrize("corruption", ["mirror-sign", "rescale"])
def test_verify_detects_corrupted_run_rows(runner, monkeypatch, corruption):
    # B0 stored without its (-1)^(t+1) on even steps, or a rescale by
    # 2^-15 instead of 2^-16 at t = 32
    true_blocks = twinwalk.evolution.branch_blocks

    def corrupted_blocks(n):
        for first, lo, a0, b0 in true_blocks(n):
            steps = first + np.arange(len(a0))[:, None]
            if corruption == "mirror-sign":
                b0 = np.where(steps % 2 == 0, -b0, b0)
            else:
                late = steps >= twinwalk.evolution.SCALE_STEPS
                a0, b0 = np.where(late, 2.0 * a0, a0), np.where(late, 2.0 * b0, b0)
            yield first, lo, a0, b0

    monkeypatch.setattr(twinwalk.evolution, "branch_blocks", corrupted_blocks)
    result = runner.invoke(main, ["verify", "--depth", "40", "--random-states", "1"])
    assert result.exit_code == 1
    assert "FAIL  unscaled run rows vs exact integer run, t <= 40" in result.output


def test_verify_builds_exact_branches_only_to_the_cap(monkeypatch):
    # exact_branches does O(t) Python-integer work per coin and step; at
    # --depth 40 none is built past the cap, and every coin reaches it
    true_branches = twinwalk.verification.exact_branches
    steps = []

    def recorded_branches(coin, n0, n1):
        steps.append(len(n0) - 1)
        return true_branches(coin, n0, n1)

    monkeypatch.setattr(twinwalk.verification, "exact_branches", recorded_branches)
    checks = twinwalk.verification.run_checks(max_step=40, random_states=1)
    assert all(check.passed for check in checks)
    # t = 1..cap once for each of the five presets and the one random coin
    cap = twinwalk.verification.EXACT_DEPTH_CAP
    assert sorted(steps) == sorted([*range(1, cap + 1)] * 6)


def test_verify_working_set_stays_small():
    # the benchmark's sweep (depth 40, five random coins) measures each chunk
    # of coins from one dense trajectory, with a tracemalloc peak of about
    # 1.4 MiB; diagonalizing the whole lattice as one block instead of its
    # exact blocks takes 7 MiB.  (The peak is not tested at depth 200 with
    # no random coins; it is about 30 MiB there, mostly the dense tensor and
    # its next step.)
    twinwalk.verification.run_checks(40, 5)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        checks = twinwalk.verification.run_checks(40, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert all(check.passed for check in checks)
    assert peak < 3 * 2**20


def test_verify_detects_corrupted_timeline(runner, monkeypatch):
    # the blocks run_timeline measures, with every B0 row damped
    true_blocks = twinwalk.experiment.branch_blocks

    def damped_blocks(n):
        for first, lo, a0, b0 in true_blocks(n):
            yield first, lo, a0, 0.9 * b0

    monkeypatch.setattr(twinwalk.experiment, "branch_blocks", damped_blocks)
    result = runner.invoke(main, ["verify", "--depth", "4", "--random-states", "1"])
    assert result.exit_code != 0
    assert "FAIL  timeline and distribution vs dense oracle" in result.output


def test_verify_fails_an_absent_early_branch(runner, monkeypatch):
    # every B0 row zeroed in the run the timelines measure: branch 1 of the
    # t = 1..3 records is absent, so its entropy is None
    def zeroed_blocks(true_blocks, n):
        for first, lo, a0, b0 in true_blocks(n):
            yield first, lo, a0, 0.0 * b0

    corrupt_run(monkeypatch, zeroed_blocks, (twinwalk.experiment,))
    result = runner.invoke(main, ["verify", "--depth", "4", "--random-states", "0"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    lines = result.output.splitlines()
    assert len([line for line in lines if line.startswith(("PASS", "FAIL"))]) == 12
    for check in (
        "branch entropies t=1 (product states)",
        "branch entropies t=2 (maximally entangled)",
        "branch entropy t=3 coin-1",
    ):
        assert f"FAIL  {check}" in result.output
    assert lines[-1].endswith("/12 checks passed")


@pytest.mark.parametrize("depth", [201, 10**9])
def test_verify_rejects_depth_above_ceiling(runner, monkeypatch, depth):
    forbid_evolution(monkeypatch)
    monkeypatch.setattr(twinwalk.verification, "dense_trajectory", must_not_evolve)
    result = runner.invoke(main, ["verify", "--depth", str(depth)])
    assert result.exit_code == 1
    assert "max_step must be at most 200" in result.output
    assert f"got {depth}" in result.output
    assert "checks passed" not in result.output
    assert "Traceback" not in result.output


def test_verify_detects_stale_light_cone_slot(runner, monkeypatch):
    # a vacated coin-0 edge slot that keeps a leftover value too small to
    # move the norm: only the light-cone check can see it
    def stale_edge_blocks(true_blocks, n):
        for first, lo, a0, b0 in true_blocks(n):
            if first >= 1 and lo == 0:
                a0 = a0.copy()
                a0[:, 0] = 1e-20
            yield first, lo, a0, b0

    corrupt_run(monkeypatch, stale_edge_blocks)
    result = runner.invoke(main, ["verify", "--depth", "4", "--random-states", "1"])
    assert result.exit_code == 1
    assert "FAIL  light-cone violations over 1000 steps" in result.output
    assert "PASS  norm drift over 1000 steps" in result.output
    assert result.output.count("FAIL") == 1


def test_verify_detects_late_norm_loss(runner, monkeypatch):
    # mass lost only after t = 500, beyond the depth of every oracle check
    def leaking_blocks(true_blocks, n):
        for first, lo, a0, b0 in true_blocks(n):
            steps = first + np.arange(len(b0))[:, None]
            yield first, lo, a0, np.where(steps > 500, b0 * (1.0 - 1e-9), b0)

    corrupt_run(monkeypatch, leaking_blocks)
    result = runner.invoke(main, ["verify", "--depth", "4", "--random-states", "1"])
    assert result.exit_code == 1
    assert "FAIL  norm drift over 1000 steps" in result.output
    assert "PASS  timeline and distribution vs dense oracle" in result.output
    assert "PASS  timeline vs exact branches" in result.output


def test_verify_fails_a_nan_in_the_run_rows(runner, monkeypatch):
    # a NaN mid-window in the B0 row of t = 600, in the run verify reads and
    # the one the timelines measure: Python's max(0.0, nan) is 0.0, so a
    # fold with it would pass the norm drift
    def nan_blocks(true_blocks, n):
        for first, lo, a0, b0 in true_blocks(n):
            if first <= 600 < first + len(b0):
                b0 = b0.copy()
                b0[600 - first, b0.shape[1] // 2] = math.nan
            yield first, lo, a0, b0

    corrupt_run(monkeypatch, nan_blocks, (twinwalk.evolution, twinwalk.experiment))
    result = runner.invoke(main, ["verify", "--depth", "4", "--random-states", "0"])
    assert result.exit_code == 1
    (drift,) = [line for line in result.output.splitlines() if "norm drift" in line]
    assert drift.startswith("FAIL") and "max_error=nan" in drift


@pytest.mark.parametrize("field", ["p0", "entropy0"])
def test_verify_fails_a_nan_timeline_weight(runner, monkeypatch, field):
    # every coin's branch-0 weight or entropy at t = 5 read as NaN, the
    # other fields intact
    true_timelines = twinwalk.verification.timelines_and_distributions

    def nan_weight_timelines(coins, steps, measured=None):
        results = true_timelines(coins, steps, measured=measured)
        for timeline, _ in results:
            if len(timeline) >= 5:
                timeline[4] = timeline[4]._replace(**{field: math.nan})
        return results

    monkeypatch.setattr(
        twinwalk.verification, "timelines_and_distributions", nan_weight_timelines
    )
    result = runner.invoke(main, ["verify", "--depth", "6", "--random-states", "0"])
    assert result.exit_code == 1
    assert "FAIL  timeline and distribution vs dense oracle, t <= 6" in result.output
    assert "FAIL  timeline vs exact branches, t <= 6" in result.output
    assert result.output.count("FAIL") == 2


@pytest.mark.parametrize("kept", [5, 0])
def test_verify_fails_timelines_shorter_than_the_depth(runner, monkeypatch, kept):
    # every coin's timeline cut to its first few records, or to none, at
    # --depth 40: both record checks score t <= their requested depth, so
    # the missing records fail them, and nothing ends in a traceback.  The
    # worked t <= 3 checks read preset 4a's first three records from the
    # same timelines: they pass with five records kept and fail with none
    true_timelines = twinwalk.verification.timelines_and_distributions

    def cut_timelines(coins, steps, measured=None):
        results = true_timelines(coins, steps, measured=measured)
        return [(timeline[:kept], distribution) for timeline, distribution in results]

    monkeypatch.setattr(twinwalk.verification, "timelines_and_distributions", cut_timelines)
    result = runner.invoke(main, ["verify", "--depth", "40", "--random-states", "1"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert "FAIL  timeline and distribution vs dense oracle, t <= 40" in result.output
    assert "FAIL  timeline vs exact branches, t <= 12" in result.output
    worked = [line[:4] for line in result.output.splitlines()[1:6]]
    assert worked == ["PASS" if kept >= 3 else "FAIL"] * 5
    assert result.output.count("FAIL") == 2 + worked.count("FAIL")


#: the checks ``verify`` prints, in order, with their tolerances, at
#: --depth 4 and at --depth 40
CHECK_TABLE = [
    ("three-step amplitudes vs closed form", "1.0e-12"),
    ("branch entropies t=1 (product states)", "1.0e-09"),
    ("branch entropies t=2 (maximally entangled)", "1.0e-09"),
    ("branch entropy t=3 coin-0", "5.0e-05"),
    ("branch entropy t=3 coin-1", "1.0e-09"),
    ("attainable bound at t=2 and t=3", "5.0e-04"),
    ("norm drift over 1000 steps", "1.0e-12"),
    ("light-cone violations over 1000 steps", "0.0e+00"),
    ("distribution completeness at t=1000", "1.0e-12"),
    ("timeline and distribution vs dense oracle, t <= {depth}", "1.0e-10"),
    ("timeline vs exact branches, t <= {exact_depth}", "1.0e-12"),
    ("unscaled run rows vs exact integer run, t <= {depth}", "1.0e-14"),
]


@pytest.mark.parametrize(
    "depth, random_states, exact_depth", [(4, 0, 4), (40, 1, 12)], ids=["depth-4", "depth-40"]
)
def test_verify_prints_the_check_table(runner, depth, random_states, exact_depth):
    # names, order and tol= fields; the max_error digits depend on BLAS
    result = runner.invoke(
        main, ["verify", "--depth", str(depth), "--random-states", str(random_states)]
    )
    assert result.exit_code == 0, result.output
    *lines, summary = result.output.splitlines()
    assert summary == "12/12 checks passed"
    line_format = r"PASS  (.+?) +max_error=\S+  tol=(\S+)"
    printed = [re.fullmatch(line_format, line).groups() for line in lines]
    expected = [
        (name.format(depth=depth, exact_depth=exact_depth), tol)
        for name, tol in CHECK_TABLE
    ]
    assert printed == expected


def test_readme_check_table_is_the_printed_table():
    # the README's "What verify checks" table names CHECK_TABLE's checks in
    # order, D for the depth and min(D, cap) for the exact-branches depth,
    # at the same tolerances
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### What `verify` checks\n", 1)[1]
    # the section's first table: its lines up to the first blank after it
    table = section[section.index("\n|") + 1 :].split("\n\n", 1)[0]
    header, _, *rows = [
        [cell.strip() for cell in line.strip("|").split(" | ")] for line in table.splitlines()
    ]
    assert header == ["check", "engine", "reference", "tolerance"]
    cap = twinwalk.verification.EXACT_DEPTH_CAP
    expected = [
        (name.format(depth="D", exact_depth=f"min(D, {cap})"), float(tol))
        for name, tol in CHECK_TABLE
    ]
    assert [(row[0], float(row[-1])) for row in rows] == expected


def test_only_the_exact_branches_check_sees_a_small_entropy_shift(runner, monkeypatch):
    # every entropy the timelines report moved up by 1e-11: within the dense
    # check's 1e-10 and the worked t <= 3 tolerances, so only the 1e-12
    # exact-branches check can see it
    true_entropies = twinwalk.experiment.branch_entropies

    def shifted_entropies(*args):
        entropies, supports = true_entropies(*args)
        return entropies + 1e-11, supports

    monkeypatch.setattr(twinwalk.experiment, "branch_entropies", shifted_entropies)
    result = runner.invoke(main, ["verify", "--depth", "12", "--random-states", "0"])
    assert result.exit_code == 1
    failed = [line for line in result.output.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 1
    assert failed[0].startswith("FAIL  timeline vs exact branches, t <= 12 ")
    assert "PASS  timeline and distribution vs dense oracle, t <= 12" in result.output


@pytest.mark.parametrize("count", [1001, 10**9])
def test_verify_rejects_random_states_above_ceiling(runner, monkeypatch, count):
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran before the random-state count was validated")

    monkeypatch.setattr(twinwalk.verification, "random_coin_states", must_not_run)
    forbid_evolution(monkeypatch)
    result = runner.invoke(main, ["verify", "--random-states", str(count)])
    assert result.exit_code == 1
    assert "random_states must be at most 1000" in result.output
    assert f"got {count}" in result.output
    assert "checks passed" not in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "args, field",
    [
        ((10.0,), "max_step"),
        ((True,), "max_step"),
        ((10, 5.5), "random_states"),
        ((10, True), "random_states"),
    ],
    ids=["float-depth", "bool-depth", "float-count", "bool-count"],
)
def test_run_checks_rejects_a_count_that_is_not_an_integer(monkeypatch, args, field):
    # click passes ints; a library caller's float or bool is named, not
    # rounded or read as another field
    monkeypatch.setattr(twinwalk.verification, "random_coin_states", must_not_evolve)
    forbid_evolution(monkeypatch)
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        twinwalk.verification.run_checks(*args)


#: run in a fresh interpreter: import the CLI, run each command in process,
#: then write the modules the commands added, one a line, to argv[1]
CALL_TIME_IMPORTS = """
import sys
import twinwalk.cli
before = set(sys.modules)
for argv in (
    ["verify", "--depth", "40", "--random-states", "5"],
    ["run", "--preset", "4e", "--steps", "2000"],
    ["figures", "--steps", "30", "--out-dir", sys.argv[2]],
):
    twinwalk.cli.main(argv, standalone_mode=False)
with open(sys.argv[1], "w", encoding="utf-8") as out:
    out.write("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_commands_import_nothing_when_called(tmp_path):
    # every module a command needs is loaded with the CLI, so none of them
    # pays an import in its run (numpy.ma, which np.unique pulls in, costs
    # tens of ms cold); only codecs the writes look up may be added
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    added_path = tmp_path / "added.txt"
    result = subprocess.run(
        [sys.executable, "-c", CALL_TIME_IMPORTS, str(added_path), str(tmp_path / "figures")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    added = added_path.read_text(encoding="utf-8").split()
    assert [name for name in added if not name.startswith("encodings.")] == []
