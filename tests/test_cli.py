import itertools
import json
import math

import pytest
from click.testing import CliRunner

import twinwalk.evolution
import twinwalk.experiment
import twinwalk.verification
from twinwalk.cli import RunSpec, main, parse_run_spec, write_run_spec
from twinwalk.figures import MANIFEST_NAME
from twinwalk.render import TIMELINE_HEADER


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
        (twinwalk.evolution, "trajectory"),
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


@pytest.mark.parametrize(
    "content",
    [
        "{not json",
        '{"re0": 1.0}',
        '{"re0": 1, "im0": 0, "re1": 0, "im1": 0, "bogus": 3}',
        '[1, 2, 3]',
    ],
)
def test_run_rejects_malformed_spec(runner, tmp_path, content):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(content)
    result = runner.invoke(main, ["run", "--spec", str(spec_path)])
    assert result.exit_code != 0


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
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**VALID_SPEC, "re0": 1, "im0": 0}))
    result = runner.invoke(main, ["run", "--spec", str(spec_path)])
    assert result.exit_code == 0, result.output


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


def test_figures_rejects_bad_steps(runner, tmp_path):
    result = runner.invoke(
        main, ["figures", "--out-dir", str(tmp_path / "x"), "--steps", "0"]
    )
    assert result.exit_code != 0


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


def test_verify_detects_corrupted_engine(runner, monkeypatch):
    # two coin steps per yielded step, as a doubled step would give
    true_trajectory = twinwalk.evolution.trajectory

    def doubled_trajectory(coin_init, n):
        return itertools.islice(true_trajectory(coin_init, 2 * n), 0, None, 2)

    monkeypatch.setattr(twinwalk.evolution, "trajectory", doubled_trajectory)
    result = runner.invoke(main, ["verify", "--depth", "4", "--random-states", "1"])
    assert result.exit_code != 0
    for check in (
        "three-step amplitudes vs closed form",
        "array amplitudes and timeline vs dense oracle",
        "array amplitudes vs path-sum oracle",
    ):
        assert f"FAIL  {check}" in result.output


def test_verify_detects_corrupted_timeline(runner, monkeypatch):
    # the blocks run_timeline measures, with every B0 row damped
    true_blocks = twinwalk.experiment.branch_blocks

    def damped_blocks(n):
        for first, lo, a0, b0 in true_blocks(n):
            yield first, lo, a0, 0.9 * b0

    monkeypatch.setattr(twinwalk.experiment, "branch_blocks", damped_blocks)
    result = runner.invoke(main, ["verify", "--depth", "4", "--random-states", "1"])
    assert result.exit_code != 0
    assert "FAIL  array amplitudes and timeline vs dense oracle" in result.output


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
    true_trajectory = twinwalk.evolution.trajectory

    def stale_edge_trajectory(coin_init, n):
        for t, (a0, a1) in enumerate(true_trajectory(coin_init, n)):
            if t >= 1:
                a0 = a0.copy()
                a0[0] = 1e-20
            yield a0, a1

    monkeypatch.setattr(twinwalk.evolution, "trajectory", stale_edge_trajectory)
    result = runner.invoke(main, ["verify", "--depth", "4", "--random-states", "1"])
    assert result.exit_code == 1
    assert "FAIL  light-cone violations over 1000 steps" in result.output
    assert "PASS  norm drift over 1000 steps" in result.output
    assert result.output.count("FAIL") == 1


def test_verify_detects_late_norm_loss(runner, monkeypatch):
    # mass lost only after t = 500, beyond the depth of every oracle check
    true_trajectory = twinwalk.evolution.trajectory

    def leaking_trajectory(coin_init, n):
        for t, (a0, a1) in enumerate(true_trajectory(coin_init, n)):
            yield a0, (a1 * (1.0 - 1e-9) if t > 500 else a1)

    monkeypatch.setattr(twinwalk.evolution, "trajectory", leaking_trajectory)
    result = runner.invoke(main, ["verify", "--depth", "4", "--random-states", "1"])
    assert result.exit_code == 1
    assert "FAIL  norm drift over 1000 steps" in result.output
    assert "PASS  array amplitudes and timeline vs dense oracle" in result.output
    assert "PASS  array amplitudes vs path-sum oracle" in result.output


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
