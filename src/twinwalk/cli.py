"""Command-line interface: run one walk, emit the figure bundle, verify."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import click

from . import __version__
from .experiment import (
    PRESETS,
    TimelineRecord,
    check_walk,
    require_integer,
    resolve_window,
    run_timeline,
    window_ratios,
)
from .figures import write_figure_bundle
from .render import json_text, render_timeline_csv, write_text_atomic
from .states import CoinSpinor, coin_fields
from .verification import DEFAULT_SEED, EXACT_DEPTH_CAP, MAX_DEPTH, MAX_RANDOM_STATES, run_checks

_FORMATS = ("csv", "json")
_COIN_FIELDS = ("re0", "im0", "re1", "im1")


@dataclass(frozen=True)
class RunSpec:
    """File-borne description of one run; flat reals, no complex literals."""

    re0: float
    im0: float
    re1: float
    im1: float
    steps: int = 1000
    output: str | None = None
    format: str = "csv"

    def __post_init__(self) -> None:
        for name in _COIN_FIELDS:
            value = getattr(self, name)
            if not _is_finite_real(value):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        require_integer("steps", self.steps)
        if self.output is not None and not isinstance(self.output, str):
            raise ValueError(f"output must be a path string, got {self.output!r}")
        if self.format not in _FORMATS:
            raise ValueError(f"format must be one of {list(_FORMATS)}, got {self.format!r}")

    def coin(self) -> CoinSpinor:
        return CoinSpinor(complex(self.re0, self.im0), complex(self.re1, self.im1))


def _is_finite_real(value: object) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def parse_run_spec(path: Path) -> RunSpec:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read run spec {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"run spec {path} must be a JSON object")
    unknown = sorted(set(payload) - {f.name for f in fields(RunSpec)} - {"start", "coin_operator"})
    if unknown:
        raise ValueError(f"run spec {path} has unknown fields: {unknown}")
    # specs from earlier versions carry these two; neither changes a computed
    # number (a start only relabelled sites), so they are checked and dropped
    require_integer("start", payload.pop("start", 0))
    coin_operator = payload.pop("coin_operator", "hadamard")
    if coin_operator != "hadamard":
        raise ValueError(f"coin_operator must be 'hadamard', got {coin_operator!r}")
    missing = [k for k in _COIN_FIELDS if k not in payload]
    if missing:
        raise ValueError(f"run spec {path} is missing coin fields: {missing}")
    try:
        return RunSpec(**payload)
    except TypeError as exc:
        raise ValueError(f"run spec {path} is malformed: {exc}") from exc


def write_run_spec(spec: RunSpec, path: Path) -> None:
    write_text_atomic(Path(path), json_text(asdict(spec)))


def _summary(
    preset: str | None,
    spec: RunSpec,
    timeline: list[TimelineRecord],
    window: int,
) -> dict:
    return {
        "preset": preset,
        "coin": {name: getattr(spec, name) for name in _COIN_FIELDS},
        "steps": spec.steps,
        "window": window,
        "asymptotic_ratio": window_ratios(timeline, window),
    }


_window_option = click.option(
    "--window",
    type=int,
    default=None,
    help="Averaging window for the window-mean ratios  [default: last 10% of steps]; "
    "window = steps reaches t = 1, where the ratio is undefined, so ratios are null",
)


@click.group()
@click.version_option(version=__version__, prog_name="twinwalk")
def main() -> None:
    """Two correlated walkers, one coin: entanglement timelines per outcome."""


@main.command()
@click.option(
    "--preset",
    type=click.Choice(tuple(PRESETS)),
    default=None,
    help="Built-in initial coin state.",
)
@click.option(
    "--coin",
    type=float,
    nargs=4,
    default=None,
    metavar="RE0 IM0 RE1 IM1",
    help="Explicit coin amplitudes as flat real/imaginary pairs.",
)
@click.option(
    "--spec",
    "spec_path",
    type=click.Path(path_type=Path),
    default=None,
    help="JSON run spec file (written by --save-spec).",
)
@click.option("--steps", type=int, default=None, help="Step count  [default: 1000]")
@_window_option
@click.option(
    "--out",
    type=click.Path(path_type=Path),
    default=None,
    help="Timeline output file  [default: stdout]",
)
@click.option(
    "--format",
    "output_format",
    type=click.Choice(_FORMATS),
    default=None,
    help="Timeline format  [default: csv]",
)
@click.option(
    "--summary-out",
    type=click.Path(path_type=Path),
    default=None,
    help="Also write the summary block to this file.",
)
@click.option(
    "--save-spec",
    type=click.Path(path_type=Path),
    default=None,
    help="Write the fully resolved run spec to this file.",
)
def run(
    preset: str | None,
    coin: tuple[float, float, float, float] | None,
    spec_path: Path | None,
    steps: int | None,
    window: int | None,
    out: Path | None,
    output_format: str | None,
    summary_out: Path | None,
    save_spec: Path | None,
) -> None:
    """Evolve, measure at every step count, and write the timeline."""
    given = [name for name, value in
             (("--preset", preset), ("--coin", coin), ("--spec", spec_path))
             if value]
    if len(given) != 1:
        raise click.UsageError(
            f"provide exactly one of --preset, --coin or --spec (got {given or 'none'})"
        )
    try:
        if spec_path is not None:
            spec = parse_run_spec(spec_path)
        elif preset is not None:
            spec = RunSpec(**coin_fields(PRESETS[preset]))
        else:
            spec = RunSpec(*coin)
        overrides = {"steps": steps, "output": out and str(out), "format": output_format}
        spec = replace(spec, **{k: v for k, v in overrides.items() if v is not None})
        check_walk([spec.coin()], spec.steps)
        resolved_window = resolve_window(spec.steps, window)
        timeline = run_timeline(spec.coin(), spec.steps)
        summary = _summary(preset, spec, timeline, resolved_window)
        if save_spec is not None:
            write_run_spec(spec, save_spec)
        if spec.format == "json":
            records = [r._asdict() for r in timeline]
            document = json_text({"spec": asdict(spec), "summary": summary, "timeline": records})
        else:
            document = render_timeline_csv(timeline)
        if spec.output:
            write_text_atomic(Path(spec.output), document)
        else:
            click.echo(document, nl=spec.format == "csv")
        # a JSON document on stdout already holds the summary
        if spec.output or spec.format == "csv":
            click.echo(json_text(summary), nl=False)
        if summary_out is not None:
            write_text_atomic(summary_out, json_text(summary))
    except (ValueError, OSError) as exc:
        raise click.ClickException(str(exc)) from exc


@main.command()
@click.option(
    "--out-dir",
    type=click.Path(path_type=Path),
    required=True,
    help="Directory for the twelve figure files and the manifest.",
)
@click.option("--steps", type=int, default=1000, show_default=True)
@_window_option
def figures(out_dir: Path, steps: int, window: int | None) -> None:
    """Write replot-ready data for every figure, plus a manifest."""
    try:
        manifest, failures = write_figure_bundle(out_dir, steps=steps, window=window)
    except (ValueError, OSError) as exc:
        raise click.ClickException(str(exc)) from exc
    for name, message in failures:
        click.echo(f"error writing {name}: {message}", err=True)
    if failures:
        raise SystemExit(1)
    click.echo(f"wrote {len(manifest['files'])} data files and manifest to {out_dir}")


@main.command()
@click.option(
    "--depth",
    type=int,
    default=10,
    show_default=True,
    help=(
        f"Max step count for oracle comparisons, 3..{MAX_DEPTH} "
        f"(exact branches capped at {EXACT_DEPTH_CAP})."
    ),
)
@click.option(
    "--random-states",
    type=int,
    default=5,
    show_default=True,
    help=(
        "Random coins added to the five presets in the oracle sweeps, "
        f"0..{MAX_RANDOM_STATES}."
    ),
)
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
def verify(depth: int, random_states: int, seed: int) -> None:
    """Check the engine against closed-form fixtures and both oracles."""
    try:
        checks = run_checks(max_step=depth, random_states=random_states, seed=seed)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    width = max(len(check.name) for check in checks)
    failures = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        click.echo(
            f"{status}  {check.name:<{width}}  "
            f"max_error={check.max_error:.3e}  tol={check.tolerance:.1e}"
        )
        failures += 0 if check.passed else 1
    click.echo(f"{len(checks) - failures}/{len(checks)} checks passed")
    if failures:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
