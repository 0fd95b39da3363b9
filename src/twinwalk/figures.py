"""Figure-data bundle: twelve plotter-agnostic data files plus a manifest.

Each of the four plotted initial conditions contributes three figures: one
per coin outcome (entropy against the attainable bound, plus their ratio) and
one comparison figure carrying the one-walker position distribution next to
both branch series.  Rendering is plain CSV with deterministic formatting;
the manifest records what every file contains.  The four plotted presets
are measured from one real run (``timelines_and_distributions``): their
timelines and final one-walker distributions all come from one evolution.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from .experiment import (
    PRESETS,
    TimelineRecord,
    default_window,
    distribution_symmetry,
    timelines_and_distributions,
    window_ratios,
)
from .measurement import CoinOutcome
from .render import format_number, write_text_atomic
from .states import SUPPORT_EPS

#: preset plotted and the number of its first figure; each preset spans three
_FIGURE_GROUPS = (("4a", 1), ("4b", 4), ("4c", 7), ("4e", 10))

OUTCOME_COLUMNS = ("step", "entropy", "max_entropy", "ratio")
COMPARISON_COLUMNS = (
    "step",
    "entropy0",
    "entropy1",
    "ratio0",
    "ratio1",
    "position",
    "probability",
)

MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class FigureFile:
    name: str
    text: str
    manifest_entry: dict


def _figure_name(number: int) -> str:
    return f"fig{number:02d}.csv"


def _formatted_columns(timeline: list[TimelineRecord]) -> dict[str, list[str]]:
    """Every per-step number of a timeline rendered once, keyed by field name."""
    columns = {
        name: [format_number(getattr(record, name)) for record in timeline]
        for name in ("entropy0", "entropy1", "max_entropy", "ratio0", "ratio1")
    }
    columns["step"] = [str(record.step) for record in timeline]
    return columns


def _csv(header: tuple[str, ...], rows) -> str:
    return "\n".join([",".join(header), *map(",".join, rows)]) + "\n"


def _outcome_csv(columns: dict[str, list[str]], outcome: CoinOutcome) -> str:
    return _csv(
        OUTCOME_COLUMNS,
        zip(
            columns["step"],
            columns[f"entropy{outcome.value}"],
            columns["max_entropy"],
            columns[f"ratio{outcome.value}"],
        ),
    )


def _comparison_csv(
    columns: dict[str, list[str]], distribution: dict[int, float]
) -> str:
    positions = sorted(x for x, p in distribution.items() if p > SUPPORT_EPS)
    series = list(
        zip(
            columns["step"],
            columns["entropy0"],
            columns["entropy1"],
            columns["ratio0"],
            columns["ratio1"],
        )
    )
    places = [(str(x), format_number(distribution[x])) for x in positions]
    # the longer list sets the row count; the other's fields are left empty
    length = max(len(series), len(places))
    series += [("",) * 5] * (length - len(series))
    places += [("", "")] * (length - len(places))
    return _csv(COMPARISON_COLUMNS, (a + b for a, b in zip(series, places)))


def build_figure_bundle(
    steps: int = 1000, window: int | None = None
) -> tuple[list[FigureFile], dict]:
    """Render all twelve figure files and the manifest, in memory."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    window = default_window(steps) if window is None else window
    if not 1 <= window <= steps:
        raise ValueError(f"window must be within 1..{steps}, got {window}")
    files: list[FigureFile] = []
    results = timelines_and_distributions(
        [PRESETS[preset] for preset, _ in _FIGURE_GROUPS], steps
    )
    for (preset, first), (timeline, distribution) in zip(_FIGURE_GROUPS, results):
        coin_init = PRESETS[preset]
        ratios = window_ratios(timeline, window)
        columns = _formatted_columns(timeline)
        coin = {
            "re0": coin_init.amp0.real,
            "im0": coin_init.amp0.imag,
            "re1": coin_init.amp1.real,
            "im1": coin_init.amp1.imag,
        }
        for offset, outcome in ((0, CoinOutcome.C0), (1, CoinOutcome.C1)):
            number = first + offset
            files.append(
                FigureFile(
                    name=_figure_name(number),
                    text=_outcome_csv(columns, outcome),
                    manifest_entry={
                        "figure": number,
                        "preset": preset,
                        "coin": coin,
                        "outcome": str(outcome),
                        "columns": list(OUTCOME_COLUMNS),
                        "panels": {
                            "i": "branch entanglement entropy and attainable bound vs step",
                            "ii": "entanglement ratio vs step",
                        },
                        "asymptotic_ratio": ratios[str(outcome)],
                    },
                )
            )
        number = first + 2
        files.append(
            FigureFile(
                name=_figure_name(number),
                text=_comparison_csv(columns, distribution),
                manifest_entry={
                    "figure": number,
                    "preset": preset,
                    "coin": coin,
                    "outcome": None,
                    "columns": list(COMPARISON_COLUMNS),
                    "panels": {
                        "i": "one-walker position distribution at the final step",
                        "ii": "both branch entropy and ratio series vs step",
                    },
                    "asymptotic_ratio": ratios,
                    "single_walker": asdict(distribution_symmetry(distribution, steps)),
                },
            )
        )
    manifest = {
        "steps": steps,
        "window": window,
        "files": {f.name: f.manifest_entry for f in files},
    }
    return files, manifest


def write_figure_bundle(
    out_dir: Path, steps: int = 1000, window: int | None = None
) -> tuple[dict, list[tuple[str, str]]]:
    """Write the bundle into ``out_dir``; returns (manifest, per-file failures).

    The manifest lists only the figure files that were written.
    """
    files, manifest = build_figure_bundle(steps=steps, window=window)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures: list[tuple[str, str]] = []
    for figure_file in files:
        try:
            write_text_atomic(out_dir / figure_file.name, figure_file.text)
        except OSError as exc:
            failures.append((figure_file.name, str(exc)))
            del manifest["files"][figure_file.name]
    try:
        write_text_atomic(
            out_dir / MANIFEST_NAME,
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        )
    except OSError as exc:
        failures.append((MANIFEST_NAME, str(exc)))
    return manifest, failures
