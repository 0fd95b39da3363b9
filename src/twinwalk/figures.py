"""Figure-data bundle: twelve plotter-agnostic data files plus a manifest.

Each of the four plotted initial conditions contributes three figures: one
per coin outcome (entropy against the attainable bound, plus their ratio) and
one comparison figure carrying the one-walker position distribution next to
both branch series.  Rendering is plain CSV with deterministic formatting;
the manifest records what every file contains.  The four plotted presets
are measured from one real run (``timelines_and_distributions``): their
timelines and final one-walker distributions all come from one evolution,
with one matmul per pair of distinct branches, not per preset.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from .experiment import (
    PRESETS,
    TimelineRecord,
    check_walk,
    distribution_symmetry,
    resolve_window,
    timelines_and_distributions,
    window_ratios,
)
from .render import format_number, write_text_atomic
from .states import SUPPORT_EPS, CoinOutcome, coin_fields

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


def _formatted_columns(
    timeline: list[TimelineRecord], names: tuple[str, ...]
) -> dict[str, list[str]]:
    """Each named field of a timeline's records, rendered once per step."""
    fields = dict(zip(TimelineRecord._fields, zip(*timeline)))
    return {name: list(map(format_number, fields[name])) for name in names}


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
    coins = [PRESETS[preset] for preset, _ in _FIGURE_GROUPS]
    check_walk(coins, steps)
    window = resolve_window(steps, window)
    files: list[FigureFile] = []
    results = timelines_and_distributions(coins, steps)
    # every timeline has the same steps and bounds: render those once
    shared = _formatted_columns(results[0][0], ("max_entropy",))
    shared["step"] = [str(t) for t in range(1, steps + 1)]
    for (preset, first), (timeline, distribution) in zip(_FIGURE_GROUPS, results):
        ratios = window_ratios(timeline, window)
        columns = shared | _formatted_columns(timeline, ("entropy0", "entropy1", "ratio0", "ratio1"))
        coin = coin_fields(PRESETS[preset])
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
