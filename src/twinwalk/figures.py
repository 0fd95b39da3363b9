"""Figure-data bundle: twelve plotter-agnostic data files plus a manifest.

Each of the four plotted initial conditions contributes three figures: one
per coin outcome (entropy against the attainable bound, plus their ratio) and
one comparison figure carrying the one-walker position distribution next to
both branch series.  This module only lays the files out: ``render`` joins
their CSV text and writes the manifest's JSON, which records what every
file contains, keyed by the file's name.  The four plotted presets'
eight branches are five distinct mixing rows, measured from one real run by
``experiment.measure_rows``, one entropy pass per block for all five; no
record is built.  Each distinct row's ratios (``experiment.ratio_columns``)
and window ratio (``experiment.trailing_mean``) are taken once, its entropy
and ratio columns formatted once (``render.format_column``) and its outcome
file rendered once (figures 4, 5 and 8 are figures 2, 1 and 7 as text).
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path

from .experiment import (
    PRESETS,
    check_walk,
    distribution_symmetry,
    measure_rows,
    mixing_rows,
    ratio_columns,
    resolve_window,
    trailing_mean,
    walker_distribution,
)
from .render import csv_text, format_column, json_text, write_text_atomic
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


def _figure_name(number: int) -> str:
    return f"fig{number:02d}.csv"


def _comparison_csv(series: list[list[str]], distribution: dict[int, float]) -> str:
    positions = sorted(x for x, p in distribution.items() if p > SUPPORT_EPS)
    places = [distribution[x] for x in positions]
    columns = [*series, list(map(str, positions)), format_column(places, [True] * len(places))]
    # the longer columns set the row count; the others' fields are left empty
    length = max(map(len, columns))
    return csv_text(COMPARISON_COLUMNS, zip(*(c + [""] * (length - len(c)) for c in columns)))


def build_figure_bundle(
    steps: int = 1000, window: int | None = None
) -> tuple[dict[str, str], dict]:
    """Render all twelve figure files, keyed by file name as the manifest
    keys its entries, and the manifest, in memory."""
    coins = [PRESETS[preset] for preset, _ in _FIGURE_GROUPS]
    check_walk(coins, steps)
    window = resolve_window(steps, window)
    rows, index = mixing_rows(coins)
    _, entropies, present, _, finals = measure_rows(rows, steps)
    bounds, ratios, defined = ratio_columns(entropies, present, range(1, steps + 1))
    # per distinct row: its entropy and ratio columns, rendered once, and the
    # mean ratio over the window
    entropy_texts = list(map(format_column, entropies.tolist(), present.tolist()))
    ratio_texts = list(map(format_column, ratios, defined))
    means = [trailing_mean(row, window) for row in ratios]
    # the ratio floats are let go before the files are rendered: held to the
    # end, they raised the peak RSS of `figures` by about 0.2 MB
    del ratios, defined
    step_column = list(map(str, range(1, steps + 1)))
    bound_column = format_column(bounds, [True] * steps)
    outcome_texts = [
        csv_text(OUTCOME_COLUMNS, zip(step_column, entropy, bound_column, ratio))
        for entropy, ratio in zip(entropy_texts, ratio_texts)
    ]
    texts: dict[str, str] = {}
    entries: dict[str, dict] = {}
    for (preset, first), pair in zip(_FIGURE_GROUPS, zip(index[::2], index[1::2])):
        coin = coin_fields(PRESETS[preset])
        for outcome, row in zip(CoinOutcome, pair):
            number = first + outcome.value
            name = _figure_name(number)
            texts[name] = outcome_texts[row]
            entries[name] = {
                "figure": number,
                "preset": preset,
                "coin": coin,
                "outcome": str(outcome),
                "columns": list(OUTCOME_COLUMNS),
                "panels": {
                    "i": "branch entanglement entropy and attainable bound vs step",
                    "ii": "entanglement ratio vs step",
                },
                "asymptotic_ratio": means[row],
            }
        number = first + 2
        name = _figure_name(number)
        distribution = walker_distribution(*finals[list(pair)], steps)
        series = [step_column, *(entropy_texts[row] for row in pair), *(ratio_texts[row] for row in pair)]
        texts[name] = _comparison_csv(series, distribution)
        entries[name] = {
            "figure": number,
            "preset": preset,
            "coin": coin,
            "outcome": None,
            "columns": list(COMPARISON_COLUMNS),
            "panels": {
                "i": "one-walker position distribution at the final step",
                "ii": "both branch entropy and ratio series vs step",
            },
            "asymptotic_ratio": {
                str(outcome): means[row] for outcome, row in zip(CoinOutcome, pair)
            },
            "single_walker": asdict(distribution_symmetry(distribution, steps)),
        }
    return texts, {"steps": steps, "window": window, "files": entries}


def write_figure_bundle(
    out_dir: Path, steps: int = 1000, window: int | None = None
) -> tuple[dict, list[tuple[str, str]]]:
    """Write the bundle into ``out_dir``; returns (manifest, per-file failures).

    The manifest lists only the figure files that were written.
    """
    texts, manifest = build_figure_bundle(steps=steps, window=window)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures: list[tuple[str, str]] = []
    for name, text in texts.items():
        try:
            write_text_atomic(out_dir / name, text)
        except OSError as exc:
            failures.append((name, str(exc)))
            del manifest["files"][name]
    try:
        write_text_atomic(out_dir / MANIFEST_NAME, json_text(manifest))
    except OSError as exc:
        failures.append((MANIFEST_NAME, str(exc)))
    return manifest, failures
