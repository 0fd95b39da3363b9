"""Output checks for benchmark jobs.

Each check returns a list of problems; an empty list means the job's output
is correct.  Tolerances are loose enough to survive a 12th-digit change from
a new engine, but catch a corrupted row, a wrong ratio or a missing file.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

TIMELINE_HEADER = ["step", "p0", "p1", "entropy0", "entropy1", "max_entropy",
                   "ratio0", "ratio1"]

#: 1000-step window ratios (c0, c1), as pinned by tests/test_acceptance.py
PINNED_RATIOS = {
    "4a": (0.7818324753612543, 0.8835346169626962),
    "4b": (0.8835346169626963, 0.7818324753612544),
    "4c": (0.8545661832851483, 0.8545661832851481),
    "4e": (0.8353197660947448, 0.8337625902219312),
}
FIGURE_FILES = [f"fig{n:02d}.csv" for n in range(1, 13)] + ["manifest.json"]

#: rows up to this step are compared with the path-sum oracle
PATH_SUM_ROWS = 12
#: the program's own PROB_EPS: a branch at most this heavy is reported absent
PROB_EPS = 1e-12
NORM_TOL = 1e-12
ORACLE_TOL = 1e-10
DERIVED_TOL = 1e-10
PINNED_TOL = 1e-9


def _number(field: str) -> float | None:
    return float(field) if field != "" else None


def _rounding(field: str) -> float:
    """Largest rounding error of a value rendered with 12 significant digits."""
    value = abs(float(field))
    if value == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(value)) - 11)


def oracle_rows(coin: tuple[float, float, float, float], last_step: int) -> dict:
    """Expected (p0, p1, entropy0, entropy1) per step from the path-sum oracle."""
    from twinwalk.oracle import path_sum_table
    from twinwalk.states import CoinSpinor

    spinor = CoinSpinor(complex(coin[0], coin[1]), complex(coin[2], coin[3]))
    rows = {}
    for t in range(1, last_step + 1):
        table = path_sum_table(spinor, t)
        weights = []
        entropies = []
        for c in (0, 1):
            probs = [abs(a) ** 2 for (_, coin_index), a in table.items() if coin_index == c]
            weight = sum(probs)
            weights.append(weight)
            if weight <= PROB_EPS:
                entropies.append(None)
                continue
            entropies.append(
                max(0.0, -sum(p / weight * math.log2(p / weight) for p in probs if p > 0.0))
            )
        rows[t] = (weights[0], weights[1], entropies[0], entropies[1])
    return rows


def check_run_long(
    csv_path: Path, stdout: str, coin: tuple[float, float, float, float], steps: int
) -> list[str]:
    """Timeline CSV and summary of ``twinwalk run --coin ... --steps N --out CSV``."""
    try:
        text = Path(csv_path).read_text(encoding="utf-8")
    except OSError as exc:
        return [f"cannot read timeline: {exc}"]
    table = list(csv.reader(io.StringIO(text)))
    if not table or table[0] != TIMELINE_HEADER:
        return [f"timeline header is {table[0] if table else None!r}"]
    rows = table[1:]
    if [row[0] for row in rows] != [str(t) for t in range(1, steps + 1)]:
        return [f"timeline does not hold steps 1..{steps} in order"]
    problems = []
    expected = oracle_rows(coin, min(PATH_SUM_ROWS, steps))
    for row in rows:
        problems.extend(_row_problems(row, expected.get(int(row[0]))))
    problems.extend(_summary_problems(stdout, rows, steps))
    return problems


def _row_problems(row: list[str], expected) -> list[str]:
    if len(row) != len(TIMELINE_HEADER):
        return [f"step {row[0]}: {len(row)} fields"]
    step = row[0]
    p0, p1, e0, e1, bound, r0, r1 = (_number(field) for field in row[1:])
    problems = []
    drift = abs(p0 + p1 - 1.0)
    if drift > NORM_TOL + _rounding(row[1]) + _rounding(row[2]):
        problems.append(f"step {step}: |p0+p1-1| = {drift:.3e}")
    if abs(bound - math.log2(int(step))) > DERIVED_TOL:
        problems.append(f"step {step}: max_entropy {bound} is not log2(t)")
    for entropy, ratio, weight in ((e0, r0, p0), (e1, r1, p1)):
        if entropy is None:
            if ratio is not None or weight > PROB_EPS + DERIVED_TOL:
                problems.append(f"step {step}: absent entropy on a present branch")
            continue
        if not -DERIVED_TOL <= entropy <= bound + DERIVED_TOL:
            problems.append(f"step {step}: entropy {entropy} outside [0, {bound}]")
        want = entropy / bound if bound > 0.0 else None
        if (ratio is None) != (want is None) or (
            want is not None and abs(ratio - want) > DERIVED_TOL
        ):
            problems.append(f"step {step}: ratio {ratio} != entropy/max_entropy {want}")
    if expected is not None:
        for label, got, want in zip(("p0", "p1", "entropy0", "entropy1"),
                                    (p0, p1, e0, e1), expected):
            if (got is None) != (want is None) or (
                want is not None and abs(got - want) > ORACLE_TOL
            ):
                problems.append(f"step {step}: {label} {got} != path sum {want}")
    return problems


def _summary_problems(stdout: str, rows: list[list[str]], steps: int) -> list[str]:
    try:
        summary = json.loads(stdout)
        window = summary["window"]
        reported = summary["asymptotic_ratio"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return [f"summary is unreadable: {exc}"]
    if summary.get("steps") != steps or not 1 <= window <= steps:
        return [f"summary steps/window {summary.get('steps')}/{window} do not fit {steps}"]
    problems = []
    for outcome, column in (("c0", 6), ("c1", 7)):
        tail = [_number(row[column]) for row in rows[-window:]]
        want = None if None in tail else sum(tail) / len(tail)
        got = reported.get(outcome)
        if (got is None) != (want is None) or (
            want is not None and abs(got - want) > DERIVED_TOL
        ):
            problems.append(f"summary ratio {outcome} {got} != CSV window mean {want}")
    return problems


def check_figures(out_dir: Path) -> list[str]:
    """Bundle of ``twinwalk figures --steps 1000``: all files, pinned ratios."""
    out_dir = Path(out_dir)
    missing = [name for name in FIGURE_FILES if not (out_dir / name).is_file()]
    if missing:
        return [f"missing figure files: {missing}"]
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        entries = manifest["files"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return [f"manifest is unreadable: {exc}"]
    problems = []
    seen = set()
    for name, entry in sorted(entries.items()):
        pinned = PINNED_RATIOS.get(entry.get("preset"))
        if pinned is None:
            problems.append(f"{name}: unexpected preset {entry.get('preset')!r}")
            continue
        ratios = entry.get("asymptotic_ratio")
        if entry.get("outcome") is not None:
            ratios = {entry["outcome"]: ratios}
        for outcome, got in (ratios or {}).items():
            want = pinned[{"c0": 0, "c1": 1}[outcome]]
            seen.add((entry["preset"], outcome))
            if got is None or abs(got - want) > PINNED_TOL:
                problems.append(f"{name}: ratio {outcome} {got} != pinned {want}")
    unchecked = {(p, o) for p in PINNED_RATIOS for o in ("c0", "c1")} - seen
    if unchecked:
        problems.append(f"manifest lacks ratios for {sorted(unchecked)}")
    return problems


def check_verify(stdout: str) -> list[str]:
    """Report of ``twinwalk verify``: every check reports PASS."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    checks = [line for line in lines if line.startswith(("PASS", "FAIL"))]
    problems = [f"check failed: {line}" for line in checks if not line.startswith("PASS")]
    if not checks:
        problems.append("verify reported no checks")
    if not lines or lines[-1] != f"{len(checks)}/{len(checks)} checks passed":
        problems.append(f"verify summary line is {lines[-1] if lines else None!r}")
    return problems
