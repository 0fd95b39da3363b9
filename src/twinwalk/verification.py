"""Self-checks behind the ``verify`` CLI command.

Each check compares the engine against closed-form values, an invariant or
one of the independent oracles and reports the worst error it measured, so a
corrupted engine shows up as a concrete number rather than a silent drift.
Errors are folded with ``np.maximum`` or ``np.max``, which keep a NaN
(Python's ``max`` drops one that comes second), so a NaN fails its check,
and an absent branch's entropy (None) at t <= 3, or a branch absent on one
side only of an oracle comparison, counts as an infinite error.

README.md ("What ``verify`` checks") tables the checks in order, with the
engine output each reads, the reference it is held to and its tolerance; a
test keeps that table in step with the checks ``run_checks`` returns.

"Rows" are the A0 and B0 rows of ``evolution.branch_blocks``, the one real
run behind every output, with their 2^(m/2) scale divided out (the run's
coin-1 row A1 is read as the mirror of B0).  The run rows need no coin: one
walk of the run from |0> (preset 4a) over t = 0..1000 scores all four row
checks, and blocks that break the layout make all four inf.  The norm and
light-cone checks read each block over its window alone, which the layout
makes zero outside; only the integer-row checks, which reach t <= D, pad
their blocks to full rows.  "Records" and "final distribution" are what
``experiment.timelines_and_distributions`` returns for a coin, all from one
loop over chunks of coins: the worked t <= 3 entropy checks read preset
4a's first three records, from the first chunk, and the dense and
exact-branches checks score a coin's first D (or min(D, 12)) records
against the reference's per-step branch weights and entropies.  D is the
oracle depth, 3 <= D <= ``MAX_DEPTH``; the record checks cover the five
presets plus 0..``MAX_RANDOM_STATES`` random coins, ``COINS_PER_RUN`` coins
to a run.
Each record check scores a run's whole chunk of coins at once: the dense
check evolves one dense trajectory per chunk, its shift applied at every
site, and measures every coin of the chunk at each step in one call, which
labels the exact blocks of the runs' joint nonzero pattern and then builds
and diagonalizes each reduced density matrix one block at a time; the
exact-branches check reads one ``exact_run`` per chunk, to
min(D, ``EXACT_DEPTH_CAP``), and turns its rows into each coin's branches.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator

import numpy as np

from . import evolution
from .experiment import PRESETS, TimelineRecord, timelines_and_distributions
from .oracle import (
    Branches,
    dense_branches,
    dense_marginals,
    dense_trajectory,
    exact_branches,
    exact_run,
)
from .states import CoinSpinor

DEFAULT_SEED = 20100901

#: deepest step of the exact-branches check: ``exact_branches`` does O(t)
#: Python-integer work per coin per step
EXACT_DEPTH_CAP = 12

#: deepest oracle comparison ``run_checks`` accepts; the dense oracle's
#: memory grows as the square of the depth
MAX_DEPTH = 200

#: most random coins ``run_checks`` accepts on top of the five presets; each
#: costs its exact branches and a share of its chunk's dense sweep (about
#: 0.35 ms at depth 10 and 1.0 ms at depth 40 on a shared 2-vCPU Xeon with
#: single-threaded BLAS)
MAX_RANDOM_STATES = 1000

#: coins measured from one run in the oracle sweeps
COINS_PER_RUN = 16

#: 2^(t/2) times the worked coin-0 and coin-1 amplitudes of the walk from
#: |0> at t = 1..3, index k holding site -t + 2k
_THREE_ROWS = {
    1: ([0, 1], [1, 0]),
    2: ([0, 1, 1], [-1, 1, 0]),
    3: ([0, -1, 2, 1], [1, 0, 1, 0]),
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return math.isfinite(self.max_error) and self.max_error <= self.tolerance


def random_coin_states(count: int, seed: int = DEFAULT_SEED) -> list[CoinSpinor]:
    """Deterministic normalized coin states for oracle sweeps."""
    rng = random.Random(seed)
    coins = []
    while len(coins) < count:
        parts = [rng.gauss(0.0, 1.0) for _ in range(4)]
        scale = math.sqrt(sum(p * p for p in parts))
        if scale < 1e-6:
            continue
        coins.append(
            CoinSpinor(
                complex(parts[0], parts[1]) / scale,
                complex(parts[2], parts[3]) / scale,
            )
        )
    return coins


class _MalformedRun(Exception):
    """Blocks of ``evolution.branch_blocks`` that break its layout."""


def _run_blocks(n: int) -> Iterator[tuple[np.ndarray, int, np.ndarray]]:
    """Each block of ``evolution.branch_blocks(n)`` as its steps, its window's
    first index ``lo`` and a ``(2, count, width)`` array of its A0 and B0 rows
    over the window; every index outside the window is 0.

    Raises ``_MalformedRun`` unless the blocks cover t = 0..n in order, each
    window inside its rows.
    """
    done = 0
    for first, lo, a0, b0 in evolution.branch_blocks(n):
        count, width = a0.shape
        length = first + count
        if (
            first != done
            or b0.shape != a0.shape
            or length > n + 1
            or not 0 <= lo <= length - width
        ):
            raise _MalformedRun
        done = length
        yield np.arange(first, length), lo, np.stack((a0, b0))
    if done != n + 1:
        raise _MalformedRun


def _integer_rows(
    reference: dict[int, tuple[list, list]],
    worst: float,
    steps: np.ndarray,
    lo: int,
    rows: np.ndarray,
) -> float:
    """Fold into ``worst`` the deviation of a block's rows, their 2^(m/2)
    scale divided out, from the integer rows (n0, n1) that ``reference``
    holds for a step t, times 2^(-t/2): A0 against n0 and B0 against the
    mirror (-1)^(t+1) n1[t - k], every index past the step against 0.  The
    rows are compared over indices 0..t of the block's last step, the
    window padded with zeros."""
    count, width = rows.shape[1:]
    padded = np.zeros((2, count, steps[-1] + 1))
    padded[:, :, lo : lo + width] = rows
    unscaled = padded * 2.0 ** (-evolution.row_exponent(steps) / 2)[:, None]
    scale = 2.0 ** (-steps / 2)
    for j, t in enumerate(steps.tolist()):
        if t in reference:
            want = np.zeros_like(unscaled[:, j])
            want[:, : t + 1] = reference[t]
            want[1, : t + 1] = (-1) ** (t + 1) * want[1, t::-1]
            worst = np.maximum(worst, np.max(np.abs(unscaled[:, j] - want * scale[j])))
    return worst


def _norm_drift(worst: float, steps: np.ndarray, lo: int, rows: np.ndarray) -> float:
    """Fold in each row's norm drift; the norm is (sum A0^2 + sum B0^2)
    2^(-m), since B0 is A1 mirrored, summed over the window alone."""
    mass = np.ldexp(np.square(rows).sum(axis=2).sum(axis=0), -evolution.row_exponent(steps))
    return np.maximum(worst, np.max(np.abs(mass - 1.0)))


def _cone_violations(count: float, steps: np.ndarray, lo: int, rows: np.ndarray) -> float:
    """Add the steps t >= 1 whose rows hold a nonzero entry at index 0, the
    slot a step vacates (A0 at site -t, and B0 mirroring A1 at site t), or
    past index t."""
    # only window columns past the block's first step can lie past a row's
    # step: column i is index lo + i, past row j's step when it exceeds it
    start = max(0, steps[0] + 1 - lo)
    index = lo + np.arange(start, rows.shape[2])
    past = ((rows[:, :, start:] != 0.0) & (index > steps[:, None])).any(axis=(0, 2))
    vacated = (rows[:, :, :1] != 0.0).any(axis=(0, 2)) & (steps >= 1) & (lo == 0)
    return count + int(np.count_nonzero(past | vacated))


def _row_errors(checks) -> list[float]:
    """Errors of the row checks ``(name, update, depth, tolerance)`` from one
    walk of ``_run_blocks`` to the deepest: each error starts at 0 and
    ``update(error, steps, lo, rows)`` folds in every block that starts at
    or before its depth.  Blocks that break the layout make every error
    inf."""
    errors = [0.0] * len(checks)
    try:
        for steps, lo, rows in _run_blocks(max(depth for _, _, depth, _ in checks)):
            for i, (_, update, depth, _) in enumerate(checks):
                if steps[0] <= depth:
                    errors[i] = update(errors[i], steps, lo, rows)
    except _MalformedRun:
        return [math.inf] * len(checks)
    return errors


def _records_error(
    timeline: list[TimelineRecord], depth: int, branches: Iterable[Branches]
) -> float:
    """Worst deviation of a coin's record weights and entropies from a
    reference's per-step ``((w0, e0), (w1, e1))`` at t = 1..depth; inf if the
    records are not those steps in order, or a branch is absent (entropy
    None) on one side only."""
    if [record.step for record in timeline] != list(range(1, depth + 1)):
        return math.inf
    errors = [0.0]
    for record, reference in zip(timeline, branches):
        for weight, entropy, (want_weight, want_entropy) in zip(
            (record.p0, record.p1), (record.entropy0, record.entropy1), reference
        ):
            if (entropy is None) != (want_entropy is None):
                return math.inf
            errors.append(abs(weight - want_weight))
            if entropy is not None:
                errors.append(abs(entropy - want_entropy))
    return np.max(errors)


def _dense_error(
    coins: list[CoinSpinor],
    timelines: list[list[TimelineRecord]],
    distributions: list[dict[int, float]],
    depth: int,
) -> float:
    """Worst ``_records_error`` of a chunk of coins against the
    ``dense_branches`` of one dense trajectory, folded with the worst
    deviation of each final distribution from walker 1's marginal of the
    coin's dense state at t = depth; sites missing from either are compared
    as 0, and a site past the light cone is inf."""
    states = dense_trajectory(depth)
    final = next(states)
    # the walrus keeps the last state
    steps = [dense_branches(final := runs, coins) for runs in states]
    errors = [
        _records_error(timeline, depth, branches)
        for timeline, branches in zip(timelines, zip(*steps))
    ]
    sites = range(-depth, depth + 1)
    cone = set(sites)
    for distribution, marginal in zip(distributions, dense_marginals(final, coins).tolist()):
        if not distribution.keys() <= cone:
            return math.inf
        errors.extend(abs(distribution.get(x, 0.0) - p) for x, p in zip(sites, marginal))
    return np.max(errors)


def _exact_error(
    coins: list[CoinSpinor],
    timelines: list[list[TimelineRecord]],
    distributions: list[dict[int, float]],
    depth: int,
) -> float:
    """Worst ``_records_error`` of a chunk of coins, each against the weights
    and entropies ``exact_branches`` gives over one ``exact_run(depth)``;
    the distributions are not read."""
    rows = list(itertools.islice(exact_run(depth), 1, None))
    return np.max([
        _records_error(
            timeline,
            depth,
            (tuple(branch[:2] for branch in exact_branches(coin, *row)) for row in rows),
        )
        for coin, timeline in zip(coins, timelines)
    ])


def _check_three_step_entropies(timeline: list[TimelineRecord]) -> list[CheckResult]:
    """The worked-value checks of preset 4a's records at t = 1..3; a missing
    record reads as absent, so its checks FAIL."""
    absent = TimelineRecord._make([None] * len(TimelineRecord._fields))
    r1, r2, r3 = [*timeline[:3], absent, absent, absent][:3]
    table = (
        ("branch entropies t=1 (product states)", (r1.entropy0, r1.entropy1), (0.0, 0.0), 1e-9),
        ("branch entropies t=2 (maximally entangled)", (r2.entropy0, r2.entropy1), (1.0, 1.0), 1e-9),
        ("branch entropy t=3 coin-0", (r3.entropy0,), (1.2516,), 5e-5),
        ("branch entropy t=3 coin-1", (r3.entropy1,), (1.0,), 1e-9),
        ("attainable bound at t=2 and t=3", (r2.max_entropy, r3.max_entropy), (1.0, 1.585), 5e-4),
    )
    return [
        CheckResult(
            name,
            np.max([math.inf if g is None else abs(g - w) for g, w in zip(got, want)]),
            tol,
        )
        for name, got, want, tol in table
    ]


def run_checks(
    max_step: int = 10, random_states: int = 5, seed: int = DEFAULT_SEED
) -> list[CheckResult]:
    """Full verification sweep; oracle comparisons go up to ``max_step``."""
    if max_step < 3:
        raise ValueError("max_step must be at least 3 to cover the worked fixtures")
    if max_step > MAX_DEPTH:
        raise ValueError(
            f"max_step must be at most {MAX_DEPTH} (the dense oracle holds a "
            f"(2, 2, 2t+1, 2t+1) tensor), got {max_step}"
        )
    if random_states < 0:
        raise ValueError(f"random_states must be non-negative, got {random_states}")
    if random_states > MAX_RANDOM_STATES:
        raise ValueError(
            f"random_states must be at most {MAX_RANDOM_STATES}, got {random_states}"
        )
    coins = [*PRESETS.values(), *random_coin_states(random_states, seed)]
    long, exact_depth = 1000, min(max_step, EXACT_DEPTH_CAP)
    # (name, reference, depth, tolerance): the checks of each coin's
    # records, then the run-row checks
    records = (
        (f"timeline and distribution vs dense oracle, t <= {max_step}",
         _dense_error, max_step, 1e-10),
        (f"timeline vs exact branches, t <= {exact_depth}",
         _exact_error, exact_depth, 1e-12),
    )
    errors = [0.0] * len(records)
    # one run measures a few coins at a time: at any depth and coin count the
    # records held at once stay few
    for start in range(0, len(coins), COINS_PER_RUN):
        chunk = coins[start : start + COINS_PER_RUN]
        timelines, distributions = zip(*timelines_and_distributions(chunk, max_step))
        if start == 0:
            # the coins start with the presets, 4a first
            entropies = _check_three_step_entropies(timelines[0])
        for i, (_, reference, depth, _) in enumerate(records):
            cut = [timeline[:depth] for timeline in timelines]
            errors[i] = np.maximum(errors[i], reference(chunk, cut, distributions, depth))
    # built after the dense sweeps, so its integers are not held through them
    exact_rows = partial(_integer_rows, dict(enumerate(exact_run(max_step))))
    rows = (
        ("three-step amplitudes vs closed form", partial(_integer_rows, _THREE_ROWS), 3, 1e-12),
        (f"norm drift over {long} steps", _norm_drift, long, 1e-12),
        (f"light-cone violations over {long} steps", _cone_violations, long, 0.0),
        (f"unscaled run rows vs exact integer run, t <= {max_step}", exact_rows, max_step, 1e-14),
    )
    amplitudes, drift, cone, exact, dense, exact_records = (
        CheckResult(name, error, tol)
        for (name, _, _, tol), error in zip((*rows, *records), (*_row_errors(rows), *errors))
    )
    # measured at t = long alone: only the block that holds it is measured
    ((_, distribution),) = timelines_and_distributions([PRESETS["4a"]], long, measured=[long])
    completeness = CheckResult(
        f"distribution completeness at t={long}", abs(sum(distribution.values()) - 1.0), 1e-12
    )
    return [amplitudes, *entropies, drift, cone, completeness, dense, exact_records, exact]
