"""Self-checks behind the ``verify`` CLI command.

Each check compares the engine against closed-form values, an invariant or
one of the independent oracles and reports the worst error it measured, so a
corrupted engine shows up as a concrete number rather than a silent drift.
Errors are folded with ``np.maximum`` or ``np.max``, which keep a NaN
(Python's ``max`` drops one that comes second), so a NaN fails its check,
and an absent branch's entropy (None) at t <= 3, or a branch absent on one
side only of an oracle comparison, counts as an infinite error.
The checks, in order, with the engine output each reads and its tolerance:

====================================================  ====================  =====
check                                                 engine                tol
====================================================  ====================  =====
three-step amplitudes vs closed form                  run rows              1e-12
branch entropies t=1 (product states)                 timeline records      1e-9
branch entropies t=2 (maximally entangled)            timeline records      1e-9
branch entropy t=3 coin-0                             timeline records      5e-5
branch entropy t=3 coin-1                             timeline records      1e-9
attainable bound at t=2 and t=3                       timeline records      5e-4
norm drift over 1000 steps                            run rows              1e-12
light-cone violations over 1000 steps                 run rows              0
distribution completeness at t=1000                   final distribution,   1e-12
                                                      t=1000 measured only
timeline and distribution vs dense oracle, t <= D     timeline records and  1e-10
                                                      final distribution
timeline vs path-sum oracle, t <= min(D, 12)          timeline records      1e-12
unscaled run rows vs exact integer run, t <= D        run rows              1e-14
====================================================  ====================  =====

"Run rows" are the A0 and B0 rows of ``evolution.branch_blocks``, the one
real run behind every output, with their 2^(m/2) scale divided out (the
run's coin-1 row A1 is read as the mirror of B0); "timeline records" and
"final distribution" are what ``experiment.timelines_and_distributions``
returns for a coin.  D is the oracle depth, 3 <= D <= ``MAX_DEPTH``; the
dense and path-sum sweeps cover the five presets plus
0..``MAX_RANDOM_STATES`` random coins, ``COINS_PER_RUN`` coins to a run, and
the checks of the run rows, which need no coin, read the run from |0>
(preset 4a).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import evolution
from .experiment import PRESETS, TimelineRecord, run_timeline, timelines_and_distributions
from .oracle import dense_branches, dense_trajectory, exact_run, path_sum_tables
from .states import PROB_EPS, CoinSpinor

DEFAULT_SEED = 20100901

#: most path-sum comparisons are affordable only up to this depth
PATH_SUM_DEPTH_CAP = 12

#: deepest oracle comparison ``run_checks`` accepts; the dense oracle's
#: memory grows as the square of the depth
MAX_DEPTH = 200

#: most random coins ``run_checks`` accepts on top of the five presets; each
#: costs a dense and a path-sum sweep (about 1.3 ms at depth 10 on a 2-vCPU
#: Xeon)
MAX_RANDOM_STATES = 1000

#: coins measured from one run in the oracle sweeps
COINS_PER_RUN = 16


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


def _run_blocks(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each block of ``evolution.branch_blocks(n)`` as its steps and a
    ``(2, count, first + count)`` array of its A0 and B0 rows as stored, every
    index outside the block's window 0.

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
        rows = np.zeros((2, count, length))
        rows[:, :, lo : lo + width] = a0, b0
        yield np.arange(first, length), rows
    if done != n + 1:
        raise _MalformedRun


def _unscaled(steps: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``_run_blocks`` rows with their 2^(m/2) scale divided out."""
    return rows * 2.0 ** (-evolution.row_exponent(steps) / 2)[:, None]


def _check_three_step_amplitudes() -> CheckResult:
    """The unscaled run from |0> at t = 1..3, A1 read as the mirror
    (-1)^(t+1) B0[t - k] of B0, against the worked coin-0 and coin-1
    amplitudes, index k holding site -t + 2k."""
    s = math.sqrt(0.5)
    q = 0.5
    e = s / 2.0
    expected = {
        1: ([0, s], [s, 0]),
        2: ([0, q, q], [-q, q, 0]),
        3: ([0, -e, 2 * e, e], [e, 0, e, 0]),
    }
    worst = 0.0
    try:
        for steps, rows in _run_blocks(3):
            amplitudes = _unscaled(steps, rows)
            for j, t in enumerate(steps.tolist()):
                if t in expected:
                    a0 = amplitudes[0, j, : t + 1]
                    a1 = (-1) ** (t + 1) * amplitudes[1, j, t::-1]
                    worst = np.maximum(worst, np.max(np.abs(np.array([a0, a1]) - expected[t])))
    except _MalformedRun:
        worst = math.inf
    return CheckResult("three-step amplitudes vs closed form", worst, 1e-12)


def _check_three_step_entropies() -> list[CheckResult]:
    r1, r2, r3 = run_timeline(PRESETS["4a"], 3)
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


def _check_long_run_invariants() -> list[CheckResult]:
    """Norm and light cone of the run rows, and completeness of preset 4a's
    final distribution, over 1000 steps.

    A row's norm is (sum A0^2 + sum B0^2) 2^(-m), since B0 is A1 mirrored.
    A light-cone violation is a step t >= 1 whose rows hold a nonzero entry
    at index 0, the slot a step vacates (A0 at site -t, and B0 mirroring A1
    at site t), or past index t.  Blocks that break the layout make both inf.
    """
    steps = 1000
    worst_drift = 0.0
    cone_violations = 0.0
    try:
        for t, rows in _run_blocks(steps):
            mass = np.ldexp(np.square(rows).sum(axis=2).sum(axis=0), -evolution.row_exponent(t))
            worst_drift = np.maximum(worst_drift, np.max(np.abs(mass - 1.0)))
            # only the block's last count - 1 indices lie past any row's step:
            # index t[0] + 1 + i is past row j's step when i >= j
            count = len(t)
            tail = rows[:, :, t[0] + 1 :] != 0.0
            past = (tail & (np.arange(count - 1) >= np.arange(count)[:, None])).any(axis=(0, 2))
            vacated = (rows[:, :, 0] != 0.0).any(axis=0) & (t >= 1)
            cone_violations += int(np.count_nonzero(past | vacated))
    except _MalformedRun:
        worst_drift = cone_violations = math.inf
    # measured at t = steps alone: only the block that holds it is measured
    ((_, distribution),) = timelines_and_distributions([PRESETS["4a"]], steps, measured=[steps])
    completeness = abs(sum(distribution.values()) - 1.0)
    return [
        CheckResult(f"norm drift over {steps} steps", worst_drift, 1e-12),
        CheckResult(f"light-cone violations over {steps} steps", float(cone_violations), 0.0),
        CheckResult(f"distribution completeness at t={steps}", completeness, 1e-12),
    ]


def _dense_error(
    coin: CoinSpinor, timeline: list[TimelineRecord], distribution: dict[int, float]
) -> float:
    """Worst deviation of a coin's timeline (weights and entropies) and of
    its final distribution from the dense oracle, for t = 1..len(timeline);
    inf if the records are not those steps in order, or a branch is absent
    on one side only.

    The dense distribution is walker 1's marginal of the whole tensor; sites
    missing from either distribution are compared as 0.
    """
    t_max = len(timeline)
    if [record.step for record in timeline] != list(range(1, t_max + 1)):
        return math.inf
    errors = []
    dense_states = itertools.islice(dense_trajectory(coin, t_max), 1, None)
    for record, dense in zip(timeline, dense_states):
        for weight, entropy, (want_weight, want_entropy) in zip(
            (record.p0, record.p1), (record.entropy0, record.entropy1), dense_branches(dense)
        ):
            if (entropy is None) != (want_entropy is None):
                return math.inf
            errors.append(abs(weight - want_weight))
            if entropy is not None:
                errors.append(abs(entropy - want_entropy))
    marginal = np.square(np.abs(dense.amplitudes)).sum(axis=(0, 2))
    got = np.zeros_like(marginal)
    for x, p in distribution.items():
        if not -t_max <= x <= t_max:
            return math.inf
        got[x + t_max] = p
    return np.max([*errors, np.max(np.abs(got - marginal))])


def _exact_run_error(t_max: int) -> float:
    """Worst deviation of the unscaled run rows from ``oracle.exact_run``
    times 2^(-t/2), for t = 0..t_max.

    Row t of A0 is n0 2^(-t/2) and row t of B0 is the mirror
    (-1)^(t+1) n1[t - k] 2^(-t/2) of the integer rows n0, n1; every index
    outside a block's window, and past a row's step, is compared against 0.
    Blocks that break the layout give inf.
    """
    exact = list(exact_run(t_max))
    worst = 0.0
    try:
        for steps, rows in _run_blocks(t_max):
            want = np.zeros_like(rows)
            for j, t in enumerate(steps.tolist()):
                n0, n1 = exact[t]
                want[0, j, : t + 1] = n0
                want[1, j, : t + 1] = n1[::-1] if t % 2 else [-v for v in reversed(n1)]
            want *= 2.0 ** (-steps / 2)[:, None]
            worst = np.maximum(worst, np.max(np.abs(_unscaled(steps, rows) - want)))
    except _MalformedRun:
        return math.inf
    return worst


def _path_sum_error(coin: CoinSpinor, timeline: list[TimelineRecord]) -> float:
    """Worst deviation of a coin's timeline weights and entropies from those
    summed from the tables ``oracle.path_sum_tables`` streams, for
    t = 1..len(timeline); inf if the records are not those steps in order, or
    a branch is absent on one side only.

    A branch weighs the sum of its |amplitude|^2, and its entropy is
    -sum q log2 q over every q = |amplitude|^2 / weight > 0.
    """
    errors = [0.0]
    tables = itertools.islice(path_sum_tables(coin, len(timeline)), 1, None)
    for t, (record, table) in enumerate(zip(timeline, tables), start=1):
        if record.step != t:
            return math.inf
        for c, weight, entropy in (
            (0, record.p0, record.entropy0),
            (1, record.p1, record.entropy1),
        ):
            probabilities = [abs(a) ** 2 for (_, coin_index), a in table.items() if coin_index == c]
            want = sum(probabilities)
            if (entropy is None) != (want <= PROB_EPS):
                return math.inf
            errors.append(abs(weight - want))
            if entropy is not None:
                want_entropy = -sum(p / want * math.log2(p / want) for p in probabilities if p > 0.0)
                errors.append(abs(entropy - max(0.0, want_entropy)))
    return np.max(errors)


def run_checks(
    max_step: int = 10, random_states: int = 5, seed: int = DEFAULT_SEED
) -> list[CheckResult]:
    """Full verification sweep; oracle comparisons go up to ``max_step``."""
    if max_step < 3:
        raise ValueError("max_step must be at least 3 to cover the worked fixtures")
    if max_step > MAX_DEPTH:
        raise ValueError(
            f"max_step must be at most {MAX_DEPTH} (the dense oracle holds a "
            f"(2, 2t+1, 2t+1) tensor), got {max_step}"
        )
    if random_states < 0:
        raise ValueError(f"random_states must be non-negative, got {random_states}")
    if random_states > MAX_RANDOM_STATES:
        raise ValueError(
            f"random_states must be at most {MAX_RANDOM_STATES}, got {random_states}"
        )
    coins = [*PRESETS.values(), *random_coin_states(random_states, seed)]
    checks = [_check_three_step_amplitudes()]
    checks.extend(_check_three_step_entropies())
    checks.extend(_check_long_run_invariants())
    path_sum_depth = min(max_step, PATH_SUM_DEPTH_CAP)
    dense_worst = path_sum_worst = 0.0
    # one run measures a few coins at a time: at any depth and coin count the
    # records held at once stay few
    for start in range(0, len(coins), COINS_PER_RUN):
        chunk = coins[start : start + COINS_PER_RUN]
        for coin, (timeline, distribution) in zip(
            chunk, timelines_and_distributions(chunk, max_step)
        ):
            dense_worst = np.maximum(dense_worst, _dense_error(coin, timeline, distribution))
            path_sum_worst = np.maximum(
                path_sum_worst, _path_sum_error(coin, timeline[:path_sum_depth])
            )
    checks.append(
        CheckResult(
            f"timeline and distribution vs dense oracle, t <= {max_step}",
            dense_worst,
            1e-10,
        )
    )
    checks.append(
        CheckResult(
            f"timeline vs path-sum oracle, t <= {path_sum_depth}",
            path_sum_worst,
            1e-12,
        )
    )
    checks.append(
        CheckResult(
            f"unscaled run rows vs exact integer run, t <= {max_step}",
            _exact_run_error(max_step),
            1e-14,
        )
    )
    return checks
