"""Self-checks behind the ``verify`` CLI command.

Each check compares the engine against closed-form values, an invariant or
one of the independent oracles and reports the worst error it measured, so a
corrupted engine shows up as a concrete number rather than a silent drift.
The checks, in order, with the engine output each reads and its tolerance:

=====================================================  ==================  =====
check                                                  engine              tol
=====================================================  ==================  =====
three-step amplitudes vs closed form                   amplitude tables    1e-12
branch entropies t=1 (product states)                  timeline records    1e-9
branch entropies t=2 (maximally entangled)             timeline records    1e-9
branch entropy t=3 coin-0                              timeline records    5e-5
branch entropy t=3 coin-1                              timeline records    1e-9
attainable bound at t=2 and t=3                        timeline records    5e-4
norm drift over 1000 steps                             array trajectory    1e-12
light-cone violations over 1000 steps                  array trajectory    0
distribution completeness at t=1000                    array trajectory    1e-12
array amplitudes and timeline vs dense oracle, t <= D  array trajectory    1e-10
                                                       and timeline
                                                       records
array amplitudes vs path-sum oracle, t <= min(D, 12)   amplitude tables    1e-12
unscaled run rows vs exact integer run, t <= D         run rows            1e-14
=====================================================  ==================  =====

The "array trajectory" is ``evolution.trajectory``, the complex view
alpha A + beta B of the one real run that ``run_timeline`` measures;
"amplitude tables" are its arrays read as {(site, coin): amplitude} maps,
built only to the path-sum depth; "timeline records" are ``run_timeline``
output; "run rows" are the A0 and B0 rows of ``evolution.branch_blocks``
with their 2^(m/2) scale divided out.  D is the oracle depth,
3 <= D <= ``MAX_DEPTH``; the dense and path-sum sweeps cover the five presets
plus 0..``MAX_RANDOM_STATES`` random coins, one coin at a time, and the
exact-run check, which needs no coin, runs once.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from . import evolution
from .experiment import PRESETS, run_timeline, trajectory_distribution
from .measurement import CoinOutcome
from .oracle import dense_trajectory, exact_run, path_sum_table, reduced_entropy
from .states import CoinSpinor

DEFAULT_SEED = 20100901

#: most path-sum comparisons are affordable only up to this depth
PATH_SUM_DEPTH_CAP = 12

#: deepest oracle comparison ``run_checks`` accepts; the dense oracle's
#: memory grows as the square of the depth
MAX_DEPTH = 200

#: most random coins ``run_checks`` accepts on top of the five presets; each
#: costs a dense and a path-sum sweep (about 3.5 ms at depth 10)
MAX_RANDOM_STATES = 1000

AmpTable = dict[tuple[int, int], complex]


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


def _engine_amplitude_tables(coin: CoinSpinor, t_max: int) -> list[AmpTable]:
    """Element t holds the engine's {(site, coin index): amplitude} map at step t.

    Index k of the step-t arrays of ``evolution.trajectory`` is site -t + 2k;
    exact zeros are kept.
    """
    return [
        {
            (2 * k - t, c): amp
            for c, amps in enumerate((a0.tolist(), a1.tolist()))
            for k, amp in enumerate(amps)
        }
        for t, (a0, a1) in enumerate(evolution.trajectory(coin, t_max))
    ]


def _table_difference(left: AmpTable, right: AmpTable) -> float:
    keys = set(left) | set(right)
    return max(abs(left.get(k, 0j) - right.get(k, 0j)) for k in keys)


def _check_three_step_amplitudes() -> CheckResult:
    s = math.sqrt(0.5)
    q = 0.5
    e = s / 2.0
    expected = {
        1: {(1, 0): s, (-1, 1): s},
        2: {(2, 0): q, (0, 0): q, (0, 1): q, (-2, 1): -q},
        3: {(3, 0): e, (1, 0): 2 * e, (-1, 0): -e, (1, 1): e, (-3, 1): e},
    }
    tables = _engine_amplitude_tables(PRESETS["4a"], 3)
    worst = max(
        _table_difference(tables[t], {k: complex(v) for k, v in exp.items()})
        for t, exp in expected.items()
    )
    return CheckResult("three-step amplitudes vs closed form", worst, 1e-12)


def _check_three_step_entropies() -> list[CheckResult]:
    timeline = run_timeline(PRESETS["4a"], 3)
    by_step = {record.step: record for record in timeline}
    checks = [
        CheckResult(
            "branch entropies t=1 (product states)",
            max(abs(by_step[1].entropy0), abs(by_step[1].entropy1)),
            1e-9,
        ),
        CheckResult(
            "branch entropies t=2 (maximally entangled)",
            max(abs(by_step[2].entropy0 - 1.0), abs(by_step[2].entropy1 - 1.0)),
            1e-9,
        ),
        CheckResult(
            "branch entropy t=3 coin-0",
            abs(by_step[3].entropy0 - 1.2516),
            5e-5,
        ),
        CheckResult(
            "branch entropy t=3 coin-1",
            abs(by_step[3].entropy1 - 1.0),
            1e-9,
        ),
        CheckResult(
            "attainable bound at t=2 and t=3",
            max(
                abs(by_step[2].max_entropy - 1.0),
                abs(by_step[3].max_entropy - 1.585),
            ),
            5e-4,
        ),
    ]
    return checks


def _check_long_run_invariants(steps: int = 1000) -> list[CheckResult]:
    """Norm, light cone and completeness of one array trajectory of preset 4a.

    In the parity-compacted layout a wrong-parity site cannot be stored, so
    the site check counts steps whose arrays are not t + 1 long or whose
    vacated edge slots (coin 0 at index 0, coin 1 at index t) are not exactly 0.
    """
    states = evolution.trajectory(PRESETS["4a"], steps)
    worst_drift = 0.0
    cone_violations = 0
    for t, (a0, a1) in enumerate(itertools.islice(states, 1, None), start=1):
        mass = np.vdot(a0, a0).real + np.vdot(a1, a1).real
        worst_drift = max(worst_drift, abs(float(mass) - 1.0))
        if len(a0) != t + 1 or len(a1) != t + 1 or a0[0] != 0 or a1[t] != 0:
            cone_violations += 1
    completeness = abs(sum(trajectory_distribution(a0, a1).values()) - 1.0)
    return [
        CheckResult(
            f"norm drift over {steps} steps", worst_drift, 1e-12
        ),
        CheckResult(
            f"light-cone violations over {steps} steps", float(cone_violations), 0.0
        ),
        CheckResult(
            f"distribution completeness at t={steps}", completeness, 1e-12
        ),
    ]


def _dense_error(coin: CoinSpinor, t_max: int) -> float:
    """Worst deviation of the array trajectory and the timeline from the dense
    oracle for t = 1..t_max; inf if a step's arrays are not t + 1 long.

    Index k of the step-t arrays is site -t + 2k of the dense diagonal; the
    diagonal's other sites, which the layout cannot store, are compared
    against zero.
    """
    dense_states = itertools.islice(dense_trajectory(coin, t_max, t_max), 1, None)
    arrays = itertools.islice(evolution.trajectory(coin, t_max), 1, None)
    worst = 0.0
    for record, (a0, a1), dense in zip(
        run_timeline(coin, t_max), arrays, dense_states, strict=True
    ):
        t = record.step
        if len(a0) != t + 1 or len(a1) != t + 1:
            return math.inf
        sites = np.arange(-t, t + 1) + dense.lattice_radius
        diff = dense.amplitudes[:, sites, sites]
        diff[0, ::2] -= a0
        diff[1, ::2] -= a1
        # hypot rounds exactly as Python's complex abs; np.abs can differ by an ulp
        worst = max(worst, float(np.max(np.hypot(diff.real, diff.imag))))
        for outcome, weight, entropy in (
            (CoinOutcome.C0, record.p0, record.entropy0),
            (CoinOutcome.C1, record.p1, record.entropy1),
        ):
            worst = max(worst, abs(weight - dense.branch_probability(outcome)))
            if entropy is not None:
                worst = max(worst, abs(entropy - reduced_entropy(dense, outcome)))
    return worst


def _exact_run_error(t_max: int) -> float:
    """Worst deviation of the unscaled ``evolution.branch_blocks`` rows from
    ``oracle.exact_run`` times 2^(-t/2), for t = 0..t_max.

    Row t of A0 is n0 2^(-t/2) and row t of B0 is the mirror
    (-1)^(t+1) n1[t - k] 2^(-t/2) of the integer rows n0, n1; every index
    outside a block's window, and past a row's step, is compared against 0.
    Blocks that do not cover t = 0..t_max in order, or a window outside its
    rows, give inf.
    """
    exact = list(exact_run(t_max))
    worst = 0.0
    done = 0
    for first, lo, a0, b0 in evolution.branch_blocks(t_max):
        count, width = a0.shape
        length = first + count
        if (
            first != done
            or b0.shape != a0.shape
            or length > t_max + 1
            or not 0 <= lo <= length - width
        ):
            return math.inf
        done = length
        steps = np.arange(first, length)
        want = np.zeros((2, count, length))
        for j, t in enumerate(steps.tolist()):
            n0, n1 = exact[t]
            want[0, j, : t + 1] = n0
            want[1, j, : t + 1] = n1[::-1] if t % 2 else [-v for v in reversed(n1)]
        want *= 2.0 ** (-steps / 2)[:, None]
        got = np.zeros((2, count, length))
        got[:, :, lo : lo + width] = a0, b0
        got *= 2.0 ** (-evolution.row_exponent(steps) / 2)[:, None]
        worst = max(worst, float(np.max(np.abs(got - want))))
    return worst if done == t_max + 1 else math.inf


def _path_sum_error(coin: CoinSpinor, tables: list[AmpTable], t_max: int) -> float:
    """Worst deviation of the engine tables from the path sum for t = 0..t_max."""
    return max(
        _table_difference(tables[t], path_sum_table(coin, t))
        for t in range(t_max + 1)
    )


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
    for coin in coins:
        dense_worst = max(dense_worst, _dense_error(coin, max_step))
        tables = _engine_amplitude_tables(coin, path_sum_depth)
        path_sum_worst = max(
            path_sum_worst, _path_sum_error(coin, tables, path_sum_depth)
        )
    checks.append(
        CheckResult(
            f"array amplitudes and timeline vs dense oracle, t <= {max_step}",
            dense_worst,
            1e-10,
        )
    )
    checks.append(
        CheckResult(
            f"array amplitudes vs path-sum oracle, t <= {path_sum_depth}",
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
