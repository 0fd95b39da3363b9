"""End-to-end driver: evolve, measure at every step count, quantify.

The walk is deterministic and measurement-free up to any chosen step count,
so one trajectory snapshotted at t = 1..n stands in for n identically
prepared runs, and both coin outcomes are evaluated exactly from each
snapshot (no sampling anywhere).  Alongside the two-walker timelines this
module computes the one-walker distribution diagnostics that the ratio
convergence correlates with.

Every timeline is one pass of ``run_timeline`` over
``evolution.trajectory_blocks``: each block holds K consecutive steps (K = 8
at 1000 steps), and all 2K branch rows of a block, coin 0 and coin 1, are
measured together in one fused ``entanglement.branch_entropies`` pass; only
the records are built step by step.  ``timeline_and_distribution`` also reads
the one-walker distribution off the final arrays of that pass, so a preset
that needs both (the figure bundle, ``scripts/ratio_convergence.py``) is
evolved once.  Step counts above ``MAX_STEPS`` are refused up front.

A walk is fixed by its initial coin and run for a step count; both are
passed straight in.  ``PRESETS`` holds the five built-in coins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import branch_entropies, entanglement_ratio, max_entanglement
from .evolution import trajectory_blocks
from .measurement import CoinOutcome
from .states import CoinSpinor, mirror_total_variation

_S = math.sqrt(0.5)

#: longest timeline ``run_timeline`` accepts, checked before anything is
#: allocated.  The work grows as steps^2 (step t touches t + 1 sites): 8000
#: steps take about 1.5 s on a 2-vCPU machine, so 10^6 would take six hours.
MAX_STEPS = 1_000_000

#: the five built-in initial coins; both walkers start at the origin
PRESETS: dict[str, CoinSpinor] = {
    "4a": CoinSpinor(1.0 + 0j, 0j),
    "4b": CoinSpinor(0j, 1.0 + 0j),
    "4c": CoinSpinor(complex(_S, 0.0), complex(0.0, _S)),
    "4d": CoinSpinor(complex(0.0, _S), complex(_S, 0.0)),
    "4e": CoinSpinor(
        complex(math.sqrt(0.85), 0.0), complex(-math.sqrt(0.15), 0.0)
    ),
}


@dataclass(frozen=True)
class TimelineRecord:
    """Per-step measurement summary.

    Entropies and ratios are None when the corresponding branch is absent;
    the ratio is also None at t = 1 where the attainable bound is zero.
    ``support0``/``support1`` count the Schmidt coefficients retained for each
    branch, so both the log2(t) bound and the actual-support bound are
    inspectable downstream.
    """

    step: int
    p0: float
    p1: float
    entropy0: float | None
    entropy1: float | None
    max_entropy: float
    ratio0: float | None
    ratio1: float | None
    support0: int | None
    support1: int | None


@dataclass(frozen=True)
class SymmetryReport:
    """Balance diagnostics of the one-walker walk for a given initial coin."""

    mean_position_over_t: float
    mirror_distance: float


def run_timeline(
    coin_init: CoinSpinor, steps: int, *, final: list[np.ndarray] | None = None
) -> list[TimelineRecord]:
    """Records for t = 1..steps of the walk from ``coin_init``, each from the
    t-step state.

    ``steps`` outside 1..MAX_STEPS is rejected before anything is evolved or
    allocated; the coin's normalization is checked once, by
    ``trajectory_blocks``.  Each block of steps is measured in one
    ``branch_entropies`` pass over its coin-0 and coin-1 rows.  When
    ``final`` is given, the coin-0 and coin-1 arrays after ``steps`` steps
    are appended to it, so a caller that also needs the final state (see
    ``timeline_and_distribution``) does not evolve the walk a second time.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if steps > MAX_STEPS:
        raise ValueError(f"steps must be at most {MAX_STEPS}, got {steps}")
    records = []
    blocks = trajectory_blocks(coin_init, steps)
    next(blocks)  # step 0 is not measured
    for first, rows in blocks:
        count = rows.shape[1]
        weights, entropies, supports = branch_entropies(rows)
        for j in range(count):
            t = first + j
            entropy0, entropy1 = entropies[j], entropies[count + j]
            records.append(
                TimelineRecord(
                    step=t,
                    p0=weights[j],
                    p1=weights[count + j],
                    entropy0=entropy0,
                    entropy1=entropy1,
                    max_entropy=max_entanglement(t),
                    ratio0=None if entropy0 is None else entanglement_ratio(entropy0, t),
                    ratio1=None if entropy1 is None else entanglement_ratio(entropy1, t),
                    support0=supports[j],
                    support1=supports[count + j],
                )
            )
    if final is not None:
        final.extend((rows[0, -1], rows[1, -1]))
    return records


def timeline_and_distribution(
    coin_init: CoinSpinor, steps: int
) -> tuple[list[TimelineRecord], dict[int, float]]:
    """``run_timeline(coin_init, steps)`` plus the one-walker distribution
    after ``steps`` steps.

    Both come from the same trajectory, so the walk is evolved once.  Each
    walker's marginal is the one-walker Hadamard walk from the origin.
    """
    final: list[np.ndarray] = []
    records = run_timeline(coin_init, steps, final=final)
    return records, trajectory_distribution(*final)


def default_window(steps: int) -> int:
    """Averaging window used when none is given: the last 10% of the run."""
    return max(1, steps // 10)


def asymptotic_ratio(
    timeline: list[TimelineRecord], outcome: CoinOutcome, window: int
) -> float:
    """Mean entanglement ratio of one outcome over the last ``window`` records."""
    if window < 1 or window > len(timeline):
        raise ValueError(
            f"window must be within 1..{len(timeline)}, got {window}"
        )
    tail = timeline[-window:]
    ratios = [
        record.ratio0 if outcome is CoinOutcome.C0 else record.ratio1
        for record in tail
    ]
    if any(r is None for r in ratios):
        raise ValueError(f"ratio for {outcome} is absent within the window")
    return sum(ratios) / len(ratios)


def window_ratios(
    timeline: list[TimelineRecord], window: int
) -> dict[str, float | None]:
    """``asymptotic_ratio`` of both outcomes keyed "c0"/"c1"; None where it fails."""
    ratios: dict[str, float | None] = {}
    for outcome in CoinOutcome:
        try:
            ratios[str(outcome)] = asymptotic_ratio(timeline, outcome, window)
        except ValueError:
            ratios[str(outcome)] = None
    return ratios


def distribution_symmetry(distribution: dict[int, float], steps: int) -> SymmetryReport:
    """Balance diagnostics of a ``steps``-step one-walker position distribution."""
    return SymmetryReport(
        mean_position_over_t=sum(x * p for x, p in distribution.items()) / steps,
        mirror_distance=mirror_total_variation(distribution),
    )


def trajectory_distribution(a0: np.ndarray, a1: np.ndarray) -> dict[int, float]:
    """Position distribution of one ``trajectory`` step started at the origin.

    Sites never reached (probability exactly 0) are left out.
    """
    t = len(a0) - 1
    probabilities = np.abs(a0) ** 2 + np.abs(a1) ** 2
    return {
        x: p
        for x, p in zip(range(-t, t + 1, 2), probabilities.tolist())
        if p != 0.0
    }
