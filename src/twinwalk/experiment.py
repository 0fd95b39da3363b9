"""End-to-end driver: evolve, measure at every step count, quantify.

The walk is deterministic and measurement-free up to any chosen step count,
so one trajectory snapshotted at t = 1..n stands in for n identically
prepared runs, and both coin outcomes are evaluated exactly from each
snapshot (no sampling anywhere).  Alongside the two-walker timelines this
module computes the one-walker distribution diagnostics that the ratio
convergence correlates with.

Every timeline is one pass of ``run_timeline`` over ``evolution.trajectory``:
at each t both branch arrays are measured with the fused ``branch_entropy``.
``timeline_and_distribution`` also reads the one-walker distribution off the
final arrays of that pass, so a preset that needs both (the figure bundle,
``scripts/ratio_convergence.py``) is evolved once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .entanglement import branch_entropy, entanglement_ratio, max_entanglement
from .evolution import CoinOperator, hadamard, trajectory
from .measurement import CoinOutcome
from .states import CoinSpinor, mirror_total_variation

PRESET_NAMES = ("4a", "4b", "4c", "4d", "4e")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one walk-and-measure timeline."""

    coin_init: CoinSpinor
    steps: int = 1000
    start_position: int = 0
    coin_operator: CoinOperator = field(default_factory=hadamard)

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        self.coin_init.require_normalized()


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
    config: ExperimentConfig, *, final: list[np.ndarray] | None = None
) -> list[TimelineRecord]:
    """Records for t = 1..steps, each computed from the t-step state.

    The start position only relabels sites, so no record depends on it.  When
    ``final`` is given, the coin-0 and coin-1 arrays after ``steps`` steps are
    appended to it, so a caller that also needs the final state (see
    ``timeline_and_distribution``) does not evolve the walk a second time.
    """
    records = []
    states = trajectory(config.coin_init, config.coin_operator, config.steps)
    a0, a1 = next(states)
    for t, (a0, a1) in enumerate(states, start=1):
        p0, entropy0, support0 = branch_entropy(a0)
        p1, entropy1, support1 = branch_entropy(a1)
        records.append(
            TimelineRecord(
                step=t,
                p0=p0,
                p1=p1,
                entropy0=entropy0,
                entropy1=entropy1,
                max_entropy=max_entanglement(t),
                ratio0=None if entropy0 is None else entanglement_ratio(entropy0, t),
                ratio1=None if entropy1 is None else entanglement_ratio(entropy1, t),
                support0=support0,
                support1=support1,
            )
        )
    if final is not None:
        final.extend((a0, a1))
    return records


def timeline_and_distribution(
    config: ExperimentConfig,
) -> tuple[list[TimelineRecord], dict[int, float]]:
    """``run_timeline`` plus the one-walker distribution after ``steps`` steps.

    Both come from the same trajectory, so the walk is evolved once.  Each
    walker's marginal is the one-walker walk under ``config.coin_operator``.
    Sites are displacements from the start position.
    """
    final: list[np.ndarray] = []
    records = run_timeline(config, final=final)
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


def canonical_initial_states(steps: int = 1000) -> dict[str, ExperimentConfig]:
    """The five built-in initial conditions, keyed by preset name.

    All place both walkers at the origin and differ only in the coin state.
    """
    s = math.sqrt(0.5)
    coins = {
        "4a": CoinSpinor(1.0 + 0j, 0j),
        "4b": CoinSpinor(0j, 1.0 + 0j),
        "4c": CoinSpinor(complex(s, 0.0), complex(0.0, s)),
        "4d": CoinSpinor(complex(0.0, s), complex(s, 0.0)),
        "4e": CoinSpinor(
            complex(math.sqrt(0.85), 0.0), complex(-math.sqrt(0.15), 0.0)
        ),
    }
    return {
        name: ExperimentConfig(coin_init=coin, steps=steps)
        for name, coin in coins.items()
    }


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
