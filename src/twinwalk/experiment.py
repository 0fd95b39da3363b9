"""End-to-end driver: evolve, measure at every step count, quantify.

The walk is deterministic and measurement-free up to any chosen step count,
so one trajectory snapshotted at t = 1..n stands in for n identically
prepared runs, and both coin outcomes are evaluated exactly from each
snapshot (no sampling anywhere).  Alongside the two-walker timelines this
module computes the one-walker distribution diagnostics that the ratio
convergence correlates with.

Every timeline comes from one real run: ``timelines_and_distributions``
measures any list of coins from each block of ``evolution.branch_blocks``
(K consecutive steps, K = 16 at 1000 steps).  The block's A0 and B0 rows
are stacked once into X = A0^2, Y = B0^2 and Z = A0 B0; a coin's site
weights are a fixed mix of the three (``_branch_mixing``), and one
``entanglement.branch_entropies`` pass measures both branches of a coin over
the whole block; only the records are built step by step.  The one-walker
distribution is read off the final rows of the same run, so the figure
bundle and ``scripts/ratio_convergence.py`` evolve once for all their
presets.  ``run_timeline`` and ``timeline_and_distribution`` are its
one-coin calls.  Step counts above ``MAX_STEPS`` are refused up front.

A walk is fixed by its initial coin and run for a step count; both are
passed straight in.  ``PRESETS`` holds the five built-in coins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import branch_entropies, max_entanglement
from .evolution import branch_blocks, coin_rows, row_exponent
from .measurement import PROB_EPS, CoinOutcome
from .states import CoinSpinor, mirror_total_variation

_S = math.sqrt(0.5)

#: longest timeline ``run_timeline`` accepts, checked before anything is
#: allocated.  The work grows as steps^2 (step t touches t + 1 sites): 8000
#: steps take about 0.5 s and 16000 about 2 s on a quiet 2-vCPU Xeon, so 10^6
#: would take about two hours.
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


def _branch_mixing(coins: list[CoinSpinor]) -> np.ndarray:
    """(2C, 3) coefficients of X = A0^2, Y = B0^2 and Z = A0 B0 in the site
    weights of each coin's branches: row 2i is coin i's branch 0, row 2i + 1
    its branch 1.

    Branch 0 weighs |alpha|^2 X + |beta|^2 Y + 2 Re(alpha conj(beta)) Z at
    each site.  Branch 1 is the same form with |alpha|^2 and |beta|^2 swapped
    and Z negated, read at the mirrored sites (see ``evolution``), which
    changes neither its weight nor its entropy.
    """
    mixing = []
    for coin in coins:
        alpha, beta = coin.amp0, coin.amp1
        a = alpha.real * alpha.real + alpha.imag * alpha.imag
        b = beta.real * beta.real + beta.imag * beta.imag
        r = 2.0 * (alpha.real * beta.real + alpha.imag * beta.imag)
        mixing += [(a, b, r), (b, a, -r)]
    return np.array(mixing).reshape(-1, 3)


def _measure(
    coins: list[CoinSpinor], steps: int
) -> tuple[list[list[TimelineRecord]], tuple[int, int, np.ndarray, np.ndarray]]:
    """Records for t = 1..steps of the walk from each coin, all from one real
    run, and the run's final step as a one-row ``branch_blocks`` block.

    ``steps`` outside 1..MAX_STEPS is rejected before anything is evolved or
    allocated, and every coin's normalization is checked before the run.
    Each block of ``evolution.branch_blocks`` is stacked into X, Y and Z over
    its window once, for all coins.  Per coin, one matmul with its two rows
    of ``_branch_mixing`` turns them into the site weights of both its
    branches, and one ``branch_entropies`` pass measures them; measuring coin
    by coin keeps the block's working memory that of one coin.  A branch's
    weight is the same mix of the row sums of X, Y and Z, taken with plain
    multiplies and adds rather than a fused multiply-add, so a branch whose
    terms cancel exactly weighs exactly 0.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if steps > MAX_STEPS:
        raise ValueError(f"steps must be at most {MAX_STEPS}, got {steps}")
    for coin in coins:
        coin.require_normalized()
    mixing = _branch_mixing(coins)
    timelines: list[list[TimelineRecord]] = [[] for _ in coins]
    stack, ones = None, np.ones(steps + 1)
    # minus the exponent m of each step's row scale 2^(m/2)
    unscale = -row_exponent(np.arange(steps + 1))
    blocks = branch_blocks(steps)
    next(blocks)  # step 0 is not measured
    for first, lo, a0, b0 in blocks:
        count, width = a0.shape
        # one buffer for X, Y, Z, a coin's site weights and the entropy pass's
        # working space, allocated once: the first block has the most rows,
        # the last the widest
        if stack is None:
            stack = np.empty(11 * count * (steps + 1))
        size = count * width
        parts = stack[: 3 * size].reshape(3, count, width)
        site_weights = stack[3 * size : 5 * size].reshape(2, -1)
        work = stack[5 * size : 11 * size]
        np.square(a0, out=parts[0])
        np.square(b0, out=parts[1])
        np.multiply(a0, b0, out=parts[2])
        # the rows carry 2^m times the true X, Y and Z; the entropy does not
        # see that scale, and the weights are cleared of it exactly
        sums = (parts.reshape(-1, width) @ ones[:width]).reshape(3, count)
        scaled = (mixing[:, :, None] * sums).sum(axis=1)
        weights = np.ldexp(scaled, unscale[first : first + count])
        present = weights > PROB_EPS
        steps_and_bounds = [(t, max_entanglement(t)) for t in range(first, first + count)]
        for i, records in enumerate(timelines):
            np.matmul(mixing[2 * i : 2 * i + 2], parts.reshape(3, -1), out=site_weights)
            entropies, supports = branch_entropies(
                site_weights.reshape(-1, width),
                scaled[2 * i : 2 * i + 2].ravel(),
                present[2 * i : 2 * i + 2].ravel(),
                work,
            )
            p = weights[2 * i : 2 * i + 2].ravel().tolist()
            for j, (t, bound) in enumerate(steps_and_bounds):
                entropy0, entropy1 = entropies[j], entropies[count + j]
                records.append(
                    TimelineRecord(
                        step=t,
                        p0=p[j],
                        p1=p[count + j],
                        entropy0=entropy0,
                        entropy1=entropy1,
                        max_entropy=bound,
                        # entanglement_ratio, with the bound computed once
                        ratio0=None if entropy0 is None or t == 1 else entropy0 / bound,
                        ratio1=None if entropy1 is None or t == 1 else entropy1 / bound,
                        support0=supports[j],
                        support1=supports[count + j],
                    )
                )
    return timelines, (steps, lo, a0[-1:], b0[-1:])


def timelines_and_distributions(
    coins: list[CoinSpinor], steps: int
) -> list[tuple[list[TimelineRecord], dict[int, float]]]:
    """For each coin, records for t = 1..steps of the walk from it plus its
    one-walker distribution after ``steps`` steps, all from one real run
    (see ``_measure``)."""
    timelines, final = _measure(coins, steps)
    out = np.empty((2, 1, steps + 1), dtype=np.complex128)
    return [
        (records, trajectory_distribution(*next(coin_rows(coin, final, out))))
        for coin, records in zip(coins, timelines)
    ]


def run_timeline(coin_init: CoinSpinor, steps: int) -> list[TimelineRecord]:
    """Records for t = 1..steps of the walk from ``coin_init``: the one-coin
    case of ``timelines_and_distributions``, without the distribution."""
    (records,), _ = _measure([coin_init], steps)
    return records


def timeline_and_distribution(
    coin_init: CoinSpinor, steps: int
) -> tuple[list[TimelineRecord], dict[int, float]]:
    """``run_timeline(coin_init, steps)`` plus the one-walker distribution
    after ``steps`` steps, from the same run.

    Each walker's marginal is the one-walker Hadamard walk from the origin.
    """
    (result,) = timelines_and_distributions([coin_init], steps)
    return result


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
