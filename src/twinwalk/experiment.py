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
are stacked once into X = A0^2, Y = B0^2 and Z = A0 B0, and a branch's site
weights are a fixed mix of the three (``_branch_mixing``).  Coins that share
a mix share its measurement, so each distinct mix is measured once per
block: one matmul and one ``entanglement.branch_entropies`` pass for each
pair of them.  The weights, entropies and supports of each mix are gathered
a block at a time and the records built at the end.  Each coin's
one-walker distribution is read off the site weights of its final row, so the
figure bundle and ``scripts/ratio_convergence.py`` evolve once for all their
presets.  No complex array is formed anywhere.  ``run_timeline`` is the
one-coin call without the distribution.

A caller that needs only some steps passes them as ``measured``.  A block is
then measured only if it holds one of them, or is the last block, whose
final row gives the distribution; any other block costs only its evolution.
A measured block is measured whole, exactly as when every step is, so each
returned record is bitwise the every-step record of its step.

``check_walk`` (steps, then measured steps, then coins) and
``resolve_window`` are the one home of the input rules.

The records are bitwise fixed for one block shape only: a weight is a BLAS
row sum, which rounds a row by its alignment (``np.stack([x, x, x]) @ ones``
need not give three equal rows), so another ``evolution.BLOCK_BYTES`` may
move a weight or an entropy by an ulp or two (a test holds K = 2 and 32 at
T = 2000 to 1e-15 relative).  Two runs agree bitwise only on equal blocks.

A walk is fixed by its initial coin and run for a step count; both are
passed straight in.  ``PRESETS`` holds the five built-in coins.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

import numpy as np

from .entanglement import branch_entropies, max_entanglement
from .evolution import branch_blocks, row_exponent
from .states import PROB_EPS, CoinOutcome, CoinSpinor, mirror_total_variation

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


class TimelineRecord(NamedTuple):
    """Per-step measurement summary, a named tuple.

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


def _branch_mixing(coins: list[CoinSpinor]) -> list[tuple[float, float, float]]:
    """Coefficients of X = A0^2, Y = B0^2 and Z = A0 B0 in the site weights of
    each coin's branches: row 2i is coin i's branch 0, row 2i + 1 its branch
    1.  No coefficient is -0.0, so rows equal in value are equal tuples.

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
        r = 2.0 * (alpha.real * beta.real + alpha.imag * beta.imag) + 0.0
        mixing += [(a, b, r), (b, a, 0.0 - r)]
    return mixing


def _distribution(
    w0: np.ndarray, w1: np.ndarray, t: int, lo: int, exponent: int
) -> dict[int, float]:
    """One-walker distribution after t steps from both branches' site weights
    w0, w1 over a final row's window at ``lo``: |coin 1 at k|^2 is branch 1's
    weight at t - k (see ``_branch_mixing``), so site -t + 2k has probability
    (w0[k] + w1[t - k]) 2^exponent.  Sites of probability exactly 0 are left
    out."""
    width = len(w0)
    p = np.zeros(t + 1)
    p[lo : lo + width] = w0
    p[t + 1 - lo - width : t + 1 - lo] += w1[::-1]
    return {
        x: v
        for x, v in zip(range(-t, t + 1, 2), np.ldexp(p, exponent).tolist())
        if v != 0.0
    }


def check_walk(
    coins: list[CoinSpinor], steps: int, measured: Sequence[int] | None = None
) -> None:
    """Reject a walk before anything is evolved: first ``steps`` outside
    1..MAX_STEPS, then ``measured`` unless it is None or strictly increasing
    within 1..steps, then any coin that is not normalized."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if steps > MAX_STEPS:
        raise ValueError(f"steps must be at most {MAX_STEPS}, got {steps}")
    if measured is not None:
        for i, (before, t) in enumerate(zip([0, *measured], measured)):
            if not before < t <= steps:
                raise ValueError(
                    f"measured steps must increase strictly within 1..{steps}, got {t} at index {i}"
                )
    for coin in coins:
        coin.require_normalized()


def timelines_and_distributions(
    coins: list[CoinSpinor], steps: int, measured: Sequence[int] | None = None
) -> list[tuple[list[TimelineRecord], dict[int, float]]]:
    """For each coin, records for the ``measured`` steps (None: t = 1..steps)
    of the walk from it plus its one-walker distribution after ``steps``
    steps, all from one real run.

    ``check_walk`` runs before anything is evolved or allocated.  A block of
    ``evolution.branch_blocks`` is measured only if it holds a measured step
    or is the last block, and then measured whole, so each record is bitwise
    the one every step would give; any other block costs only its evolution.
    A measured block is stacked into X, Y and Z over its window once, for
    all coins.  A branch depends only on its row of ``_branch_mixing``, so
    each distinct row is measured once: two rows at a time, one matmul turns
    X, Y and Z into their site weights and one ``branch_entropies`` pass
    measures them, which keeps the block's working memory that of one coin.
    Rows go in pairs because a row of a (2, 3) product rounds the same
    whatever its partner and a lone (1, 3) product does not; an odd last row
    is paired with a zero row, an absent branch.  A branch's weight is the
    same mix of the row sums of X, Y and Z, taken with plain multiplies and
    adds rather than a fused multiply-add, so a branch whose terms cancel
    exactly weighs exactly 0.  The distribution comes from the site weights
    of the last block's final row (``_distribution``).
    """
    check_walk(coins, steps, measured)
    wanted = [False] + [measured is None] * steps
    for t in measured or ():
        wanted[t] = True
    distinct: dict[tuple[float, float, float], int] = {}
    index = [distinct.setdefault(row, len(distinct)) for row in _branch_mixing(coins)]
    rows = np.array([*distinct, *[(0.0, 0.0, 0.0)] * (len(distinct) % 2)]).reshape(-1, 3)
    mixing, pairs = rows[:, :, None], range(0, len(rows), 2)
    # per mixing row, at t = 0..steps: the weight, filled for each measured
    # block, and at the measured steps the entropy and support
    weights = np.empty((len(rows), steps + 1))
    entropies: list[list[float | None]] = [[] for _ in rows]
    supports: list[list[int | None]] = [[] for _ in rows]
    finals: list[np.ndarray] = []
    stack, ones = None, np.ones(steps + 1)
    # minus the exponent m of each step's row scale 2^(m/2)
    unscale = -row_exponent(np.arange(steps + 1))
    blocks = branch_blocks(steps)
    next(blocks)  # step 0 is not measured
    for first, lo, a0, b0 in blocks:
        count, width = a0.shape
        # one buffer for X, Y, Z, a pair's site weights and the entropy
        # pass's working space, allocated once at the first block, measured
        # or not (so a sampled run lays it out as a full one does): the
        # first block has the most rows, the last the widest
        if stack is None:
            stack = np.empty(7 * count * (steps + 1))
        block = slice(first, first + count)
        flags, last_block = wanted[block], first + count > steps
        if not (last_block or any(flags)):
            continue
        size = count * width
        parts = stack[: 3 * size].reshape(3, count, width)
        site_weights = stack[3 * size : 5 * size].reshape(2, -1)
        work = stack[5 * size : 7 * size]
        # B0 is a strided view: copied once, it is read contiguously
        np.copyto(parts[1], b0)
        np.square(a0, out=parts[0])
        np.multiply(a0, parts[1], out=parts[2])
        np.square(parts[1], out=parts[1])
        # the rows carry 2^m times the true X, Y and Z; the entropy does not
        # see that scale, and the weights are cleared of it exactly
        sums = (parts.reshape(-1, width) @ ones[:width]).reshape(3, count)
        scaled = np.add.reduce(mixing * sums, axis=1)
        present = np.ldexp(scaled, unscale[block], out=weights[:, block]) > PROB_EPS
        for pair in pairs:
            two = slice(pair, pair + 2)
            np.matmul(rows[two], parts.reshape(3, -1), out=site_weights)
            pair_entropies, pair_supports = branch_entropies(
                site_weights.reshape(-1, width), scaled[two].ravel(), present[two].ravel(), work
            )
            for row, half in ((pair, slice(count)), (pair + 1, slice(count, None))):
                entropies[row] += compress(pair_entropies[half], flags)
                supports[row] += compress(pair_supports[half], flags)
            if last_block:
                finals.extend(site_weights.reshape(2, count, width)[:, -1].copy())
    taken = list(compress(range(steps + 1), wanted))
    p = weights[:, taken].tolist()
    bounds = list(map(max_entanglement, taken))
    # the bound is 0 at t = 1, where no ratio is defined
    ratios = [[None if e is None or b == 0.0 else e / b for e, b in zip(row, bounds)]
              for row in entropies]
    return [
        (
            list(map(TimelineRecord._make, zip(
                taken, p[i], p[j], entropies[i], entropies[j],
                bounds, ratios[i], ratios[j], supports[i], supports[j],
            ))),
            _distribution(finals[i], finals[j], steps, lo, unscale[steps]),
        )
        for i, j in zip(index[::2], index[1::2])
    ]


def run_timeline(coin_init: CoinSpinor, steps: int) -> list[TimelineRecord]:
    """Records for t = 1..steps of the walk from ``coin_init``: the one-coin
    case of ``timelines_and_distributions``, without the distribution."""
    ((records, _),) = timelines_and_distributions([coin_init], steps)
    return records


def default_window(steps: int) -> int:
    """Averaging window used when none is given: the last 10% of the run."""
    return max(1, steps // 10)


def resolve_window(steps: int, window: int | None) -> int:
    """``window``, or ``default_window(steps)`` when it is None, once it is
    checked to lie within 1..steps."""
    window = default_window(steps) if window is None else window
    if not 1 <= window <= steps:
        raise ValueError(f"window must be within 1..{steps}, got {window}")
    return window


def asymptotic_ratio(
    timeline: list[TimelineRecord], outcome: CoinOutcome, window: int
) -> float:
    """Mean entanglement ratio of one outcome over the last ``window`` records."""
    tail = timeline[-resolve_window(len(timeline), window):]
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

