"""End-to-end driver: evolve, measure at every step count, quantify.

The walk is deterministic and measurement-free up to any chosen step count,
so one trajectory snapshotted at t = 1..n stands in for n identically
prepared runs, and both coin outcomes are evaluated exactly from each
snapshot (no sampling anywhere).  Alongside the two-walker timelines this
module computes the one-walker distribution diagnostics that the ratio
convergence correlates with.

Every timeline comes from one real run.  ``measure_rows`` is the columnar
core: it measures any list of mixing rows from each block of
``evolution.branch_blocks`` (K consecutive steps, K = 16 at 1000 steps).
The block's A0 and B0 rows are stacked once into X = A0^2, Y = B0^2 and
Z = A0 B0, and a branch's site weights are a fixed mix of the three (its
row of ``mixing_rows``), so coins that share a row share its measurement.
(2, 3) matmuls turn X, Y and Z into the site weights of all R distinct rows
and one ``entanglement.branch_entropies`` pass measures them in place, in
one buffer of 3 + R block-sized parts (one more when R is odd): X, Y, Z and
the site weights.  The figure bundle reads the (R, steps) arrays it returns;
``timelines_and_distributions`` builds coins' records and distributions
(``walker_distribution``) from them, and ``run_timeline`` is its one-coin
call.  No complex array is formed anywhere.

A caller that needs only some steps passes them as ``measured``.  A block is
then measured only if it holds one of them, or is the last block, whose
final row gives the distribution; any other block costs only its evolution.
A measured block is measured whole, exactly as when every step is, so each
returned value is bitwise the every-step value of its step.

``check_walk`` (steps, then measured steps, then coins), its integer rule
``require_integer`` (which the CLI's run spec uses too) and
``resolve_window`` are the one home of the input rules; ``ratio_columns``
(entropy over log2 t) and ``trailing_mean`` (its mean over the window) are
the one home of the ratio, for records and figures alike.

The values are bitwise fixed for one block shape only: a weight is a BLAS
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


def mixing_rows(coins: list[CoinSpinor]) -> tuple[list[tuple[float, float, float]], list[int]]:
    """The distinct rows of coefficients of X = A0^2, Y = B0^2 and Z = A0 B0
    in the site weights of the coins' branches, in order of first use, and
    each branch's index among them: coin i's branch 0 is row ``index[2i]``,
    its branch 1 row ``index[2i + 1]``.  No coefficient is -0.0, so rows
    equal in value are equal tuples.

    Branch 0 weighs |alpha|^2 X + |beta|^2 Y + 2 Re(alpha conj(beta)) Z at
    each site.  Branch 1 is the same form with |alpha|^2 and |beta|^2 swapped
    and Z negated, read at the mirrored sites (see ``evolution``), which
    changes neither its weight nor its entropy.
    """
    distinct: dict[tuple[float, float, float], int] = {}
    index = []
    for coin in coins:
        alpha, beta = coin.amp0, coin.amp1
        a = alpha.real * alpha.real + alpha.imag * alpha.imag
        b = beta.real * beta.real + beta.imag * beta.imag
        r = 2.0 * (alpha.real * beta.real + alpha.imag * beta.imag) + 0.0
        index += [distinct.setdefault(row, len(distinct)) for row in ((a, b, r), (b, a, 0.0 - r))]
    return list(distinct), index


def walker_distribution(w0: np.ndarray, w1: np.ndarray, steps: int) -> dict[int, float]:
    """One-walker distribution after ``steps`` steps from both branches'
    final site weights w0, w1 as ``measure_rows`` returns them: |coin 1 at
    k|^2 is branch 1's weight at t - k (see ``mixing_rows``), so site
    -t + 2k has probability (w0[k] + w1[t - k]) 2^-m, m = ``row_exponent(t)``.
    Sites of probability exactly 0 are left out."""
    p = np.ldexp(w0 + w1[::-1], -row_exponent(steps))
    return {x: v for x, v in zip(range(-steps, steps + 1, 2), p.tolist()) if v != 0.0}


def check_walk(
    coins: list[CoinSpinor], steps: int, measured: Sequence[int] | None = None
) -> None:
    """Reject a walk before anything is evolved: first ``steps`` unless it is
    an integer (``require_integer``) within 1..MAX_STEPS, then ``measured``
    unless it is None or integers strictly increasing within 1..steps, then
    any coin that is not normalized."""
    require_integer("steps", steps)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if steps > MAX_STEPS:
        raise ValueError(f"steps must be at most {MAX_STEPS}, got {steps}")
    if measured is not None:
        for i, (before, t) in enumerate(zip([0, *measured], measured)):
            require_integer(f"measured[{i}]", t)
            if not before < t <= steps:
                raise ValueError(
                    f"measured steps must increase strictly within 1..{steps}, got {t} at index {i}"
                )
    for coin in coins:
        coin.require_normalized()


def require_integer(field: str, value: object) -> None:
    """Reject ``value`` unless it is an ``int`` or a numpy integer, never a
    ``bool`` or a float, with an error that names ``field``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{field} must be an integer, got {value!r}")


def measure_rows(
    rows: Sequence[tuple[float, float, float]], steps: int, measured: Sequence[int] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Columns of the branches of mixing rows (|alpha|^2, |beta|^2,
    2 Re(alpha conj(beta))) at the ``measured`` steps (None: t = 1..steps):
    (R, len(measured)) arrays of the weights, entropies (NaN where absent),
    present mask and supports (0 where absent), and the (R, steps + 1) site
    weights at t = ``steps`` as stored, for ``walker_distribution``.

    A row of a (2, 3) matmul rounds the same whatever its partner and a lone
    (1, 3) product does not, so rows are mixed two at a time, an odd last
    row with a zero row that is never measured.  A row's weight mixes the
    row sums of X, Y and Z with plain multiplies and adds, not a fused
    multiply-add, so a branch whose terms cancel exactly weighs exactly 0.
    """
    check_walk([], steps, measured)
    wanted = [False] + [measured is None] * steps
    for t in () if measured is None else measured:
        wanted[t] = True
    count_rows = len(rows)
    pairs = np.array([*rows, *[(0.0, 0.0, 0.0)] * (count_rows % 2)]).reshape(-1, 2, 3)
    mixing = pairs.reshape(-1, 3)[:count_rows, :, None]
    # each measured block's weights, entropies, present mask and supports at
    # its measured steps, joined at the end
    blocks_columns: list[list[np.ndarray]] = []
    finals = np.zeros((count_rows, steps + 1))
    stack, ones = None, np.ones(steps + 1)
    # minus the exponent m of each step's row scale 2^(m/2)
    unscale = -row_exponent(np.arange(steps + 1))
    blocks = branch_blocks(steps)
    next(blocks)  # step 0 is not measured
    for first, lo, a0, b0 in blocks:
        count, width = a0.shape
        # one buffer for X, Y, Z and every row's site weights, in which the
        # entropy pass works too, allocated once at the first block, measured
        # or not (so a sampled run lays it out as a full one does): the
        # first block has the most rows, the last the widest
        if stack is None:
            stack = np.empty((3 + 2 * len(pairs)) * count * (steps + 1))
            # glibc's malloc raises its mmap threshold to the size of a freed
            # mapping: freeing one the size of the largest selection of kept
            # sites lets each block's selection reuse memory, not fresh pages
            np.empty(count_rows * count * (steps + 1))
        block = slice(first, first + count)
        flags, last_block = wanted[block], first + count > steps
        if not (last_block or any(flags)):
            continue
        size = count * width
        parts = stack[: 3 * size].reshape(3, count, width)
        site_weights = stack[3 * size : (3 + 2 * len(pairs)) * size].reshape(-1, 2, size)
        # B0 is a strided view: copied once, it is read contiguously
        np.copyto(parts[1], b0)
        np.square(a0, out=parts[0])
        np.multiply(a0, parts[1], out=parts[2])
        np.square(parts[1], out=parts[1])
        # the rows carry 2^m times the true X, Y and Z; the entropy does not
        # see that scale, and the weights are cleared of it exactly
        sums = (parts.reshape(-1, width) @ ones[:width]).reshape(3, count)
        scaled = np.add.reduce(mixing * sums, axis=1)
        block_weights = np.ldexp(scaled, unscale[block])
        xyz = parts.reshape(3, size)
        for pair, out in zip(pairs, site_weights):
            np.matmul(pair, xyz, out=out)
        measured_rows = site_weights.reshape(-1, width)[: count_rows * count]
        if last_block:
            finals[:, lo : lo + width] = measured_rows.reshape(count_rows, count, width)[:, -1]
        block_present = block_weights > PROB_EPS
        block_entropies, block_supports = branch_entropies(
            measured_rows, scaled.ravel(), block_present.ravel()
        )
        taken = slice(None) if all(flags) else np.flatnonzero(flags)
        blocks_columns.append([
            column.reshape(count_rows, count)[:, taken]
            for column in (block_weights, block_entropies, block_present, block_supports)
        ])
    return (*(np.concatenate(parts, axis=1) for parts in zip(*blocks_columns)), finals)


def _or_none(columns: np.ndarray, flags: list[list[bool]]) -> list[list]:
    """The rows of ``columns`` as lists, None where ``flags`` is False."""
    return [[v if ok else None for v, ok in zip(*pair)] for pair in zip(columns.tolist(), flags)]


def ratio_columns(
    entropies: np.ndarray, present: np.ndarray, taken: Sequence[int]
) -> tuple[list[float], list[list[float | None]], list[list[bool]]]:
    """The entanglement ratio of the (R, len(taken)) entropy columns
    ``measure_rows`` gives at the sampled steps ``taken``: the bound
    log2 t at each step, each row's ratio entropy / bound (None where it is
    undefined) and where it is defined.  No ratio is defined for an absent
    branch or at t = 1, where the bound is 0."""
    bounds = list(map(max_entanglement, taken))
    defined = present & (np.array(bounds) > 0.0)
    ratios = np.divide(entropies, bounds, out=np.full_like(entropies, np.nan), where=defined)
    flags = defined.tolist()
    return bounds, _or_none(ratios, flags), flags


def trailing_mean(ratios: Sequence[float | None], window: int) -> float | None:
    """Mean of the last ``window`` ratios, summed left to right; None if any
    of them is undefined (None)."""
    tail = ratios[-window:]
    return None if None in tail else sum(tail) / len(tail)


def timelines_and_distributions(
    coins: list[CoinSpinor], steps: int, measured: Sequence[int] | None = None
) -> list[tuple[list[TimelineRecord], dict[int, float]]]:
    """For each coin, records for the ``measured`` steps (None: t = 1..steps)
    of the walk from it plus its one-walker distribution after ``steps``
    steps, all from one real run: the columns ``measure_rows`` gives for the
    coins' distinct ``mixing_rows``, each measured once, built into
    records.  ``check_walk`` runs before anything is evolved or allocated.
    """
    check_walk(coins, steps, measured)
    rows, index = mixing_rows(coins)
    weights, entropies, present, supports, finals = measure_rows(rows, steps, measured)
    taken = range(1, steps + 1) if measured is None else list(map(int, measured))
    p, flags = weights.tolist(), present.tolist()
    e, s = _or_none(entropies, flags), _or_none(supports, flags)
    bounds, ratios, _ = ratio_columns(entropies, present, taken)
    return [
        (
            list(map(TimelineRecord._make, zip(
                taken, p[i], p[j], e[i], e[j], bounds, ratios[i], ratios[j], s[i], s[j],
            ))),
            walker_distribution(finals[i], finals[j], steps),
        )
        for i, j in zip(index[::2], index[1::2])
    ]


def run_timeline(coin_init: CoinSpinor, steps: int) -> list[TimelineRecord]:
    """Records for t = 1..steps of the walk from ``coin_init``: the one-coin
    case of ``timelines_and_distributions``, without the distribution."""
    ((records, _),) = timelines_and_distributions([coin_init], steps)
    return records


def resolve_window(steps: int, window: int | None) -> int:
    """``window``, or the last 10% of the run when it is None, once it is
    checked to lie within 1..steps."""
    window = max(1, steps // 10) if window is None else window
    if not 1 <= window <= steps:
        raise ValueError(f"window must be within 1..{steps}, got {window}")
    return window


def window_ratios(timeline: list[TimelineRecord], window: int) -> dict[str, float | None]:
    """Mean ratio of each outcome over the last ``window`` records, keyed
    "c0"/"c1"; None where a ratio within the window is absent."""
    tail = timeline[-resolve_window(len(timeline), window):]
    columns = ([record.ratio0 for record in tail], [record.ratio1 for record in tail])
    return {
        str(outcome): trailing_mean(ratios, len(tail))
        for outcome, ratios in zip(CoinOutcome, columns)
    }


def asymptotic_ratio(timeline: list[TimelineRecord], outcome: CoinOutcome, window: int) -> float:
    """Mean entanglement ratio of one outcome over the last ``window`` records."""
    ratio = window_ratios(timeline, window)[str(outcome)]
    if ratio is None:
        raise ValueError(f"ratio for {outcome} is absent within the window")
    return ratio


def distribution_symmetry(distribution: dict[int, float], steps: int) -> SymmetryReport:
    """Balance diagnostics of a ``steps``-step one-walker position distribution."""
    return SymmetryReport(
        mean_position_over_t=sum(x * p for x, p in distribution.items()) / steps,
        mirror_distance=mirror_total_variation(distribution),
    )

