"""The walk's one engine: one real Hadamard run from |0> serves every coin.

A step applies the Hadamard coin (1/sqrt 2) [[1, 1], [1, -1]] to the
amplitude pair at every site and then moves the coin-0 component one site
right and the coin-1 component one site left.  For two correlated walkers the
conditional move displaces both walkers together, so the pair stays on the
diagonal |x, x> and its amplitudes are exactly those of the one-walker walk.

The walk is carried in a parity-compacted layout: after t steps index k holds
site ``-t + 2k``, so only the t + 1 reachable sites are stored.  The step is
linear and real, so the walk from alpha|0> + beta|1> is alpha A + beta B,
where A and B are the real runs from |0> and |1>, and B is A mirrored:

    B0(t)[k] = (-1)^(t+1) A1(t)[t - k],    B1(t)[k] = (-1)^t A0(t)[t - k].

``branch_blocks`` evolves A alone, in float64, K consecutive steps at a time
into the rows of one preallocated ``(2, K + 1, n + 1)`` buffer (K follows
from n and ``BLOCK_BYTES``; three rows when K = 1), and yields each block as
the coin-0 rows A0 and B0 over the block's window.  Those two rows are all
a measurement needs: coin 0 of the walk is alpha A0 + beta B0, and coin 1
at index k is (-1)^t (beta A0 - alpha B0) at index t - k, so every weight,
entropy and distribution ``experiment`` reports is a real function of A0
and B0.

The run carries 2^(t/2) A(t), whose step needs no multiply:
n0'[k + 1] = n0[k] + n1[k] and n1'[k] = n0[k] - n1[k] (the recurrence
``oracle.exact_run`` follows on integers).  Every ``SCALE_STEPS`` steps the
rows are scaled by 2^(-SCALE_STEPS / 2), which is exact, so a stored row of
step t is A(t) times 2^(m / 2), m = ``row_exponent(t)``.  The run also keeps,
per component, a live window of entries at least ``FLUSH_FLOOR`` in true
magnitude and sets every entry outside it to exactly 0, so no product of two
amplitudes goes subnormal; the flushed tails lie some 130 orders of magnitude
below anything a measurement keeps.  ``twinwalk verify`` and the tests check
the rows, and what ``experiment`` reads off them, against the dense-tensor,
path-sum and exact-integer oracles in ``oracle``.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

#: bytes of one block's K new rows of both components at full width; it gives
#: K = 16 at n = 1000, K = 8 at n = 2000 and K = 1 from n = 8192 on
BLOCK_BYTES = 256 * 1024

#: the run is scaled by 2^(-SCALE_STEPS / 2) after every SCALE_STEPS steps
SCALE_STEPS = 32

#: amplitudes smaller than this in magnitude are set to exactly 0; the square
#: of anything kept, 1e-300, is still a normal float64
FLUSH_FLOOR = 1e-150

#: first step whose outermost amplitudes, +-2^(-t/2), fall below FLUSH_FLOOR.
#: The run is one fixed sequence of rows, and no entry of it is below the
#: floor and nonzero before this step (a test checks every row), so the
#: windows are only trimmed from here on.
FLUSH_FROM = math.ceil(-2.0 * math.log2(FLUSH_FLOOR))


def block_steps(n: int) -> int:
    """Steps K evolved per block of an n-step walk: 1 <= K <= max(n, 1)."""
    row_bytes = 2 * np.dtype(np.float64).itemsize * (n + 1)
    return max(1, min(n, BLOCK_BYTES // row_bytes))


def row_exponent(t):
    """The m for which a stored row of step t is the true one times 2^(m/2);
    elementwise for an array of steps."""
    return t % SCALE_STEPS


def _trim(row: np.ndarray, lo: int, hi: int, floor: float) -> tuple[int, int]:
    """Zero the entries of ``row[lo:hi]`` below ``floor``, working in from
    both ends, and return the live window left.

    The tails beyond the light cone decay monotonically outward, so a window
    edge at or above the floor has nothing below it further in.
    """
    while lo < hi and abs(row.item(lo)) < floor:
        row[lo] = 0.0
        lo += 1
    while hi > lo and abs(row.item(hi - 1)) < floor:
        row[hi - 1] = 0.0
        hi -= 1
    return lo, hi


def branch_blocks(n: int) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Blocks ``(first, lo, a0, b0)`` of the coin-0 rows of the real Hadamard
    runs from |0> (A) and from |1> (B), after 0..n steps from the origin.

    Row j of ``a0`` and ``b0`` holds A0 and B0 after t = ``first + j`` steps,
    times 2^(m/2) with m = ``row_exponent(t)``; column i is index ``lo + i``
    (site ``-t + 2(lo + i)``).  Every index outside the block's window
    ``[lo, lo + a0.shape[1])`` is exactly 0, and so is every entry past a
    row's step.  The first block is step 0 alone; each later one holds the
    next K steps (fewer at the end).  Both arrays are views of the run's
    buffer, which the next block overwrites; ``b0`` reads the coin-1 rows
    mirrored, so it is strided, and a caller that reads it more than once
    may copy it first.  A block nobody reads costs only its evolution.
    """
    if n < 0:
        raise ValueError(f"step count must be non-negative, got {n}")
    k = block_steps(n)
    # A0 and (-1)^(t+1) A1 rows, so that the second, mirrored, is B0 as it
    # stands.  Row 0 holds step 0; a block's steps go to rows 1..K, or with
    # K = 1 to rows 1 and 2 in turn, and its first step reads the row the
    # block before wrote last.  A step rewrites its row over every index up
    # to its step but index 0 of A0, which stays 0, and a row only ever holds
    # earlier steps, so every row is zero past its step.
    amps = np.zeros((2, max(k, 2) + 1, n + 1))
    rows0, rows1 = list(amps[0]), list(amps[1])
    amps[0, 0, 0] = 1.0
    yield 0, 0, amps[0, :1, :1], np.zeros((1, 1))
    floors = [FLUSH_FLOOR * 2.0 ** (m / 2) for m in range(SCALE_STEPS)]
    # b0[j, i] = A1[t, t - window_lo - i] (-1)^(t+1) with t = first + j: the
    # stored coin-1 row reversed about its own step, one row and one index
    # further on per row
    flipped_strides = (amps.strides[1] + amps.strides[2], -amps.strides[2])
    # live windows of A0 and A1 at the last step: every entry outside is 0
    lo0, hi0, lo1, hi1 = 0, 1, 0, 1
    src = done = 0
    while done < n:
        count = min(k, n - done)
        first, last = done + 1, done + count
        # no step moves a window's low end down or its high end up by more
        # than 1, so this block's rows of A0 and A1 are zero outside
        # [lo, hi + count), and B0 = mirrored A1 outside its reflection
        lo, hi = min(lo0, lo1), max(hi0, hi1)
        window_lo = max(0, min(lo, first - hi - count + 1))
        window_hi = min(last + 1, max(hi + count, last + 1 - lo))
        start = 2 if src == 1 else 1
        for t, row in zip(range(first, last + 1), range(start, start + count)):
            a, b, dst0, dst1 = rows0[src][:t], rows1[src][:t], rows0[row], rows1[row]
            # coin 0 moves right (one index up), coin 1 left (same index); the
            # coin-1 row is stored times (-1)^(t+1), which flips with each step
            if t % 2:
                np.subtract(a, b, out=dst0[1 : t + 1])
                np.add(b, a, out=dst1[:t])
            else:
                np.add(a, b, out=dst0[1 : t + 1])
                np.subtract(b, a, out=dst1[:t])
            src, m = row, t % SCALE_STEPS  # m = row_exponent(t)
            if m == 0:
                amps[:, row, : t + 1] *= 2.0 ** -(SCALE_STEPS // 2)
            lo = lo0 if lo0 < lo1 else lo1
            hi = hi0 if hi0 > hi1 else hi1
            lo0, hi0, lo1, hi1 = lo + 1, hi + 1, lo, hi
            if t >= FLUSH_FROM:
                lo0, hi0 = _trim(dst0, lo0, hi0, floors[m])
                lo1, hi1 = _trim(dst1, lo1, hi1, floors[m])
        # past a row's start the B0 view reads on into the previous
        # buffer row, at indices beyond that row's step, which are zero (a
        # one-row block reads only its own row); numpy checks that every
        # read stays inside ``amps``
        width = window_hi - window_lo
        offset = amps.strides[0] + start * amps.strides[1] + (first - window_lo) * amps.strides[2]
        b0 = np.ndarray((count, width), buffer=amps, offset=offset, strides=flipped_strides)
        yield first, window_lo, amps[0, start : start + count, window_lo:window_hi], b0
        done = last
