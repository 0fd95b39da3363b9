"""The walk's one engine: mix the coin with the Hadamard matrix, then shift.

A step applies the Hadamard coin (1/sqrt 2) [[1, 1], [1, -1]] to the
amplitude pair at every site and then moves the coin-0 component one site
right and the coin-1 component one site left.  For two correlated walkers the
conditional move displaces both walkers together, so the pair stays on the
diagonal |x, x> and its amplitudes are exactly those of the one-walker walk;
one trajectory serves both.

The walk is carried in a parity-compacted layout: after t steps index k holds
site ``-t + 2k``, so only the t + 1 reachable sites are stored.  A step is
O(t); no operator matrix is formed.  ``trajectory_blocks`` evolves an n-step
walk a block of K consecutive steps at a time into the rows of one
preallocated ``(2, K + 1, n + 1)`` buffer (coin component, row, index), so a
caller can measure all the rows of a block in one pass; K follows from n and
``BLOCK_BYTES``.  ``trajectory`` is the per-step view over the same rows.
``twinwalk verify`` and the tests check it against the dense-tensor and
path-sum oracles in ``oracle``.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .states import CoinSpinor

#: the Hadamard coin's matrix elements are +-H
H = math.sqrt(0.5)

#: bytes of one block's K new rows of both coin components at full width; it
#: gives K = 8 at n = 1000, K = 4 at n = 2000 and K = 1 from n = 4096 on
BLOCK_BYTES = 256 * 1024


def block_steps(n: int) -> int:
    """Steps K evolved per block of an n-step walk: 1 <= K <= max(n, 1)."""
    row_bytes = 2 * np.dtype(np.complex128).itemsize * (n + 1)
    return max(1, min(n, BLOCK_BYTES // row_bytes))


def trajectory_blocks(
    coin_init: CoinSpinor, n: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Blocks ``(first, rows)`` of the amplitudes after 0..n Hadamard steps
    from the origin.

    ``rows[c, j]`` holds the coin-c amplitudes after ``first + j`` steps,
    index k holding site ``-t + 2k`` and every index past t zero.  The first
    block is step 0 alone; each later one holds the next K steps (fewer at
    the end) and is ``first + len(rows[0])`` wide.  Blocks are views into a
    buffer that the next block overwrites.
    """
    if n < 0:
        raise ValueError(f"step count must be non-negative, got {n}")
    coin_init.require_normalized()
    k = block_steps(n)
    # row 0 holds the last step of the previous block, rows 1..K the new ones.
    # No step writes the slots a shift vacates (coin 0 at index 0, coin 1 at
    # index t); they stay zero because the step a row held before, t - K,
    # left coin 0 at index 0 zero and reached no index past t - K.
    amps = np.zeros((2, k + 1, n + 1), dtype=np.complex128)
    scratch = np.empty(n, dtype=np.complex128)
    amps[0, 0, 0] = coin_init.amp0
    amps[1, 0, 0] = coin_init.amp1
    yield 0, amps[:, :1, :1]
    done = 0
    while done < n:
        count = min(k, n - done)
        for j in range(count):
            t = done + j + 1
            # H * a0 + H * a1 and H * a0 - H * a1, not H * (a0 +- a1): the
            # factored form rounds differently and would move output digits.
            # Coin 0 moves right (one index up), coin 1 left (same index).
            h1 = np.multiply(amps[1, j, :t], H, out=scratch[:t])
            h0 = np.multiply(amps[0, j, :t], H, out=amps[0, j + 1, 1 : t + 1])
            np.subtract(h0, h1, out=amps[1, j + 1, :t])
            np.add(h0, h1, out=h0)
        last = done + count
        yield done + 1, amps[:, 1 : count + 1, : last + 1]
        amps[:, 0, : last + 1] = amps[:, count, : last + 1]
        done = last


def trajectory(coin_init: CoinSpinor, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Coin-0 and coin-1 amplitude arrays after 0..n Hadamard steps from the origin.

    The pair yielded for step t has length t + 1, index k holding site
    ``-t + 2k``.  Both arrays are rows of ``trajectory_blocks``, views into a
    buffer that a later step overwrites.
    """
    for first, rows in trajectory_blocks(coin_init, n):
        for j in range(rows.shape[1]):
            t = first + j
            yield rows[0, j, : t + 1], rows[1, j, : t + 1]
