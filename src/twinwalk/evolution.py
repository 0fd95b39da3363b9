"""The walk's one engine: mix the coin with the Hadamard matrix, then shift.

A step applies the Hadamard coin (1/sqrt 2) [[1, 1], [1, -1]] to the
amplitude pair at every site and then moves the coin-0 component one site
right and the coin-1 component one site left.  For two correlated walkers the
conditional move displaces both walkers together, so the pair stays on the
diagonal |x, x> and its amplitudes are exactly those of the one-walker walk;
one trajectory serves both.

``trajectory`` carries the walk as two numpy arrays, one per coin component,
in a parity-compacted layout: after t steps index k holds site ``-t + 2k``,
so only the t + 1 reachable sites are stored.  A step is O(t); no operator
matrix is formed.  ``twinwalk verify`` and the tests check it against the
dense-tensor and path-sum oracles in ``oracle``.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .states import CoinSpinor

#: the Hadamard coin's matrix elements are +-H
H = math.sqrt(0.5)


def trajectory(coin_init: CoinSpinor, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Coin-0 and coin-1 amplitude arrays after 0..n Hadamard steps from the origin.

    The pair yielded for step t has length t + 1, index k holding site
    ``-t + 2k``.  Both arrays are views into buffers that the next step
    overwrites.
    """
    if n < 0:
        raise ValueError(f"step count must be non-negative, got {n}")
    coin_init.require_normalized()
    a0 = np.zeros(n + 1, dtype=np.complex128)
    a1 = np.zeros(n + 1, dtype=np.complex128)
    a0[0] = coin_init.amp0
    a1[0] = coin_init.amp1
    yield a0[:1], a1[:1]
    for t in range(1, n + 1):
        # two products, not H * (a0 + a1): the factored form rounds
        # differently and would move output digits
        b0 = H * a0[:t] + H * a1[:t]
        b1 = H * a0[:t] - H * a1[:t]
        # coin 0 moves right (one index up), coin 1 moves left (same index)
        a0[1 : t + 1] = b0
        a0[0] = 0.0
        a1[:t] = b1
        a1[t] = 0.0
        yield a0[: t + 1], a1[: t + 1]
