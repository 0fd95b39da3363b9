"""Coin operators and the walk's one engine: mix the coin, then shift.

A step applies the coin operator to the amplitude pair at every site and then
moves the coin-0 component one site right and the coin-1 component one site
left.  For two correlated walkers the conditional move displaces both walkers
together, so the pair stays on the diagonal |x, x> and its amplitudes are
exactly those of the one-walker walk; one trajectory serves both.

``trajectory`` carries the walk as two numpy arrays, one per coin component,
in a parity-compacted layout: after t steps index k holds site
``start - t + 2k``, so only the t + 1 reachable sites are stored.  A step is
O(t); no operator matrix is formed.  ``twinwalk verify`` and the tests check
it against the dense-tensor and path-sum oracles in ``oracle``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .states import CoinSpinor

#: elementwise tolerance on U+ U = I for coin operators
UNITARITY_TOL = 1e-12


@dataclass(frozen=True)
class CoinOperator:
    """2x2 unitary on the coin space; rows index the output basis, columns the input."""

    u00: complex
    u01: complex
    u10: complex
    u11: complex

    def __post_init__(self) -> None:
        for name in ("u00", "u01", "u10", "u11"):
            value = complex(getattr(self, name))
            if not cmath.isfinite(value):
                raise ValueError(f"coin operator entry {name} must be finite")
            object.__setattr__(self, name, value)
        # columns must be orthonormal
        col0 = abs(self.u00) ** 2 + abs(self.u10) ** 2
        col1 = abs(self.u01) ** 2 + abs(self.u11) ** 2
        cross = self.u00.conjugate() * self.u01 + self.u10.conjugate() * self.u11
        defect = max(abs(col0 - 1.0), abs(col1 - 1.0), abs(cross))
        if defect > UNITARITY_TOL:
            raise ValueError(f"coin operator is not unitary (defect {defect:.3e})")

    def rows(self) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
        return ((self.u00, self.u01), (self.u10, self.u11))


def hadamard() -> CoinOperator:
    """The balanced coin (1/sqrt 2) [[1, 1], [1, -1]]."""
    s = math.sqrt(0.5)
    return CoinOperator(s, s, s, -s)


def trajectory(
    coin_init: CoinSpinor, coin: CoinOperator, n: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Coin-0 and coin-1 amplitude arrays after 0..n steps from a point start.

    The pair yielded for step t has length t + 1, index k holding site
    ``start - t + 2k`` for whatever start position the caller assigns.  Both
    arrays are views into buffers that the next step overwrites.
    """
    if n < 0:
        raise ValueError(f"step count must be non-negative, got {n}")
    coin_init.require_normalized()
    u00, u01, u10, u11 = coin.u00, coin.u01, coin.u10, coin.u11
    a0 = np.zeros(n + 1, dtype=np.complex128)
    a1 = np.zeros(n + 1, dtype=np.complex128)
    a0[0] = coin_init.amp0
    a1[0] = coin_init.amp1
    yield a0[:1], a1[:1]
    for t in range(1, n + 1):
        b0 = u00 * a0[:t] + u01 * a1[:t]
        b1 = u10 * a0[:t] + u11 * a1[:t]
        # coin 0 moves right (one index up), coin 1 moves left (same index)
        a0[1 : t + 1] = b0
        a0[0] = 0.0
        a1[:t] = b1
        a1[t] = 0.0
        yield a0[: t + 1], a1[: t + 1]
