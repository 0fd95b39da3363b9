"""One-step evolution: mix the coin, then shift conditionally.

A step applies the coin operator to the amplitude pair at every site and then
moves the coin-0 component one site right and the coin-1 component one site
left.  For the correlated two-walker states the conditional move displaces
both walkers together, so the recorded position index transforms exactly as
in the one-walker walk and both state shapes share the same site arithmetic.
The pass is fused (no operator matrices are materialized) and costs
O(|support|) per step.

``trajectory`` is the same step on two dense numpy arrays, one per coin
component, in a parity-compacted layout: after t steps index k holds site
``start - t + 2k``, so only the t + 1 reachable sites are stored.  The sparse
dict step stays as the reference implementation the array path is tested
against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .states import AmpPair, CoinSpinor, CorrelatedWalkState, SingleWalkerState

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


def _advance(amps: Mapping[int, AmpPair], coin: CoinOperator) -> dict[int, AmpPair]:
    """Coin-mix then scatter.  Each output component has exactly one source site."""
    u00, u01, u10, u11 = coin.u00, coin.u01, coin.u10, coin.u11
    moved0: dict[int, complex] = {}
    moved1: dict[int, complex] = {}
    for x, (a0, a1) in amps.items():
        b0 = u00 * a0 + u01 * a1
        b1 = u10 * a0 + u11 * a1
        if b0 != 0:
            moved0[x + 1] = b0
        if b1 != 0:
            moved1[x - 1] = b1
    out: dict[int, AmpPair] = {x: (b0, 0j) for x, b0 in moved0.items()}
    for x, b1 in moved1.items():
        prior = out.get(x)
        out[x] = (prior[0], b1) if prior is not None else (0j, b1)
    return out


def step(state: CorrelatedWalkState, coin: CoinOperator) -> CorrelatedWalkState:
    """One application of the two-walker evolution; preserves norm and diagonality."""
    return CorrelatedWalkState(step=state.step + 1, amps=_advance(state.amps, coin))


def step_single(state: SingleWalkerState, coin: CoinOperator) -> SingleWalkerState:
    """One application of the standard coined walk on the line."""
    return SingleWalkerState(step=state.step + 1, amps=_advance(state.amps, coin))


def evolve(
    initial: CorrelatedWalkState, coin: CoinOperator, n: int
) -> list[CorrelatedWalkState]:
    """Snapshots after 0..n steps; element t is the state at step counter t."""
    if n < 0:
        raise ValueError(f"step count must be non-negative, got {n}")
    snapshots = [initial]
    state = initial
    for _ in range(n):
        state = step(state, coin)
        snapshots.append(state)
    return snapshots


def evolve_single(
    initial: SingleWalkerState, coin: CoinOperator, n: int
) -> list[SingleWalkerState]:
    """Snapshots of the one-walker walk after 0..n steps."""
    if n < 0:
        raise ValueError(f"step count must be non-negative, got {n}")
    snapshots = [initial]
    state = initial
    for _ in range(n):
        state = step_single(state, coin)
        snapshots.append(state)
    return snapshots


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
