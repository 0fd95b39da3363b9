"""Coin measurement in the computational basis: the outcomes and the absence cut.

Measuring the coin after t steps leaves one of two branches, each the
coin-c array of the trajectory rescaled to unit weight.
``entanglement.branch_entropies`` measures both from their unnormalized site
weights; a branch no heavier than ``PROB_EPS`` is reported absent.
"""

from __future__ import annotations

from enum import Enum

#: branches lighter than this are reported absent instead of renormalized
PROB_EPS = 1e-12


class EmptyBranchError(ValueError):
    """The requested outcome carries no usable probability at this step."""


class CoinOutcome(Enum):
    """The two coin readouts; the value doubles as the coin index."""

    C0 = 0
    C1 = 1

    def __str__(self) -> str:
        return f"c{self.value}"
