"""Coin states and outcomes, the tolerances and position-distribution symmetry.

A walk starts from a point: both walkers at the origin, with the coin in the
state a ``CoinSpinor`` holds.  Everything after that is the one real run that
``evolution.branch_blocks`` yields.  Measuring the coin after t steps leaves
one of two branches (``CoinOutcome``); a branch no heavier than ``PROB_EPS``
is reported absent.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

#: tolerance on the squared norm of anything that must be normalized
NORM_TOL = 1e-12

#: probability mass below which a site does not count as support
SUPPORT_EPS = 1e-14

#: branches lighter than this are reported absent instead of renormalized
PROB_EPS = 1e-12


class NormalizationError(ValueError):
    """A coin or state that must be normalized is not."""


@dataclass(frozen=True)
class CoinSpinor:
    """Coin-space amplitudes: ``amp0`` multiplies ``|0>_c``, ``amp1`` multiplies ``|1>_c``."""

    amp0: complex
    amp1: complex

    @property
    def norm_sq(self) -> float:
        return abs(self.amp0) ** 2 + abs(self.amp1) ** 2

    def require_normalized(self) -> None:
        if not (cmath.isfinite(self.amp0) and cmath.isfinite(self.amp1)):
            raise NormalizationError(f"coin amplitudes must be finite, got {self!r}")
        try:
            norm_sq = self.norm_sq
        except OverflowError:  # finite amplitudes whose squares overflow
            norm_sq = math.inf
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise NormalizationError(
                f"coin state must be normalized: |amp0|^2 + |amp1|^2 = {norm_sq!r}"
            )


def coin_fields(coin: CoinSpinor) -> dict[str, float]:
    """A coin as the flat reals ``re0, im0, re1, im1`` of run specs and manifests."""
    return {
        "re0": coin.amp0.real,
        "im0": coin.amp0.imag,
        "re1": coin.amp1.real,
        "im1": coin.amp1.imag,
    }


class CoinOutcome(Enum):
    """The two coin readouts; the value doubles as the coin index."""

    C0 = 0
    C1 = 1

    def __str__(self) -> str:
        return f"c{self.value}"


def mirror_total_variation(dist: Mapping[int, float]) -> float:
    """Total-variation distance between a position distribution and its reflection."""
    positions = set(dist) | {-x for x in dist}
    return 0.5 * sum(abs(dist.get(x, 0.0) - dist.get(-x, 0.0)) for x in positions)
