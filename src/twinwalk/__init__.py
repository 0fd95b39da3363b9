"""Coined quantum walk on a line with two perfectly correlated walkers.

One coin drives both walkers: on coin 0 both move right, on coin 1 both move
left, so the pair stays on the diagonal of the joint position space.  The
package evolves such walks, measures the coin at every step count, computes
the walker-walker entanglement entropy of each post-measurement branch, and
tracks how the attained/attainable entanglement ratio converges with the
number of steps.
"""

from .experiment import (
    PRESETS,
    TimelineRecord,
    asymptotic_ratio,
    distribution_symmetry,
    run_timeline,
    timelines_and_distributions,
)
from .states import CoinOutcome, CoinSpinor

__version__ = "0.1.0"

__all__ = [
    "CoinOutcome",
    "CoinSpinor",
    "PRESETS",
    "TimelineRecord",
    "asymptotic_ratio",
    "distribution_symmetry",
    "run_timeline",
    "timelines_and_distributions",
]
