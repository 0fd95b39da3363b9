#!/usr/bin/env python3
"""Headline experiment: converged entanglement ratios for the five presets.

For every built-in initial condition this runs the full two-walker walk once,
averages the per-outcome entanglement ratio over the trailing window, and
prints it next to the one-walker distribution diagnostics that the
convergence values correlate with.
"""

import argparse

from twinwalk import (
    CoinOutcome,
    asymptotic_ratio,
    canonical_initial_states,
    default_window,
)
from twinwalk.experiment import distribution_symmetry, timeline_and_distribution


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=1000)
    parser.add_argument("--window", type=int, default=None)
    args = parser.parse_args()
    window = args.window or default_window(args.steps)

    print(f"steps={args.steps}  window={window} (trailing mean)")
    print(f"{'preset':<7}{'ratio c0':>12}{'ratio c1':>12}{'mean x/t':>12}{'mirror TV':>12}")
    for name, config in canonical_initial_states(steps=args.steps).items():
        timeline, distribution = timeline_and_distribution(config)
        r0 = asymptotic_ratio(timeline, CoinOutcome.C0, window)
        r1 = asymptotic_ratio(timeline, CoinOutcome.C1, window)
        report = distribution_symmetry(distribution, args.steps)
        print(
            f"{name:<7}{r0:>12.6f}{r1:>12.6f}"
            f"{report.mean_position_over_t:>12.6f}{report.mirror_distance:>12.6f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
