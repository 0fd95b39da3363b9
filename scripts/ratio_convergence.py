#!/usr/bin/env python3
"""Headline experiment: converged entanglement ratios for the five presets.

For every built-in initial condition this runs the full two-walker walk once,
averages the per-outcome entanglement ratio over the trailing window, and
prints it next to the one-walker distribution diagnostics that the
convergence values correlate with.
"""

import argparse

from twinwalk import (
    PRESETS,
    CoinOutcome,
    asymptotic_ratio,
    default_window,
    distribution_symmetry,
    timeline_and_distribution,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=1000)
    parser.add_argument("--window", type=int, default=None)
    args = parser.parse_args()
    # the ratio is undefined at t = 1 (log2 1 = 0), so a window must stop short of it
    if args.steps < 2:
        parser.error(f"--steps must be at least 2, got {args.steps}")
    window = default_window(args.steps) if args.window is None else args.window
    if not 1 <= window < args.steps:
        parser.error(f"--window must be within 1..{args.steps - 1}, got {window}")

    print(f"steps={args.steps}  window={window} (trailing mean)")
    print(f"{'preset':<7}{'ratio c0':>12}{'ratio c1':>12}{'mean x/t':>12}{'mirror TV':>12}")
    for name, coin_init in PRESETS.items():
        timeline, distribution = timeline_and_distribution(coin_init, args.steps)
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
