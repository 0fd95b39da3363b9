#!/usr/bin/env python3
"""Headline table, read off the figure manifest: per plotted preset, the window-mean
ratio of each coin outcome, mean x/t and mirror distance (null: undefined)."""

import argparse

from twinwalk.figures import build_figure_bundle


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=1000)
    parser.add_argument("--window", type=int, default=None)
    args = parser.parse_args()
    try:
        _, manifest = build_figure_bundle(args.steps, args.window)
    except ValueError as exc:
        parser.error(str(exc))
    print(f"steps={manifest['steps']}  window={manifest['window']} (trailing mean)")
    print(f"{'preset':<7}{'ratio c0':>12}{'ratio c1':>12}{'mean x/t':>12}{'mirror TV':>12}")
    for entry in manifest["files"].values():
        if entry["outcome"] is None:  # the comparison figure, one per preset
            values = (*entry["asymptotic_ratio"].values(), *entry["single_walker"].values())
            cells = ("null" if v is None else f"{v:.6f}" for v in values)
            print(f"{entry['preset']:<7}" + "".join(f"{c:>12}" for c in cells))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
