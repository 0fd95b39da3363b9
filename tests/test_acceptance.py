"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``).  One
criterion, the per-outcome equivalence of the balanced-coin runs with the
basis-coin runs, is kept exactly as stated even though the engine
demonstrates it cannot hold, so that test is expected to stay red; its
failure message carries the measured values and the reason.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from click.testing import CliRunner

from twinwalk import (
    PRESETS,
    CoinOutcome,
    asymptotic_ratio,
    run_timeline,
    timelines_and_distributions,
)
from twinwalk.cli import main
from twinwalk.oracle import exact_branches, exact_run, path_sum_table
from twinwalk.states import SUPPORT_EPS, mirror_total_variation
from twinwalk.verification import random_coin_states
from testutil import (
    dense_error,
    dense_state,
    engine_trajectory,
    evolve_tables,
    exact_error,
    max_table_diff,
    off_diagonal_mass,
)

S = math.sqrt(0.5)
E3 = S / 2

#: converged window means measured by this engine (steps=1000, window=100);
#: pinned as regression numbers at 1e-9 reproducibility
PINNED_RATIOS = {
    "4a": (0.7818324753612543, 0.8835346169626962),
    "4b": (0.8835346169626963, 0.7818324753612544),
    "4c": (0.8545661832851483, 0.8545661832851481),
    "4d": (0.8545661832851483, 0.8545661832851481),
    "4e": (0.8353197660947448, 0.8337625902219312),
}


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"acceptance {label}: FAIL")
        raise
    print(f"acceptance {label}: PASS")


@pytest.fixture(scope="module")
def full_scale():
    """1000-step timelines for all five presets, with per-run wall time."""
    out = {}
    for name, coin in PRESETS.items():
        started = time.perf_counter()
        timeline = run_timeline(coin, 1000)
        out[name] = (timeline, time.perf_counter() - started)
    return out


def ratios(timeline, window=100):
    return (
        asymptotic_ratio(timeline, CoinOutcome.C0, window),
        asymptotic_ratio(timeline, CoinOutcome.C1, window),
    )


def test_criterion_1_analytic_fixtures():
    with criterion("1 (analytic three-step fixtures)"):
        started = time.perf_counter()
        expected = {
            1: {(1, 0): S, (-1, 1): S},
            2: {(2, 0): 0.5, (0, 0): 0.5, (0, 1): 0.5, (-2, 1): -0.5},
            3: {
                (3, 0): E3,
                (1, 0): 2 * E3,
                (-1, 0): -E3,
                (1, 1): E3,
                (-3, 1): E3,
            },
        }
        tables = evolve_tables(PRESETS["4a"], 3)
        for t, table in expected.items():
            diff = max_table_diff(tables[t], {k: complex(v) for k, v in table.items()})
            assert diff < 1e-12, f"t={t} amplitude mismatch {diff}"

        timeline = run_timeline(PRESETS["4a"], 3)
        t1, t2, t3 = timeline
        assert abs(t1.entropy0) < 1e-9 and abs(t1.entropy1) < 1e-9
        assert abs(t2.entropy0 - 1.0) < 1e-9 and abs(t2.entropy1 - 1.0) < 1e-9
        assert t3.entropy0 == pytest.approx(1.2516, abs=5e-5)
        assert t3.entropy1 == pytest.approx(1.0, abs=1e-9)
        assert t2.max_entropy == pytest.approx(1.0, abs=1e-12)
        assert t3.max_entropy == pytest.approx(1.585, abs=5e-4)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"fixtures took {elapsed:.3f} s"


def test_criterion_2_figure_scale_ratios(full_scale):
    with criterion("2 (1000-step runs, window means vs published readings)"):
        for name, (_, elapsed) in full_scale.items():
            assert elapsed < 10.0, f"{name} took {elapsed:.2f} s"

        measured = {name: ratios(tl) for name, (tl, _) in full_scale.items()}
        assert measured["4a"][0] == pytest.approx(0.80, abs=0.05)
        assert measured["4a"][1] == pytest.approx(0.90, abs=0.05)
        assert measured["4b"][0] == pytest.approx(0.90, abs=0.05)
        assert measured["4b"][1] == pytest.approx(0.80, abs=0.05)
        assert abs(measured["4e"][0] - measured["4e"][1]) < 0.02
        assert measured["4e"][0] == pytest.approx(0.85, abs=0.05)
        assert measured["4e"][1] == pytest.approx(0.85, abs=0.05)

        for name, pinned in PINNED_RATIOS.items():
            assert measured[name][0] == pytest.approx(pinned[0], abs=1e-9)
            assert measured[name][1] == pytest.approx(pinned[1], abs=1e-9)


def test_criterion_2_initial_condition_equivalence(full_scale):
    """Recorded expectation: 4c matches 4a and 4d matches 4b per outcome.

    The engine demonstrates this cannot hold: 4c and 4d are mirror-symmetric
    initial coins, so their two outcome branches carry identical entropy at
    every step (ratio0 = ratio1 = 0.8546), which cannot coincide with the
    outcome-split values of 4a/4b (0.7818 / 0.8835).  Kept as stated; this
    test failing is the honest outcome.
    """
    with criterion("2 (per-outcome equivalence 4c=4a and 4d=4b)"):
        measured = {name: ratios(tl) for name, (tl, _) in full_scale.items()}
        for balanced, basis in (("4c", "4a"), ("4d", "4b")):
            for idx, outcome in enumerate(("c0", "c1")):
                gap = abs(measured[balanced][idx] - measured[basis][idx])
                assert gap < 0.02, (
                    f"{balanced} {outcome} window mean {measured[balanced][idx]:.4f} "
                    f"vs {basis} {outcome} {measured[basis][idx]:.4f}: gap {gap:.4f}; "
                    "a mirror-symmetric coin forces ratio0 = ratio1, so its runs "
                    "cannot match an outcome-split pair"
                )


def test_pinned_ratios_follow_from_the_exact_run():
    """Every pinned window mean, derived from exact integers with no engine
    code: the ``exact_branches`` entropies of each preset at t = 901..1000
    over one ``exact_run(1000)``, each over log2 t, summed left to right as
    ``trailing_mean`` sums them.  The pinned numbers are the engine's; the
    derived ones were within 4.4e-16 of them."""
    steps, window = 1000, 100
    first = steps - window + 1
    rows = list(itertools.islice(exact_run(steps), first, None))
    for name, pinned in PINNED_RATIOS.items():
        sums = [0.0, 0.0]
        for t, row in enumerate(rows, start=first):
            for c, (_, entropy, _) in enumerate(exact_branches(PRESETS[name], *row)):
                sums[c] += entropy / math.log2(t)
        for c, (total, want) in enumerate(zip(sums, pinned)):
            assert abs(total / window - want) <= 1e-12, (name, c)


def test_criterion_3_oracle_equivalence():
    with criterion("3 (dense, exact and path-sum oracle equivalence)"):
        started = time.perf_counter()
        coins = list(PRESETS.values())
        coins.extend(random_coin_states(20))
        for coin in coins:
            # timeline records and distribution vs the dense oracle, t = 1..10
            assert dense_error(coin, 10) < 1e-10
            # timeline weights and entropies vs the exact branches, t = 1..12
            assert exact_error(coin, 12) < 1e-12
            # the run's amplitudes composed for the coin vs the path sum
            tables = evolve_tables(coin, 12)
            assert max(max_table_diff(tables[t], path_sum_table(coin, t)) for t in range(13)) < 1e-12

        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f} s"


def test_criterion_4_property_suite(full_scale):
    with criterion("4 (norm, parity, bounds, swap and mirror symmetry)"):
        for t, (a0, a1) in enumerate(engine_trajectory(PRESETS["4a"], 1000)):
            mass = np.abs(a0) ** 2 + np.abs(a1) ** 2
            assert abs(float(np.sum(mass)) - 1.0) < 1e-12
            # parity and light cone: one slot per site -t, -t + 2, ..., t, and
            # the edge slots a step vacates hold exactly 0
            assert len(a0) == len(a1) == t + 1
            if t >= 1:
                assert a0[0] == 0 and a1[t] == 0
            assert int(np.count_nonzero(mass > SUPPORT_EPS)) <= t + 1
        ((_, distribution),) = timelines_and_distributions([PRESETS["4a"]], 1000)
        assert abs(sum(distribution.values()) - 1.0) < 1e-12

        for name, (timeline, _) in full_scale.items():
            for record in timeline:
                for entropy, size in (
                    (record.entropy0, record.support0),
                    (record.entropy1, record.support1),
                ):
                    if entropy is None:
                        continue
                    assert entropy <= math.log2(size) + 1e-9
                    assert size <= max(record.step, 1)

        for a, b in zip(full_scale["4a"][0], full_scale["4b"][0]):
            assert abs(a.entropy0 - b.entropy1) < 1e-10
            assert abs(a.entropy1 - b.entropy0) < 1e-10

        ((_, distribution),) = timelines_and_distributions([PRESETS["4c"]], 1000)
        assert mirror_total_variation(distribution) < 1e-10

        assert off_diagonal_mass(dense_state(PRESETS["4a"], 120)) < 1e-14


def test_criterion_5_figures_determinism(tmp_path):
    with criterion("5 (byte-identical figure bundles)"):
        runner = CliRunner()
        dirs = (tmp_path / "first", tmp_path / "second")
        for d in dirs:
            result = runner.invoke(
                main, ["figures", "--out-dir", str(d), "--steps", "120"]
            )
            assert result.exit_code == 0, result.output
        first, second = (sorted(d.iterdir()) for d in dirs)
        assert [p.name for p in first] == [p.name for p in second]
        assert len(first) == 13
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes(), f"{a.name} differs"
        manifest = json.loads((dirs[0] / "manifest.json").read_text())
        assert len(manifest["files"]) == 12
