import ast
import itertools
import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinwalk import (
    PRESETS,
    CoinOutcome,
    CoinSpinor,
    asymptotic_ratio,
    distribution_symmetry,
    run_timeline,
    timelines_and_distributions,
)
import twinwalk.evolution
import twinwalk.experiment
from twinwalk.entanglement import COEFF_EPS
from twinwalk.evolution import block_steps
from twinwalk.experiment import (
    MAX_STEPS,
    measure_rows,
    mixing_rows,
    ratio_columns,
    resolve_window,
    trailing_mean,
    walker_distribution,
)
from twinwalk.figures import build_figure_bundle
from twinwalk.oracle import exact_branches, exact_distribution, exact_run
from twinwalk.states import NORM_TOL, PROB_EPS, NormalizationError
from twinwalk.verification import random_coin_states
from testutil import (
    branch_entropy,
    coin_spinors,
    dense_diagonal,
    dense_marginal,
    dense_norm,
    dense_state,
    dense_states,
    engine_trajectory,
    final_distribution,
    oracle_trajectory,
    pre_fusion_branch_entropy,
    reference_figure_bundle,
)

S = math.sqrt(0.5)


@pytest.fixture(scope="module")
def short_timelines():
    return {name: run_timeline(coin, 150) for name, coin in PRESETS.items()}


def test_three_step_timeline_worked_values():
    timeline = run_timeline(PRESETS["4a"], 3)
    assert [r.step for r in timeline] == [1, 2, 3]
    t1, t2, t3 = timeline
    assert (t1.entropy0, t1.entropy1) == pytest.approx((0.0, 0.0), abs=1e-9)
    assert (t2.entropy0, t2.entropy1) == pytest.approx((1.0, 1.0), abs=1e-9)
    assert t3.entropy0 == pytest.approx(1.2516, abs=5e-5)
    assert t3.entropy1 == pytest.approx(1.0, abs=1e-9)
    assert t2.max_entropy == pytest.approx(1.0, abs=1e-12)
    assert t3.max_entropy == pytest.approx(1.585, abs=5e-4)


def test_ratio_absent_at_first_step():
    timeline = run_timeline(PRESETS["4a"], 1)
    assert timeline[0].ratio0 is None
    assert timeline[0].ratio1 is None
    assert timeline[0].max_entropy == 0.0


def test_asymptotic_ratio_is_plain_mean():
    timeline = run_timeline(PRESETS["4a"], 12)
    expected = sum(r.ratio0 for r in timeline[-5:]) / 5
    assert asymptotic_ratio(timeline, CoinOutcome.C0, 5) == expected


def test_ratio_columns_leave_t1_and_absent_branches_undefined():
    entropies = np.array([[0.0, 1.0, 1.5], [np.nan, np.nan, 2.0]])
    present = np.array([[True, True, True], [False, False, True]])
    bounds, ratios, defined = ratio_columns(entropies, present, range(1, 4))
    assert bounds == [0.0, 1.0, math.log2(3)]
    assert ratios == [[None, 1.0, 1.5 / math.log2(3)], [None, None, 2.0 / math.log2(3)]]
    assert defined == [[False, True, True], [False, False, True]]


def test_ratio_columns_at_sampled_steps_divide_by_the_sampled_bound():
    # steps that do not start at 1: the bound is log2 of each sampled step
    coins = [PRESETS["4a"], PRESETS["4e"]]
    measured = [5, 64, 301, 400]
    rows, index = mixing_rows(coins)
    _, entropies, present, _, _ = measure_rows(rows, 400, measured)
    bounds, ratios, defined = ratio_columns(entropies, present, measured)
    assert bounds == [math.log2(t) for t in measured]
    assert all(map(all, defined))
    assert ratios == [[e / math.log2(t) for e, t in zip(row, measured)] for row in entropies.tolist()]
    results = timelines_and_distributions(coins, 400, measured)
    for (timeline, _), i, j in zip(results, index[::2], index[1::2]):
        got = [(r.max_entropy, r.ratio0, r.ratio1) for r in timeline]
        assert got == list(zip(bounds, ratios[i], ratios[j]))


@given(
    ratios=st.lists(st.one_of(st.none(), st.floats(allow_nan=False)), min_size=1, max_size=40),
    data=st.data(),
)
@settings(deadline=None, max_examples=300)
def test_trailing_mean_is_the_left_to_right_mean_of_the_tail(ratios, data):
    window = data.draw(st.integers(1, len(ratios)))
    tail = ratios[-window:]
    mean = trailing_mean(ratios, window)
    if None in tail:
        assert mean is None
    else:
        # bitwise: repr tells -0.0 from 0.0 and round-trips every float
        assert repr(mean) == repr(sum(tail) / len(tail))


def test_asymptotic_ratio_window_validation():
    timeline = run_timeline(PRESETS["4a"], 12)
    with pytest.raises(ValueError):
        asymptotic_ratio(timeline, CoinOutcome.C0, 0)
    with pytest.raises(ValueError):
        asymptotic_ratio(timeline, CoinOutcome.C0, 13)
    # a window that reaches back to t=1 hits the absent ratio
    with pytest.raises(ValueError):
        asymptotic_ratio(timeline, CoinOutcome.C0, 12)
    # a float or a bool is not a window, even where it equals one; a numpy
    # integer is
    for window in (5.0, True):
        with pytest.raises(ValueError, match=re.escape(f"window must be an integer, got {window!r}")):
            asymptotic_ratio(timeline, CoinOutcome.C0, window)
    assert asymptotic_ratio(timeline, CoinOutcome.C0, np.int64(5)) == asymptotic_ratio(
        timeline, CoinOutcome.C0, 5
    )


@pytest.mark.parametrize("window", [5.0, True], ids=["float", "bool"])
def test_figure_bundle_rejects_a_window_that_is_not_an_integer(monkeypatch, window):
    # checked before anything is evolved, so no manifest can carry it
    def must_not_evolve(*args, **kwargs):
        raise AssertionError("evolved before the window was validated")

    monkeypatch.setattr(twinwalk.experiment, "branch_blocks", must_not_evolve)
    with pytest.raises(ValueError, match=re.escape(f"window must be an integer, got {window!r}")):
        build_figure_bundle(50, window)


def test_default_window_is_last_tenth():
    assert resolve_window(1000, None) == 100
    assert resolve_window(5, None) == 1
    assert resolve_window(50, np.int32(5)) == 5


def test_canonical_presets():
    assert tuple(PRESETS) == ("4a", "4b", "4c", "4d", "4e")
    assert PRESETS["4a"] == CoinSpinor(1.0 + 0j, 0j)
    assert PRESETS["4b"] == CoinSpinor(0j, 1.0 + 0j)
    assert PRESETS["4c"].amp1 == pytest.approx(1j * S)
    assert PRESETS["4d"].amp0 == pytest.approx(1j * S)
    assert PRESETS["4e"].amp0 == pytest.approx(math.sqrt(0.85))
    assert PRESETS["4e"].amp1 == pytest.approx(-math.sqrt(0.15))
    for coin in PRESETS.values():
        coin.require_normalized()


def test_config_validation():
    with pytest.raises(ValueError, match="steps must be >= 1, got 0"):
        run_timeline(CoinSpinor(1.0, 0.0), 0)
    with pytest.raises(NormalizationError):
        run_timeline(CoinSpinor(1.0, 1.0), 5)


#: the message of every step and window rule, each raised from ``experiment``
RULE_MESSAGES = (
    "steps must be >= 1",
    "steps must be at most",
    "measured steps must increase",
    "window must be within",
)


def rule_messages(source: str) -> list[str]:
    """The rule messages found in a module's string literals, f-string
    parts included."""
    return [
        message
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for message in RULE_MESSAGES
        if message in node.value
    ]


def test_only_the_experiment_states_the_step_and_window_rules():
    # one owner per input rule: the CLI and the figure bundle call
    # ``check_walk`` and ``resolve_window`` rather than keep copies
    package = Path(twinwalk.experiment.__file__).parent
    assert sorted(rule_messages(Path(twinwalk.experiment.__file__).read_text(encoding="utf-8"))) == sorted(
        RULE_MESSAGES
    )
    for path in sorted(package.glob("*.py")):
        if path.name != "experiment.py":
            found = rule_messages(path.read_text(encoding="utf-8"))
            assert not found, f"{path.name} states {found}"


def test_run_timeline_rejects_steps_above_ceiling(monkeypatch):
    def must_not_evolve(*args, **kwargs):
        raise AssertionError("evolved before the step count was validated")

    monkeypatch.setattr(twinwalk.experiment, "branch_blocks", must_not_evolve)
    for steps in (MAX_STEPS + 1, 10**11):
        with pytest.raises(ValueError, match=f"steps must be at most 1000000, got {steps}"):
            run_timeline(CoinSpinor(1.0, 0.0), steps)


def test_probabilities_sum_to_one(short_timelines):
    for timeline in short_timelines.values():
        for record in timeline:
            assert record.p0 + record.p1 == pytest.approx(1.0, abs=1e-12)


def test_records_respect_entanglement_bounds(short_timelines):
    for timeline in short_timelines.values():
        for record in timeline:
            assert record.max_entropy == pytest.approx(
                math.log2(record.step) if record.step > 1 else 0.0, abs=1e-12
            )
            for entropy, size, ratio in (
                (record.entropy0, record.support0, record.ratio0),
                (record.entropy1, record.support1, record.ratio1),
            ):
                if entropy is None:
                    continue
                assert size <= record.step or record.step == 0
                assert entropy <= math.log2(size) + 1e-9
                assert math.log2(size) <= record.max_entropy + 1e-9 or record.step == 1
                if ratio is not None:
                    assert -1e-9 <= ratio <= 1.0 + 1e-9


def test_swap_symmetry_between_opposite_coins(short_timelines):
    for a, b in zip(short_timelines["4a"], short_timelines["4b"]):
        assert a.entropy0 == pytest.approx(b.entropy1, abs=1e-10)
        assert a.entropy1 == pytest.approx(b.entropy0, abs=1e-10)


def test_balanced_coins_have_outcome_symmetric_timelines(short_timelines):
    # a mirror-symmetric initial coin makes the two branches reflections of
    # each other, so their entropies agree at every step
    for name in ("4c", "4d"):
        for record in short_timelines[name]:
            assert record.entropy0 == pytest.approx(record.entropy1, abs=1e-10)


def test_phase_swapped_balanced_coins_agree(short_timelines):
    # 4c and 4d differ by phases that leave every amplitude modulus unchanged
    for c, d in zip(short_timelines["4c"], short_timelines["4d"]):
        assert c.p0 == pytest.approx(d.p0, abs=1e-12)
        assert c.entropy0 == pytest.approx(d.entropy0, abs=1e-10)
        assert c.entropy1 == pytest.approx(d.entropy1, abs=1e-10)


def test_timeline_is_deterministic():
    assert run_timeline(PRESETS["4e"], 40) == run_timeline(PRESETS["4e"], 40)


def symmetry_report(coin, steps):
    ((_, distribution),) = timelines_and_distributions([coin], steps)
    return distribution_symmetry(distribution, steps)


@pytest.mark.parametrize(
    "steps, message",
    [
        (0, "steps must be >= 1, got 0"),
        (-3, "steps must be >= 1, got -3"),
        (2.0, "steps must be an integer, got 2.0"),
        (True, "steps must be an integer, got True"),
    ],
    ids=["zero", "negative", "float", "bool"],
)
def test_distribution_symmetry_rejects_a_bad_step_count(steps, message):
    # the mean position is divided by steps, which must be a step count
    with pytest.raises(ValueError, match=re.escape(message)):
        distribution_symmetry({0: 1.0}, steps)


def test_symmetry_report_balanced_coin():
    report = symmetry_report(CoinSpinor(S, 1j * S), 500)
    assert report.mirror_distance < 1e-10
    assert abs(report.mean_position_over_t) < 1e-10


def test_symmetry_report_biased_coin():
    report = symmetry_report(CoinSpinor(1.0, 0.0), 300)
    assert report.mirror_distance > 0.1
    assert report.mean_position_over_t > 0.1


def test_symmetry_report_balanced_but_asymmetric_coin():
    coin = CoinSpinor(math.sqrt(0.85), -math.sqrt(0.15))
    report = symmetry_report(coin, 500)
    assert abs(report.mean_position_over_t) < 0.02
    assert report.mirror_distance > 0.05


def test_symmetry_report_rejects_zero_steps():
    with pytest.raises(ValueError):
        symmetry_report(CoinSpinor(1.0, 0.0), 0)


def assert_matches_dense_oracle(coin, steps):
    """Amplitudes, weights, entropies and supports at every t against the dense oracle.

    The amplitudes are the coin's, composed from the engine's run rows.  The
    reference entropy is the pre-fusion arithmetic applied to the dense
    tensor's diagonal, so ``branch_entropies``'s cut and support are compared
    on the oracle's amplitudes.  The dense lattice covers the whole cone.
    """
    timeline = run_timeline(coin, steps)
    arrays = itertools.islice(engine_trajectory(coin, steps), 1, None)
    states = itertools.islice(dense_states(coin, steps), 1, None)
    assert [r.step for r in timeline] == list(range(1, steps + 1))
    for record, (a0, a1), dense in zip(timeline, arrays, states, strict=True):
        diagonal = dense_diagonal(dense, record.step)
        assert np.max(np.abs(diagonal - np.array([a0, a1]))) <= 1e-13
        assert abs(record.p0 - dense_norm(dense[0])) <= 1e-13
        assert abs(record.p1 - dense_norm(dense[1])) <= 1e-13
        for got, support, ratio, amps in (
            (record.entropy0, record.support0, record.ratio0, diagonal[0]),
            (record.entropy1, record.support1, record.ratio1, diagonal[1]),
        ):
            _, want, want_support = pre_fusion_branch_entropy(amps)
            assert (got is None) == (want is None)
            assert support == want_support
            if want is not None:
                assert abs(got - want) <= 1e-12
            if got is None or record.step == 1:
                assert ratio is None
            else:
                assert ratio == got / record.max_entropy


@given(coin=coin_spinors(), steps=st.integers(min_value=1, max_value=200))
@settings(deadline=None, max_examples=30)
def test_array_timeline_matches_dense_oracle(coin, steps):
    """Random coins, T <= 200, against the dense oracle."""
    assert_matches_dense_oracle(coin, steps)


def test_array_timeline_keeps_a_branch_cut_beyond_norm_tol():
    # one dominant site plus 200 sites just below the COEFF_EPS cut: just over
    # NORM_TOL of the branch's mass is cut, and its entropy is that of the one
    # kept coefficient
    amps = np.full(201, 0.99 * COEFF_EPS * 1j, dtype=np.complex128)
    amps[100] = 0.6 - 0.8j
    amps *= 0.7
    weight, entropy, support = branch_entropy(amps)
    cut = np.abs(amps) < COEFF_EPS * math.sqrt(weight)
    assert float(np.sum(np.abs(amps[cut]) ** 2)) / weight > NORM_TOL
    assert support == 1
    assert 0.0 <= entropy < 1e-11
    _, want, want_support = pre_fusion_branch_entropy(amps)
    assert support == want_support
    assert abs(entropy - want) <= 1e-12


@pytest.mark.parametrize("name", tuple(PRESETS))
def test_array_timeline_matches_dense_oracle_on_presets(name):
    """The five presets at T = 200 against the dense oracle."""
    assert_matches_dense_oracle(PRESETS[name], 200)


def test_array_timeline_reports_absent_branch():
    # (|0> + |1>)/sqrt(2) under the Hadamard coin is |0> after one step
    coin = CoinSpinor(S, S)
    first = run_timeline(coin, 4)[0]
    assert (first.p1, first.entropy1, first.ratio1, first.support1) == (
        0.0, None, None, None
    )
    assert_matches_dense_oracle(coin, 4)


def assert_distributions_close(got, expected, tol):
    for x in set(expected) | set(got):
        assert abs(got.get(x, 0.0) - expected.get(x, 0.0)) <= tol


@pytest.mark.parametrize("steps", [0, 1, 2, 57, 200])
@pytest.mark.parametrize("name", tuple(PRESETS))
def test_single_walker_distribution_matches_dense_marginal(name, steps):
    """The one-walker distribution against the exact one, and against the
    dense oracle's walker-1 marginal.

    Each dense step scales the norm by 2 H^2 = 1 + 2.2e-16, since H is a
    rounded sqrt(1/2), so the dense marginal is off by up to steps eps
    relative, and the tolerance against it grows with the step count.
    """
    *_, (n0, n1) = exact_run(steps)
    got = final_distribution(PRESETS[name], steps)
    assert_distributions_close(got, exact_distribution(PRESETS[name], n0, n1), 1e-15)
    dense = dense_state(PRESETS[name], steps)
    assert_distributions_close(got, dense_marginal(dense), 1e-15 + steps * 2.3e-16)


@pytest.mark.parametrize("steps", [1, 2, 17, 1000, 2500])
def test_symmetric_coins_have_an_exactly_mirrored_distribution(steps):
    # site k adds branch 1's weight at index t - k to branch 0's at k; for
    # these coins both branches weigh alike, so the sum must round the same
    # at k and at t - k
    for _, distribution in timelines_and_distributions(
        [PRESETS["4c"], PRESETS["4d"]], steps
    ):
        assert distribution_symmetry(distribution, steps).mirror_distance == 0.0


@pytest.mark.parametrize("steps", [1, 2, 257])
@pytest.mark.parametrize("name", tuple(PRESETS))
def test_timeline_and_distribution_is_one_pass_of_both(name, steps):
    # the timeline that comes with the distribution is run_timeline's, and
    # the distribution is the exact one
    ((timeline, distribution),) = timelines_and_distributions([PRESETS[name]], steps)
    assert timeline == run_timeline(PRESETS[name], steps)
    *_, (n0, n1) = exact_run(steps)
    assert_distributions_close(distribution, exact_distribution(PRESETS[name], n0, n1), 1e-15)


@given(coin=coin_spinors(), steps=st.integers(1, 30))
@settings(deadline=None, max_examples=50)
def test_timeline_and_distribution_follows_the_configured_coin(coin, steps):
    ((_, distribution),) = timelines_and_distributions([coin], steps)
    dense = dense_state(coin, steps)
    assert_distributions_close(distribution, dense_marginal(dense), 1e-14)


def test_figure_bundle_evolves_each_preset_once(monkeypatch):
    # one real run serves all four plotted presets
    true_blocks = twinwalk.experiment.branch_blocks
    calls = []

    def counted_blocks(*args, **kwargs):
        calls.append(args)
        return true_blocks(*args, **kwargs)

    monkeypatch.setattr(twinwalk.experiment, "branch_blocks", counted_blocks)
    build_figure_bundle(1000)
    assert calls == [(1000,)]


@pytest.mark.parametrize("steps", [1, 17, 1000, 2500])
def test_coins_measured_together_equal_each_coin_alone(steps):
    coins = [*PRESETS.values(), CoinSpinor(S, S), *random_coin_states(3, seed=11)]
    together = timelines_and_distributions(coins, steps)
    for coin, (timeline, distribution) in zip(coins, together, strict=True):
        ((alone, alone_distribution),) = timelines_and_distributions([coin], steps)
        assert distribution == alone_distribution
        for got, want in zip(timeline, alone, strict=True):
            assert (got.step, got.support0, got.support1) == (
                want.step, want.support0, want.support1
            )
            assert abs(got.p0 - want.p0) <= 1e-15 and abs(got.p1 - want.p1) <= 1e-15
            for a, b in ((got.entropy0, want.entropy0), (got.entropy1, want.entropy1)):
                assert (a is None) == (b is None)
                if a is not None:
                    assert abs(a - b) <= 1e-15


@pytest.mark.parametrize("block_bytes", [64 * 1024, 1024 * 1024])
def test_records_depend_on_the_block_shape_only_at_the_ulp(monkeypatch, block_bytes):
    # K = 2 and K = 32 at T = 2000 instead of 8: a BLAS row sum rounds by
    # the row's alignment, so a weight or an entropy may move by an ulp or
    # two, but never by more than 1e-15 relative
    coin = random_coin_states(1, seed=16)[0]
    steps = 2000
    default = run_timeline(coin, steps)
    monkeypatch.setattr(twinwalk.evolution, "BLOCK_BYTES", block_bytes)
    assert block_steps(steps) == block_bytes // (16 * (steps + 1))
    for got, want in zip(run_timeline(coin, steps), default, strict=True):
        assert got.step == want.step
        for field in ("p0", "p1", "entropy0", "entropy1"):
            assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-15, abs=0.0)


FIGURE_PRESETS = [PRESETS[name] for name in ("4a", "4b", "4c", "4e")]


@pytest.mark.parametrize("steps", [1, 17, 1000])
@pytest.mark.parametrize(
    "coins",
    [
        # opposite coins: 4b's branches are 4a's swapped
        [PRESETS["4a"], PRESETS["4b"]],
        # balanced coins, whose two branches are one
        [PRESETS["4c"], PRESETS["4d"]],
        [CoinSpinor(0.6, -0.8), CoinSpinor(0.8, 0.6)],
        # parts written as -0.0, folded into the key of 0.0
        [CoinSpinor(complex(0.6, -0.0), complex(-0.8, 0.0)), CoinSpinor(complex(-0.0, 0.0), 1.0)],
        # five distinct branches, the last paired with a zero row
        FIGURE_PRESETS,
    ],
    ids=["4a+4b", "4c+4d", "real-opposites", "negative-zero", "figure-presets"],
)
def test_shared_branches_are_bitwise_those_of_each_coin_alone(coins, steps):
    # repr tells every float apart, -0.0 from 0.0 included
    together = timelines_and_distributions(coins, steps)
    for coin, shared in zip(coins, together, strict=True):
        alone = timelines_and_distributions([coin], steps)[0]
        assert shared == alone
        assert repr(shared) == repr(alone)


def test_figure_presets_measure_each_distinct_branch_once(monkeypatch):
    # the eight branches of the four plotted presets are five distinct
    # mixing rows, all measured in one pass per block: five rows a step
    true_entropies = twinwalk.experiment.branch_entropies
    pass_rows = []

    def counted_entropies(site_weights, weights, present):
        pass_rows.append(len(site_weights))
        return true_entropies(site_weights, weights, present)

    monkeypatch.setattr(twinwalk.experiment, "branch_entropies", counted_entropies)
    steps = 1000
    k = block_steps(steps)
    assert len(mixing_rows(FIGURE_PRESETS)[0]) == 5
    for build in (
        lambda: timelines_and_distributions(FIGURE_PRESETS, steps),
        lambda: build_figure_bundle(steps),
    ):
        pass_rows.clear()
        build()
        # one pass per block, of five rows for each of the block's steps
        assert pass_rows == [5 * min(k, steps - first) for first in range(0, steps, k)]
        assert sum(pass_rows) == 5 * steps


def assert_matches_per_step_reference(coin, steps):
    """``run_timeline`` against the pre-fusion arithmetic on the coin's
    amplitudes at every step, composed from the exact integer run.

    Tolerances are those of the fused-versus-pre-fusion entropy test: the
    weight to n eps relative, the entropy to 1e-13, supports equal.  The
    timeline's weight mixes the row sums of A0^2, B0^2 and A0 B0 rather than
    summing |amplitude|^2, and the composed amplitudes round their own
    products, so 16 eps absolute of that rounding is allowed on top.
    """
    timeline = run_timeline(coin, steps)
    states = itertools.islice(oracle_trajectory(coin, steps), 1, None)
    assert [r.step for r in timeline] == list(range(1, steps + 1))
    for record, (a0, a1) in zip(timeline, states, strict=True):
        for weight, entropy, support, amps in (
            (record.p0, record.entropy0, record.support0, a0),
            (record.p1, record.entropy1, record.support1, a1),
        ):
            ref_weight, ref_entropy, ref_support = pre_fusion_branch_entropy(amps)
            summation = len(amps) * 2.3e-16
            mixing = 16 * 2.3e-16
            assert weight == pytest.approx(ref_weight, rel=summation, abs=mixing)
            if abs(ref_weight - PROB_EPS) <= summation * PROB_EPS + mixing:
                continue  # absence is a coin toss within rounding of the cut
            assert (entropy is None) == (ref_entropy is None)
            assert support == ref_support
            if ref_entropy is not None:
                assert entropy == pytest.approx(ref_entropy, abs=1e-13)


FORCED_K = 5


@pytest.mark.parametrize(
    "steps", [1, 2, FORCED_K - 1, FORCED_K, FORCED_K + 1, 2 * FORCED_K + 1]
)
def test_timeline_matches_per_step_reference_at_block_edges(monkeypatch, steps):
    # K forced to 5 so that short runs end mid-block, on a block edge and
    # just past one
    monkeypatch.setattr(twinwalk.evolution, "block_steps", lambda n: FORCED_K)
    for coin in (*PRESETS.values(), CoinSpinor(S, S)):
        assert_matches_per_step_reference(coin, steps)


@pytest.mark.parametrize("steps", [1008, 1009, 1007, 2001])
def test_timeline_matches_per_step_reference_at_derived_block_edges(steps):
    # K = 16 at T = 1007..1009, 8 at T = 2001: whole blocks, one step past
    # them, and one step short of a whole last block
    assert steps % block_steps(steps) in (0, 1, block_steps(steps) - 1)
    assert_matches_per_step_reference(PRESETS["4e"], steps)


@given(coin=coin_spinors(), steps=st.integers(min_value=1, max_value=300))
@settings(deadline=None, max_examples=30)
def test_timeline_matches_per_step_reference(coin, steps):
    assert_matches_per_step_reference(coin, steps)


@pytest.mark.parametrize("steps", [1, 3])
def test_exactly_zero_branch_is_absent_without_warning(steps):
    # (|0> + |1>)/sqrt(2) under the Hadamard coin is |0> after one step:
    # branch 1 is exactly zero there, inside a block of measured rows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first = run_timeline(CoinSpinor(S, S), steps)[0]
    assert (first.p1, first.entropy1, first.ratio1, first.support1) == (
        0.0, None, None, None
    )
    assert first.p0 == pytest.approx(1.0, abs=1e-15)
    assert (first.entropy0, first.support0) == (0.0, 1)
    # a point branch's entropy is +0.0: -0.0 would render as "-0"
    assert math.copysign(1.0, first.entropy0) == 1.0


#: the coins of the sampled-measurement tests: the five presets and a
#: seeded random coin, seven distinct mixing rows (four pairs)
SAMPLED_COINS = [*PRESETS.values(), *random_coin_states(1, seed=23)]


def sampled_steps(steps: int) -> list[int]:
    """Log-spaced steps, the first and last step of a middle block, and
    ``steps``."""
    k = block_steps(steps)
    middle = steps // k // 2
    log_spaced = np.geomspace(1, steps, 24).astype(int).tolist()
    return sorted({*log_spaced, middle * k + 1, (middle + 1) * k, steps})


def blocks_holding(steps: int, measured: list[int]) -> int:
    """Blocks of an n-step run that hold a measured step or ``steps``."""
    k = block_steps(steps)
    return len({(t - 1) // k for t in (*measured, steps)})


@pytest.mark.parametrize("steps", [1000, 2000, 8192])
def test_sampled_records_are_bitwise_the_every_step_records(steps):
    # K = 16 with a partial last block, K = 8, and K = 1
    assert (block_steps(1000), 1000 % 16, block_steps(2000), block_steps(8192)) == (16, 8, 8, 1)
    measured = sampled_steps(steps)
    every = timelines_and_distributions(SAMPLED_COINS, steps)
    sampled = timelines_and_distributions(SAMPLED_COINS, steps, measured)
    for (timeline, distribution), (records, sampled_distribution) in zip(
        every, sampled, strict=True
    ):
        assert [record.step for record in records] == measured
        # repr tells -0.0 from 0.0 and prints every bit of a float
        assert list(map(repr, records)) == [repr(timeline[t - 1]) for t in measured]
        assert sampled_distribution == distribution


@pytest.mark.parametrize("steps", [1000, 2000])
def test_sampled_records_match_the_exact_run(steps):
    measured = sampled_steps(steps)
    sampled = timelines_and_distributions(SAMPLED_COINS, steps, measured)
    rows = {t: pair for t, pair in enumerate(exact_run(steps)) if t in measured}
    for coin, (records, _) in zip(SAMPLED_COINS, sampled, strict=True):
        for record in records:
            exact = exact_branches(coin, *rows[record.step])
            got = (
                (record.p0, record.entropy0, record.support0),
                (record.p1, record.entropy1, record.support1),
            )
            for (weight, entropy, support), (want_weight, want_entropy, want_support) in zip(
                got, exact
            ):
                assert abs(weight - want_weight) <= 1e-12, record.step
                assert support == want_support, record.step
                assert (entropy is None) == (want_entropy is None), record.step
                if entropy is not None:
                    assert abs(entropy - want_entropy) <= 1e-12, record.step


@pytest.mark.parametrize("steps", [1000, 2000, 8192])
def test_only_blocks_holding_a_sampled_step_are_measured(monkeypatch, steps):
    # each measured block takes one entropy pass over every distinct row
    true_entropies = twinwalk.experiment.branch_entropies
    passes = []

    def counted_entropies(*args):
        passes.append(len(args[0]))
        return true_entropies(*args)

    monkeypatch.setattr(twinwalk.experiment, "branch_entropies", counted_entropies)
    measured = sampled_steps(steps)
    timelines_and_distributions(SAMPLED_COINS, steps, measured)
    rows = len(mixing_rows(SAMPLED_COINS)[0])
    assert rows == 7
    k = block_steps(steps)
    held = sorted({(t - 1) // k for t in (*measured, steps)})
    assert len(held) == blocks_holding(steps, measured)
    assert passes == [rows * min(k, steps - block * k) for block in held]
    # the last step alone measures the last block alone, both rows of 4a
    passes.clear()
    ((records, _),) = timelines_and_distributions([PRESETS["4a"]], steps, [steps])
    assert [record.step for record in records] == [steps]
    assert passes == [2 * (steps - held[-1] * k)]


@pytest.mark.parametrize(
    "measured",
    [[3, 2], [2, 2], [0, 5], [5, 11], [-1], [1, 5, 5, 7]],
    ids=["unsorted", "duplicate", "zero", "past-steps", "negative", "late-duplicate"],
)
def test_bad_measured_steps_are_rejected_before_evolving(monkeypatch, measured):
    def must_not_evolve(*args, **kwargs):
        raise AssertionError("evolved before the measured steps were validated")

    monkeypatch.setattr(twinwalk.experiment, "branch_blocks", must_not_evolve)
    with pytest.raises(ValueError, match="measured steps must increase strictly within 1..10"):
        timelines_and_distributions([PRESETS["4e"]], 10, measured)


@pytest.mark.parametrize(
    "steps, measured, field",
    [
        (10.0, None, "steps"),
        (True, None, "steps"),
        (10, [10.0], "measured[0]"),
        (10, [True, 5], "measured[0]"),
    ],
    ids=["float-steps", "bool-steps", "float-measured", "bool-measured"],
)
def test_non_integer_steps_are_rejected_before_evolving(monkeypatch, steps, measured, field):
    # a float or a bool is not a step count, even where it equals one
    def must_not_evolve(*args, **kwargs):
        raise AssertionError("evolved before the step counts were validated")

    monkeypatch.setattr(twinwalk.experiment, "branch_blocks", must_not_evolve)
    with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got ")):
        timelines_and_distributions([PRESETS["4e"]], steps, measured)


def test_numpy_integer_steps_are_accepted():
    # numpy integers are step counts: records bitwise those of Python ints
    coins = [PRESETS["4a"]]
    ((records, distribution),) = timelines_and_distributions(
        coins, np.int64(100), [np.int32(10), np.int64(50)]
    )
    ((listed, listed_distribution),) = timelines_and_distributions(coins, 100, [10, 50])
    assert list(map(repr, records)) == list(map(repr, listed))
    assert distribution == listed_distribution


def test_measured_steps_may_be_a_one_shot_iterator():
    # an iterator is read once, so the order check and the measurement see
    # the same steps: a good one measures them, a bad one is rejected
    coins = [PRESETS["4a"]]
    ((records, distribution),) = timelines_and_distributions(coins, 5, iter([1, 2]))
    ((listed, listed_distribution),) = timelines_and_distributions(coins, 5, [1, 2])
    assert [record.step for record in records] == [1, 2]
    assert list(map(repr, records)) == list(map(repr, listed))
    assert distribution == listed_distribution
    rows, _ = mixing_rows(coins)
    for got, want in zip(measure_rows(rows, 5, iter([1, 2])), measure_rows(rows, 5, [1, 2])):
        assert np.array_equal(got, want)
    for measure in (
        lambda: timelines_and_distributions(coins, 5, iter([5, 3])),
        lambda: measure_rows(rows, 5, iter([5, 3])),
    ):
        with pytest.raises(ValueError, match="measured steps must increase strictly within 1..5"):
            measure()


def test_no_measured_step_gives_only_the_distribution():
    # an empty selection measures the last block for the distribution alone
    ((records, distribution),) = timelines_and_distributions([PRESETS["4e"]], 1000, [])
    ((_, every_distribution),) = timelines_and_distributions([PRESETS["4e"]], 1000)
    assert records == [] and distribution == every_distribution


def test_measured_steps_may_be_a_numpy_array():
    # steps built with numpy (log-spaced, say) give bitwise the records of
    # the same steps as a list, each step a Python int, so a record dumps to
    # JSON
    coins = [PRESETS["4a"]]
    ((records, distribution),) = timelines_and_distributions(coins, 100, np.array([10, 50]))
    ((listed, listed_distribution),) = timelines_and_distributions(coins, 100, [10, 50])
    assert list(map(repr, records)) == list(map(repr, listed))
    assert distribution == listed_distribution
    assert all(type(record.step) is int for record in records)
    assert json.loads(json.dumps(records[0]._asdict()))["step"] == 10


#: the five presets and seeded random coins, with a balanced coin whose
#: branch 1 is absent at t = 1
BITWISE_COINS = [*PRESETS.values(), CoinSpinor(S, S), *random_coin_states(3, seed=29)]


@pytest.mark.parametrize("sampled", [False, True], ids=["every-step", "sampled"])
def test_measured_columns_are_bitwise_the_records(sampled):
    steps = 2000
    measured = sampled_steps(steps) if sampled else None
    rows, index = mixing_rows(BITWISE_COINS)
    weights, entropies, present, supports, finals = measure_rows(rows, steps, measured)
    taken = measured or list(range(1, steps + 1))
    assert weights.shape == entropies.shape == present.shape == supports.shape == (len(rows), len(taken))
    # an absent branch is NaN with no support, and one occurs at t = 1
    assert not present[:, 0].all()
    assert np.isnan(entropies[~present]).all() and not supports[~present].any()
    assert not np.isnan(entropies[present]).any()
    results = timelines_and_distributions(BITWISE_COINS, steps, measured)
    for (records, distribution), pair in zip(results, zip(index[::2], index[1::2]), strict=True):
        assert [record.step for record in records] == taken
        assert repr(distribution) == repr(walker_distribution(*finals[list(pair)], steps))
        for branch, row in enumerate(pair):
            # repr tells -0.0 from 0.0 and prints every bit of a float
            column = [
                (weight, entropy if ok else None, support if ok else None)
                for weight, entropy, ok, support in zip(
                    weights[row].tolist(), entropies[row].tolist(),
                    present[row].tolist(), supports[row].tolist(),
                )
            ]
            fields = [f"p{branch}", f"entropy{branch}", f"support{branch}"]
            assert repr(column) == repr([tuple(getattr(r, f) for f in fields) for r in records])


@pytest.mark.parametrize("steps, window", [(1, 1), (2, 2), (3, 3), (17, None), (60, 7)])
def test_figure_bundle_is_the_records_rendering(steps, window):
    texts, manifest = build_figure_bundle(steps, window)
    want_texts, want_manifest = reference_figure_bundle(steps, resolve_window(steps, window))
    assert repr(texts) == repr(want_texts)
    assert repr(manifest) == repr(want_manifest)
    if window == steps:
        # the window reaches t = 1, where the ratios are None
        assert all(
            entry["asymptotic_ratio"] in (None, {"c0": None, "c1": None})
            for entry in manifest["files"].values()
        )


def traced_peak(build) -> int:
    """tracemalloc's peak, in bytes, of a second call of ``build``."""
    build()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()


def test_working_memory_stays_small():
    # the figures hold the measured arrays, not records (a peak of about
    # 2.1 MiB; 2.8 MiB with records), and one coin at T = 2000 peaks at
    # about 1.5 MiB (2.4 MiB with the earlier pairwise entropy passes)
    assert traced_peak(lambda: build_figure_bundle(1000)) < 4 * 2**20
    assert traced_peak(lambda: run_timeline(PRESETS["4e"], 2000)) < 3 * 2**20
