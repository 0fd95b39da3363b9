import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinwalk import (
    PRESETS,
    CoinOutcome,
    CoinSpinor,
    asymptotic_ratio,
    default_window,
    distribution_symmetry,
    run_timeline,
    timeline_and_distribution,
    timelines_and_distributions,
)
import twinwalk.evolution
import twinwalk.experiment
from twinwalk.entanglement import COEFF_EPS
from twinwalk.evolution import block_steps, trajectory
from twinwalk.experiment import MAX_STEPS, trajectory_distribution
from twinwalk.figures import build_figure_bundle
from twinwalk.oracle import dense_evolve, dense_trajectory, exact_distribution, exact_run
from twinwalk.measurement import PROB_EPS
from twinwalk.states import NORM_TOL, NormalizationError
from twinwalk.verification import random_coin_states
from testutil import (
    branch_entropy,
    coin_spinors,
    dense_diagonal,
    dense_marginal,
    pre_fusion_branch_entropy,
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


def test_asymptotic_ratio_window_validation():
    timeline = run_timeline(PRESETS["4a"], 12)
    with pytest.raises(ValueError):
        asymptotic_ratio(timeline, CoinOutcome.C0, 0)
    with pytest.raises(ValueError):
        asymptotic_ratio(timeline, CoinOutcome.C0, 13)
    # a window that reaches back to t=1 hits the absent ratio
    with pytest.raises(ValueError):
        asymptotic_ratio(timeline, CoinOutcome.C0, 12)


def test_default_window_is_last_tenth():
    assert default_window(1000) == 100
    assert default_window(5) == 1


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
    _, distribution = timeline_and_distribution(coin, steps)
    return distribution_symmetry(distribution, steps)


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

    The reference entropy is the pre-fusion arithmetic applied to the dense
    tensor's diagonal, so ``branch_entropies``'s cut and support are compared
    on the oracle's amplitudes.  The dense lattice covers the whole cone.
    """
    timeline = run_timeline(coin, steps)
    arrays = itertools.islice(trajectory(coin, steps), 1, None)
    dense_states = itertools.islice(dense_trajectory(coin, steps, steps), 1, None)
    assert [r.step for r in timeline] == list(range(1, steps + 1))
    for record, (a0, a1), dense in zip(timeline, arrays, dense_states, strict=True):
        diagonal = dense_diagonal(dense, record.step)
        assert np.max(np.abs(diagonal - np.array([a0, a1]))) <= 1e-13
        assert abs(record.p0 - dense.branch_probability(CoinOutcome.C0)) <= 1e-13
        assert abs(record.p1 - dense.branch_probability(CoinOutcome.C1)) <= 1e-13
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
def test_array_timeline_matches_dict_engine(coin, steps):
    """Random coins, T <= 200, against the dense oracle."""
    assert_matches_dense_oracle(coin, steps)


def test_array_timeline_keeps_branch_the_sparse_spectrum_rejects():
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
def test_array_timeline_matches_dict_engine_on_presets(name):
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


def final_distribution(coin, steps):
    """One-walker distribution read off the last arrays of a trajectory."""
    for a0, a1 in trajectory(coin, steps):
        pass
    return trajectory_distribution(a0, a1)


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
    dense = dense_evolve(PRESETS[name], steps, steps)
    assert_distributions_close(got, dense_marginal(dense), 1e-15 + steps * 2.3e-16)


@pytest.mark.parametrize("steps", [1, 2, 257])
@pytest.mark.parametrize("name", tuple(PRESETS))
def test_timeline_and_distribution_is_one_pass_of_both(name, steps):
    timeline, distribution = timeline_and_distribution(PRESETS[name], steps)
    assert timeline == run_timeline(PRESETS[name], steps)
    assert distribution == final_distribution(PRESETS[name], steps)


@given(coin=coin_spinors(), steps=st.integers(1, 30))
@settings(deadline=None, max_examples=50)
def test_timeline_and_distribution_follows_the_configured_coin(coin, steps):
    _, distribution = timeline_and_distribution(coin, steps)
    dense = dense_evolve(coin, steps, steps)
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
        alone, alone_distribution = timeline_and_distribution(coin, steps)
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


def assert_matches_per_step_reference(coin, steps):
    """``run_timeline`` against the pre-fusion arithmetic on every trajectory pair.

    Tolerances are those of the fused-versus-pre-fusion entropy test: the
    weight to n eps relative, the entropy to 1e-13, supports equal.  The
    timeline's weight mixes the row sums of A0^2, B0^2 and A0 B0 rather than
    summing the trajectory's |amplitude|^2, and the trajectory view rounds
    its own products, so 16 eps absolute of that rounding is allowed on top.
    """
    timeline = run_timeline(coin, steps)
    states = itertools.islice(trajectory(coin, steps), 1, None)
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
