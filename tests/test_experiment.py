import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinwalk import (
    CoinOperator,
    CoinOutcome,
    CoinSpinor,
    ExperimentConfig,
    PRESET_NAMES,
    asymptotic_ratio,
    canonical_initial_states,
    default_window,
    distribution_symmetry,
    hadamard,
    run_timeline,
    timeline_and_distribution,
)
import twinwalk.experiment
from twinwalk.entanglement import COEFF_EPS
from twinwalk.evolution import trajectory
from twinwalk.experiment import trajectory_distribution
from twinwalk.figures import build_figure_bundle
from twinwalk.oracle import dense_evolve, dense_trajectory
from twinwalk.states import NORM_TOL, NormalizationError
from testutil import (
    coin_operators,
    coin_spinors,
    dense_diagonal,
    dense_marginal,
    pre_fusion_branch_entropy,
)

S = math.sqrt(0.5)


@pytest.fixture(scope="module")
def short_timelines():
    configs = canonical_initial_states(steps=150)
    return {name: run_timeline(config) for name, config in configs.items()}


def test_three_step_timeline_worked_values():
    timeline = run_timeline(canonical_initial_states(steps=3)["4a"])
    assert [r.step for r in timeline] == [1, 2, 3]
    t1, t2, t3 = timeline
    assert (t1.entropy0, t1.entropy1) == pytest.approx((0.0, 0.0), abs=1e-9)
    assert (t2.entropy0, t2.entropy1) == pytest.approx((1.0, 1.0), abs=1e-9)
    assert t3.entropy0 == pytest.approx(1.2516, abs=5e-5)
    assert t3.entropy1 == pytest.approx(1.0, abs=1e-9)
    assert t2.max_entropy == pytest.approx(1.0, abs=1e-12)
    assert t3.max_entropy == pytest.approx(1.585, abs=5e-4)


def test_ratio_absent_at_first_step():
    timeline = run_timeline(canonical_initial_states(steps=1)["4a"])
    assert timeline[0].ratio0 is None
    assert timeline[0].ratio1 is None
    assert timeline[0].max_entropy == 0.0


def test_asymptotic_ratio_is_plain_mean():
    timeline = run_timeline(canonical_initial_states(steps=12)["4a"])
    expected = sum(r.ratio0 for r in timeline[-5:]) / 5
    assert asymptotic_ratio(timeline, CoinOutcome.C0, 5) == expected


def test_asymptotic_ratio_window_validation():
    timeline = run_timeline(canonical_initial_states(steps=12)["4a"])
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
    configs = canonical_initial_states(steps=1000)
    assert tuple(configs) == PRESET_NAMES
    assert configs["4a"].coin_init == CoinSpinor(1.0 + 0j, 0j)
    assert configs["4b"].coin_init == CoinSpinor(0j, 1.0 + 0j)
    assert configs["4c"].coin_init.amp1 == pytest.approx(1j * S)
    assert configs["4d"].coin_init.amp0 == pytest.approx(1j * S)
    assert configs["4e"].coin_init.amp0 == pytest.approx(math.sqrt(0.85))
    assert configs["4e"].coin_init.amp1 == pytest.approx(-math.sqrt(0.15))
    for config in configs.values():
        config.coin_init.require_normalized()
        assert config.steps == 1000
        assert config.start_position == 0


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(coin_init=CoinSpinor(1.0, 0.0), steps=0)
    with pytest.raises(NormalizationError):
        ExperimentConfig(coin_init=CoinSpinor(1.0, 1.0), steps=5)


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
    config = canonical_initial_states(steps=40)["4e"]
    assert run_timeline(config) == run_timeline(config)


def symmetry_report(coin, steps):
    _, distribution = timeline_and_distribution(
        ExperimentConfig(coin_init=coin, steps=steps)
    )
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


def assert_matches_dense_oracle(config):
    """Amplitudes, weights, entropies and supports at every t against the dense oracle.

    The reference entropy is the pre-fusion arithmetic applied to the dense
    tensor's diagonal, so ``branch_entropy``'s cut and support are compared
    on the oracle's amplitudes.  The dense lattice covers the whole cone.
    """
    start, steps = config.start_position, config.steps
    timeline = run_timeline(config)
    arrays = itertools.islice(
        trajectory(config.coin_init, config.coin_operator, steps), 1, None
    )
    dense_states = itertools.islice(
        dense_trajectory(config, steps, steps + abs(start)), 1, None
    )
    assert [r.step for r in timeline] == list(range(1, steps + 1))
    for record, (a0, a1), dense in zip(timeline, arrays, dense_states, strict=True):
        diagonal = dense_diagonal(dense, start, record.step)
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


@given(
    coin=coin_spinors(),
    operator=coin_operators(),
    steps=st.integers(min_value=1, max_value=200),
    start=st.integers(min_value=-20, max_value=20),
)
@settings(deadline=None, max_examples=30)
def test_array_timeline_matches_dict_engine(coin, operator, steps, start):
    """Random coins and operators, T <= 200, against the dense oracle."""
    config = ExperimentConfig(
        coin_init=coin, steps=steps, start_position=start, coin_operator=operator
    )
    assert_matches_dense_oracle(config)
    # the start only labels sites, so the small starts drawn here stand for all
    assert run_timeline(config) == run_timeline(replace(config, start_position=0))


def test_array_timeline_keeps_branch_the_sparse_spectrum_rejects():
    # a near-identity coin leaves one dominant site per branch; at t = 115 the
    # coin-1 branch has just over NORM_TOL of its mass in coefficients below
    # COEFF_EPS, and its entropy is that of the one kept coefficient
    theta = 1.1920928959999971e-07
    c = math.sqrt(1.0 - theta * theta)
    config = ExperimentConfig(
        coin_init=CoinSpinor(0.6178215519319035j, 0.7863183388224225j),
        steps=115,
        coin_operator=CoinOperator(c, theta, -theta, c),
    )
    for a0, a1 in trajectory(config.coin_init, config.coin_operator, 115):
        pass
    weight = float(np.sum(np.abs(a1) ** 2))
    cut = np.abs(a1) < COEFF_EPS * math.sqrt(weight)
    assert float(np.sum(np.abs(a1[cut]) ** 2)) / weight > NORM_TOL
    last = run_timeline(config)[-1]
    assert last.support1 == 1
    assert 0.0 <= last.entropy1 < 1e-11
    assert_matches_dense_oracle(config)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_array_timeline_matches_dict_engine_on_presets(name):
    """The five presets at T = 200 against the dense oracle."""
    assert_matches_dense_oracle(canonical_initial_states(steps=200)[name])


def test_array_timeline_reports_absent_branch():
    # (|0> + |1>)/sqrt(2) under the Hadamard coin is |0> after one step
    config = ExperimentConfig(coin_init=CoinSpinor(S, S), steps=4, start_position=3)
    first = run_timeline(config)[0]
    assert (first.p1, first.entropy1, first.ratio1, first.support1) == (
        0.0, None, None, None
    )
    assert_matches_dense_oracle(config)


def final_distribution(coin, operator, steps):
    """One-walker distribution read off the last arrays of a trajectory."""
    for a0, a1 in trajectory(coin, operator, steps):
        pass
    return trajectory_distribution(a0, a1)


def assert_distributions_close(got, expected, tol):
    for x in set(expected) | set(got):
        assert abs(got.get(x, 0.0) - expected.get(x, 0.0)) <= tol


@pytest.mark.parametrize("steps", [0, 1, 2, 57, 200])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_single_walker_distribution_matches_dict_engine(name, steps):
    """The one-walker distribution against the dense oracle's walker-1 marginal."""
    config = canonical_initial_states(steps=max(steps, 1))[name]
    dense = dense_evolve(config, steps, steps)
    got = final_distribution(config.coin_init, hadamard(), steps)
    assert_distributions_close(got, dense_marginal(dense), 1e-15)


@pytest.mark.parametrize("steps", [1, 2, 257])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_timeline_and_distribution_is_one_pass_of_both(name, steps):
    config = canonical_initial_states(steps=steps)[name]
    timeline, distribution = timeline_and_distribution(config)
    assert timeline == run_timeline(config)
    assert distribution == final_distribution(config.coin_init, hadamard(), steps)


@given(coin=coin_spinors(), operator=coin_operators(), steps=st.integers(1, 30))
@settings(deadline=None, max_examples=50)
def test_timeline_and_distribution_follows_the_configured_coin(coin, operator, steps):
    config = ExperimentConfig(coin_init=coin, steps=steps, coin_operator=operator)
    _, distribution = timeline_and_distribution(config)
    dense = dense_evolve(config, steps, steps)
    assert_distributions_close(distribution, dense_marginal(dense), 1e-14)


def test_figure_bundle_evolves_each_preset_once(monkeypatch):
    true_trajectory = twinwalk.experiment.trajectory
    calls = []

    def counted_trajectory(*args, **kwargs):
        calls.append(args)
        return true_trajectory(*args, **kwargs)

    monkeypatch.setattr(twinwalk.experiment, "trajectory", counted_trajectory)
    build_figure_bundle(1000)
    assert len(calls) == 4
