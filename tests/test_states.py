import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinwalk import (
    CoinSpinor,
    ExperimentConfig,
    canonical_initial_states,
    hadamard,
    run_timeline,
)
from twinwalk.evolution import trajectory
from twinwalk.experiment import trajectory_distribution
from twinwalk.oracle import dense_evolve
from twinwalk.states import SUPPORT_EPS, NormalizationError
from testutil import coin_operators, coin_spinors

S = math.sqrt(0.5)


def walk(coin, steps):
    """Copies of the coin-0 and coin-1 arrays after ``steps`` steps."""
    for a0, a1 in trajectory(coin, hadamard(), steps):
        pass
    return a0.copy(), a1.copy()


def mass(a0, a1):
    return float(np.sum(np.abs(a0) ** 2) + np.sum(np.abs(a1) ** 2))


def support(a0, a1):
    """Ascending sites (start at the origin) whose mass exceeds SUPPORT_EPS."""
    return sorted(x for x, p in trajectory_distribution(a0, a1).items() if p > SUPPORT_EPS)


def test_point_start_coin_zero():
    a0, a1 = walk(CoinSpinor(1.0, 0.0), 0)
    assert a0.tolist() == [1 + 0j]
    assert a1.tolist() == [0j]


def test_point_start_coin_one():
    a0, a1 = walk(CoinSpinor(0.0, 1.0), 0)
    assert (a0.tolist(), a1.tolist()) == ([0j], [1 + 0j])


def test_point_start_balanced_imaginary_coin():
    a0, a1 = walk(CoinSpinor(S, 1j * S), 0)
    assert a0[0] == pytest.approx(S)
    assert a1[0] == pytest.approx(1j * S)


def test_point_start_respects_position():
    # the start position only labels sites: the dense oracle puts all mass on
    # |-7, -7>, and the timeline is the one from the origin
    config = ExperimentConfig(coin_init=CoinSpinor(1.0, 0.0), steps=5, start_position=-7)
    mass_by_site = np.sum(np.abs(dense_evolve(config, 0, 7).amplitudes) ** 2, axis=0)
    assert mass_by_site[0, 0] == 1.0
    assert np.sum(mass_by_site) == 1.0
    origin = ExperimentConfig(coin_init=CoinSpinor(1.0, 0.0), steps=5)
    assert run_timeline(config) == run_timeline(origin)


def test_rejects_unnormalized_coin():
    with pytest.raises(NormalizationError):
        next(trajectory(CoinSpinor(1.0, 1.0), hadamard(), 0))


def test_rejects_non_finite_coin():
    with pytest.raises(NormalizationError):
        next(trajectory(CoinSpinor(float("nan"), 0.0), hadamard(), 0))


def test_norm_of_fresh_state():
    assert mass(*walk(CoinSpinor(1.0, 0.0), 0)) == 1.0


def test_norm_after_three_steps():
    assert mass(*walk(CoinSpinor(1.0, 0.0), 3)) == pytest.approx(1.0, abs=1e-12)


def test_norm_of_halved_amplitudes():
    assert CoinSpinor(0.5 + 0j, 0j).norm_sq == 0.25


def test_require_unit_norm():
    CoinSpinor(S, -1j * S).require_normalized()
    with pytest.raises(NormalizationError):
        CoinSpinor(0.5 + 0j, 0j).require_normalized()
    with pytest.raises(NormalizationError):
        CoinSpinor(complex(float("inf"), 0), 0j).require_normalized()


def test_distribution_after_one_step():
    dist = trajectory_distribution(*walk(CoinSpinor(1.0, 0.0), 1))
    assert set(dist) == {-1, 1}
    assert dist[1] == pytest.approx(0.5, abs=1e-12)
    assert dist[-1] == pytest.approx(0.5, abs=1e-12)


def test_distribution_of_initial_state():
    assert trajectory_distribution(*walk(CoinSpinor(1.0, 0.0), 0)) == {0: 1.0}


def test_distribution_symmetric_for_balanced_coin_100_steps():
    coin = canonical_initial_states(steps=1)["4c"].coin_init
    dist = trajectory_distribution(*walk(coin, 100))
    for x, p in dist.items():
        assert p == pytest.approx(dist.get(-x, 0.0), abs=1e-12)


def test_support_of_initial_state():
    assert support(*walk(CoinSpinor(1.0, 0.0), 0)) == [0]


def test_support_after_two_steps():
    assert support(*walk(CoinSpinor(1.0, 0.0), 2)) == [-2, 0, 2]


def test_support_after_three_steps():
    # the interior cancellation leaves a parity hole at -1 on coin 1 only
    assert support(*walk(CoinSpinor(1.0, 0.0), 3)) == [-3, -1, 1, 3]


@given(
    coin=coin_spinors(),
    operator=coin_operators(),
    steps=st.integers(min_value=0, max_value=12),
)
@settings(deadline=None)
def test_evolution_preserves_norm_parity_completeness(coin, operator, steps):
    for t, (a0, a1) in enumerate(trajectory(coin, operator, steps)):
        assert mass(a0, a1) == pytest.approx(1.0, abs=1e-12)
        # parity: t + 1 slots for the sites -t, -t + 2, ..., t; coin 0 cannot
        # sit at the left edge nor coin 1 at the right edge after a step
        assert len(a0) == len(a1) == t + 1
        if t >= 1:
            assert a0[0] == 0 and a1[t] == 0
        assert sum(trajectory_distribution(a0, a1).values()) == pytest.approx(
            1.0, abs=1e-12
        )


@given(coin=coin_spinors(), steps=st.integers(min_value=0, max_value=40))
@settings(deadline=None)
def test_support_growth_from_point_start(coin, steps):
    a0, a1 = walk(coin, steps)
    sites = support(a0, a1)
    assert len(sites) <= steps + 1
    assert all(abs(x) <= steps and (x - steps) % 2 == 0 for x in sites)


def test_amplitudes_stay_finite_on_long_runs():
    a0, a1 = walk(CoinSpinor(S, -1j * S), 300)
    assert np.all(np.isfinite(a0)) and np.all(np.isfinite(a1))
