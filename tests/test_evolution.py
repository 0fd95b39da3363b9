import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinwalk import CoinSpinor
from twinwalk.evolution import H, trajectory
from twinwalk.experiment import trajectory_distribution
from twinwalk.oracle import dense_trajectory
from testutil import (
    coin_spinors,
    dense_diagonal,
    evolve_tables,
    max_table_diff,
)

S = math.sqrt(0.5)
E3 = S / 2  # amplitude quantum after three balanced steps

COIN_RIGHT = CoinSpinor(1.0, 0.0)
COIN_LEFT = CoinSpinor(0.0, 1.0)

ONE_STEP = {(1, 0): S, (-1, 1): S}
TWO_STEP = {(2, 0): 0.5, (0, 0): 0.5, (0, 1): 0.5, (-2, 1): -0.5}
THREE_STEP = {(3, 0): E3, (1, 0): 2 * E3, (-1, 0): -E3, (1, 1): E3, (-3, 1): E3}


def rounding(t):
    """Bound on |array - dense| after t steps.

    The dense oracle mixes the coin with a tensor contraction that rounds
    differently from the array step, by about one ulp a step.
    """
    return 4 * (t + 1) * np.finfo(np.float64).eps


def test_hadamard_columns():
    # one step from a basis coin reads off that column of the coin matrix:
    # coin 0 lands one site right (index 1), coin 1 one site left (index 0)
    for coin, column in ((COIN_RIGHT, (S, S)), (COIN_LEFT, (S, -S))):
        *_, (a0, a1) = trajectory(coin, 1)
        assert (a0[1], a1[0]) == pytest.approx(column)


def test_hadamard_is_involution():
    h = np.array([[H, H], [H, -H]])
    assert h @ h == pytest.approx(np.eye(2), abs=1e-15)


@pytest.mark.parametrize(
    "steps,expected", [(1, ONE_STEP), (2, TWO_STEP), (3, THREE_STEP)]
)
def test_short_walks_match_closed_form(steps, expected):
    table = evolve_tables(COIN_RIGHT, steps)[steps]
    assert max_table_diff(table, {k: complex(v) for k, v in expected.items()}) < 1e-12


def norm(a0, a1):
    return float(np.sum(np.abs(a0) ** 2) + np.sum(np.abs(a1) ** 2))


def test_step_increments_counter():
    # the step-t pair has t + 1 slots, one per reachable site
    lengths = [(len(a0), len(a1)) for a0, a1 in trajectory(COIN_RIGHT, 4)]
    assert lengths == [(t + 1, t + 1) for t in range(5)]


def test_evolve_zero_steps_returns_initial():
    coin = CoinSpinor(S, -1j * S)
    pairs = [(a0.tolist(), a1.tolist()) for a0, a1 in trajectory(coin, 0)]
    assert pairs == [([coin.amp0], [coin.amp1])]


def test_evolve_rejects_negative_count():
    with pytest.raises(ValueError, match="non-negative"):
        next(trajectory(COIN_RIGHT, -1))


def test_evolve_snapshots_match_repeated_step():
    # a shorter run's steps are exactly the first steps of a longer run
    short = [(a0.copy(), a1.copy()) for a0, a1 in trajectory(COIN_RIGHT, 3)]
    long = itertools.islice(trajectory(COIN_RIGHT, 10), 4)
    for (s0, s1), (l0, l1) in zip(short, long, strict=True):
        assert np.array_equal(s0, l0) and np.array_equal(s1, l1)
    assert max_table_diff(evolve_tables(COIN_RIGHT, 3)[3], dict(THREE_STEP)) < 1e-12


def test_norm_conserved_along_1000_step_trajectory():
    drift = max(abs(norm(a0, a1) - 1.0) for a0, a1 in trajectory(COIN_RIGHT, 1000))
    assert drift < 1e-12


def test_single_walker_first_step():
    # the one-walker walk is the same trajectory, read as one walker's sites
    *_, (a0, a1) = trajectory(COIN_RIGHT, 1)
    table = {(2 * k - 1, c): amp for c, amps in enumerate((a0, a1)) for k, amp in enumerate(amps)}
    assert max_table_diff(table, dict(ONE_STEP)) < 1e-12


def test_single_walker_balanced_coin_symmetric_at_1000_steps():
    coin = CoinSpinor(S, 1j * S)
    for a0, a1 in trajectory(coin, 1000):
        pass
    dist = trajectory_distribution(a0, a1)
    for x, p in dist.items():
        assert abs(p - dist.get(-x, 0.0)) < 1e-12


@pytest.mark.parametrize("t", range(1, 11))
def test_all_right_amplitude_is_power_of_half(t):
    table = evolve_tables(COIN_RIGHT, t)[t]
    assert table[(t, 0)] == pytest.approx(2 ** (-t / 2), abs=1e-12)


@given(coin=coin_spinors(), steps=st.integers(0, 12))
@settings(deadline=None, max_examples=60)
def test_step_is_linear(coin, steps):
    # the run from a0|0> + a1|1> is a0 (run from |0>) + a1 (run from |1>)
    runs = zip(
        trajectory(coin, steps),
        trajectory(CoinSpinor(1.0, 0.0), steps),
        trajectory(CoinSpinor(0.0, 1.0), steps),
    )
    for (a0, a1), (r0, r1), (l0, l1) in runs:
        assert np.max(np.abs(a0 - (coin.amp0 * r0 + coin.amp1 * l0))) < 1e-12
        assert np.max(np.abs(a1 - (coin.amp0 * r1 + coin.amp1 * l1))) < 1e-12


@given(coin=coin_spinors(), steps=st.integers(min_value=0, max_value=25))
@settings(deadline=None)
def test_two_walker_amplitudes_equal_single_walker(coin, steps):
    # the dense oracle moves two walkers on the full product lattice; its
    # diagonal must hold the one-walker trajectory's amplitudes, to rounding,
    # and nothing may leave it
    states = zip(trajectory(coin, steps), dense_trajectory(coin, steps, steps))
    for t, ((a0, a1), dense) in enumerate(states):
        assert np.max(np.abs(dense_diagonal(dense, t) - np.array([a0, a1]))) <= rounding(t)
        assert dense.off_diagonal_mass() == 0.0


def test_mirror_symmetry_between_opposite_basis_coins():
    right = evolve_tables(COIN_RIGHT, 12)
    left = evolve_tables(COIN_LEFT, 12)
    for t in range(13):
        keys = {(x, c) for x, c in right[t]} | {(-x, 1 - c) for x, c in left[t]}
        for x, c in keys:
            assert abs(right[t].get((x, c), 0j)) == pytest.approx(
                abs(left[t].get((-x, 1 - c), 0j)), abs=1e-12
            )


@given(coin=coin_spinors(), steps=st.integers(min_value=0, max_value=40))
@settings(deadline=None, max_examples=40)
def test_trajectory_layout_matches_sparse_step(coin, steps):
    """Index k of the step-t arrays holds site -t + 2k of the dense oracle."""
    dense_states = dense_trajectory(coin, steps, steps)
    arrays = trajectory(coin, steps)
    for t, (dense, (a0, a1)) in enumerate(zip(dense_states, arrays, strict=True)):
        assert len(a0) == len(a1) == t + 1
        diagonal = dense_diagonal(dense, t)
        assert np.max(np.abs(diagonal - np.array([a0, a1]))) <= rounding(t)
        # no dense mass outside the sites the layout stores
        assert np.sum(np.abs(diagonal) ** 2) == pytest.approx(dense.norm(), abs=1e-14)


def test_trajectory_rejects_bad_input():
    with pytest.raises(ValueError):
        next(trajectory(COIN_RIGHT, -1))
    with pytest.raises(ValueError):
        next(trajectory(CoinSpinor(1.0, 1.0), 3))
