import itertools
import math

import numpy as np
import pytest

from twinwalk import CoinOutcome, CoinSpinor, ExperimentConfig, canonical_initial_states
from twinwalk.measurement import EmptyBranchError
from twinwalk.oracle import (
    EIGVAL_EPS,
    MAX_PATH_SUM_STEPS,
    DenseTensorState,
    dense_evolve,
    dense_trajectory,
    path_sum_amplitude,
    path_sum_table,
    reduced_entropy,
)
from twinwalk.verification import _dense_error, random_coin_states
from testutil import evolve_tables, max_table_diff

S = math.sqrt(0.5)
E3 = S / 2
COIN_RIGHT = CoinSpinor(1.0, 0.0)
COIN_LEFT = CoinSpinor(0.0, 1.0)


def config_for(coin, steps=1):
    return ExperimentConfig(coin_init=coin, steps=steps)


def test_dense_one_step_amplitudes():
    state = dense_evolve(config_for(COIN_RIGHT), 1, 2)
    assert state.amplitude(0, 1, 1) == pytest.approx(S, abs=1e-12)
    assert state.amplitude(1, -1, -1) == pytest.approx(S, abs=1e-12)
    assert state.amplitude(0, -1, -1) == 0.0
    assert state.amplitude(1, 1, -1) == 0.0
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_dense_three_steps_match_worked_state():
    state = dense_evolve(config_for(COIN_RIGHT), 3, 4)
    expected = {
        (3, 0): E3,
        (1, 0): 2 * E3,
        (-1, 0): -E3,
        (1, 1): E3,
        (-3, 1): E3,
    }
    for x in range(-3, 4):
        for c in (0, 1):
            assert state.amplitude(c, x, x) == pytest.approx(
                expected.get((x, c), 0.0), abs=1e-12
            )


@pytest.mark.parametrize("t", [1, 5, 12, 25])
def test_dense_off_diagonal_mass_is_zero(t):
    state = dense_evolve(config_for(COIN_RIGHT), t, t + 2)
    assert state.off_diagonal_mass() < 1e-14


def test_dense_norm_is_conserved():
    state = dense_evolve(config_for(canonical_initial_states(1)["4e"].coin_init), 40, 40)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_dense_radius_validation():
    with pytest.raises(ValueError):
        dense_evolve(config_for(COIN_RIGHT), 5, 4)
    shifted = ExperimentConfig(coin_init=COIN_RIGHT, steps=1, start_position=3)
    with pytest.raises(ValueError):
        dense_evolve(shifted, 2, 4)


def test_dense_respects_start_position():
    shifted = ExperimentConfig(coin_init=COIN_RIGHT, steps=1, start_position=3)
    state = dense_evolve(shifted, 1, 5)
    assert state.amplitude(0, 4, 4) == pytest.approx(S, abs=1e-12)
    assert state.amplitude(1, 2, 2) == pytest.approx(S, abs=1e-12)


def test_reduced_entropy_worked_values():
    cfg = config_for(COIN_RIGHT)
    assert reduced_entropy(dense_evolve(cfg, 1, 2), CoinOutcome.C0) == pytest.approx(
        0.0, abs=1e-9
    )
    assert reduced_entropy(dense_evolve(cfg, 2, 3), CoinOutcome.C0) == pytest.approx(
        1.0, abs=1e-9
    )
    entropy3 = reduced_entropy(dense_evolve(cfg, 3, 4), CoinOutcome.C0)
    assert entropy3 == pytest.approx(1.2516, abs=5e-5)
    assert entropy3 == pytest.approx(1.2516291673878228, abs=1e-9)
    assert reduced_entropy(dense_evolve(cfg, 3, 4), CoinOutcome.C1) == pytest.approx(
        1.0, abs=1e-9
    )


def test_reduced_entropy_rejects_empty_branch():
    state = dense_evolve(config_for(COIN_RIGHT), 0, 2)
    with pytest.raises(EmptyBranchError):
        reduced_entropy(state, CoinOutcome.C1)


def test_path_sum_one_step():
    assert path_sum_amplitude(COIN_RIGHT, 1, CoinOutcome.C0, 1) == pytest.approx(
        S, abs=1e-12
    )


@pytest.mark.parametrize("t", range(1, 11))
def test_path_sum_all_right_history(t):
    amp = path_sum_amplitude(COIN_RIGHT, t, CoinOutcome.C0, t)
    assert amp == pytest.approx(2 ** (-t / 2), abs=1e-12)


def test_path_sum_two_steps_coin_one_at_origin():
    assert path_sum_amplitude(COIN_RIGHT, 0, CoinOutcome.C1, 2) == pytest.approx(
        0.5, abs=1e-12
    )


def test_path_sum_zero_steps_returns_initial_coin():
    coin = CoinSpinor(S, 1j * S)
    assert path_sum_amplitude(coin, 0, CoinOutcome.C0, 0) == pytest.approx(S)
    assert path_sum_amplitude(coin, 0, CoinOutcome.C1, 0) == pytest.approx(1j * S)


def test_path_sum_depth_cap():
    with pytest.raises(ValueError):
        path_sum_table(COIN_RIGHT, MAX_PATH_SUM_STEPS + 1)
    with pytest.raises(ValueError):
        path_sum_table(COIN_RIGHT, -1)


def test_dense_matches_engine_for_presets():
    t_max = 6
    for config in canonical_initial_states(steps=t_max).values():
        tables = evolve_tables(config.coin_init, t_max)
        assert _dense_error(config.coin_init, tables, t_max) < 1e-10


def test_path_sum_matches_engine():
    coins = [c.coin_init for c in canonical_initial_states(steps=1).values()]
    coins.extend(random_coin_states(3, seed=7))
    for coin in coins:
        tables = evolve_tables(coin, 8)
        for t in range(9):
            assert max_table_diff(tables[t], path_sum_table(coin, t)) < 1e-12


def test_mirror_symmetry_via_path_sum():
    for t in range(1, 11):
        right = path_sum_table(COIN_RIGHT, t)
        left = path_sum_table(COIN_LEFT, t)
        keys = {(x, c) for x, c in right} | {(-x, 1 - c) for x, c in left}
        for x, c in keys:
            assert abs(right.get((x, c), 0j)) == pytest.approx(
                abs(left.get((-x, 1 - c), 0j)), abs=1e-12
            )


def test_dense_trajectory_matches_dense_evolve():
    config = ExperimentConfig(
        coin_init=random_coin_states(1, seed=5)[0], steps=1, start_position=-3
    )
    radius = 17
    states = list(dense_trajectory(config, 12, radius))
    assert [state.step for state in states] == list(range(13))
    for t, state in enumerate(states):
        assert state.lattice_radius == radius
        assert np.array_equal(state.amplitudes, dense_evolve(config, t, radius).amplitudes)


@pytest.mark.parametrize(
    "start,t,radius",
    [(0, -1, 4), (0, 5, 4), (3, 2, 4)],
    ids=["negative-steps", "radius-below-steps", "radius-below-shifted-cone"],
)
def test_dense_trajectory_rejects_like_dense_evolve(start, t, radius):
    config = ExperimentConfig(coin_init=COIN_RIGHT, steps=1, start_position=start)
    with pytest.raises(ValueError) as streamed:
        dense_trajectory(config, t, radius)
    with pytest.raises(ValueError) as single:
        dense_evolve(config, t, radius)
    assert str(streamed.value) == str(single.value)


def full_matrix_entropy(state, outcome):
    """Entropy from eigvalsh of the uncropped reduced density matrix."""
    matrix = state.amplitudes[outcome.value]
    normalized = matrix / math.sqrt(float(np.sum(np.abs(matrix) ** 2)))
    eigenvalues = np.linalg.eigvalsh(normalized @ normalized.conj().T)
    eigenvalues = eigenvalues[eigenvalues > EIGVAL_EPS]
    return max(0.0, float(-np.sum(eigenvalues * np.log2(eigenvalues))))


@pytest.mark.parametrize("seed", range(5))
def test_reduced_entropy_crop_matches_full_matrix(seed):
    rng = np.random.default_rng(seed)
    radius = 10
    n = 2 * radius + 1
    amplitudes = np.zeros((2, n, n), dtype=np.complex128)
    for coin in (0, 1):
        rows = rng.choice(n, size=6, replace=False)
        cols = rng.choice(n, size=9, replace=False)
        block = rng.normal(size=(6, 9)) + 1j * rng.normal(size=(6, 9))
        amplitudes[coin][np.ix_(rows, cols)] = block
    state = DenseTensorState(step=radius, lattice_radius=radius, amplitudes=amplitudes)
    for outcome in (CoinOutcome.C0, CoinOutcome.C1):
        entropy = reduced_entropy(state, outcome)
        assert entropy > 1.0
        assert entropy == pytest.approx(full_matrix_entropy(state, outcome), abs=1e-12)


def naive_history_table(coin_init, t):
    """Path sum over itertools.product histories, one path at a time."""
    s = math.sqrt(0.5)
    h = ((s, s), (s, -s))
    a = (complex(coin_init.amp0), complex(coin_init.amp1))
    if t == 0:
        return {(0, 0): a[0], (0, 1): a[1]}
    table = {}
    for history in itertools.product((0, 1), repeat=t):
        first = history[0]
        weight = h[first][0] * a[0] + h[first][1] * a[1]
        displacement = 1 - 2 * first
        previous = first
        for current in history[1:]:
            weight *= h[current][previous]
            displacement += 1 - 2 * current
            previous = current
        key = (displacement, history[-1])
        table[key] = table.get(key, 0j) + weight
    return table


def test_path_sum_matches_naive_history_sum():
    for coin in random_coin_states(4, seed=11):
        for t in range(13):
            expected = naive_history_table(coin, t)
            table = path_sum_table(coin, t)
            assert set(table) == set(expected)
            assert max_table_diff(table, expected) < 1e-14
