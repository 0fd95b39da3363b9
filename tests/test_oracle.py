import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import twinwalk.oracle
from twinwalk import PRESETS, CoinOutcome, CoinSpinor, timelines_and_distributions
from twinwalk.measurement import EmptyBranchError
from twinwalk.oracle import (
    EIGVAL_EPS,
    MAX_PATH_SUM_STEPS,
    DenseTensorState,
    dense_evolve,
    dense_trajectory,
    exact_branches,
    exact_run,
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


def test_dense_one_step_amplitudes():
    state = dense_evolve(COIN_RIGHT, 1, 2)
    assert state.amplitude(0, 1, 1) == pytest.approx(S, abs=1e-12)
    assert state.amplitude(1, -1, -1) == pytest.approx(S, abs=1e-12)
    assert state.amplitude(0, -1, -1) == 0.0
    assert state.amplitude(1, 1, -1) == 0.0
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_dense_three_steps_match_worked_state():
    state = dense_evolve(COIN_RIGHT, 3, 4)
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
    state = dense_evolve(COIN_RIGHT, t, t + 2)
    assert state.off_diagonal_mass() < 1e-14


def test_dense_norm_is_conserved():
    state = dense_evolve(PRESETS["4e"], 40, 40)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_dense_radius_validation():
    with pytest.raises(ValueError):
        dense_evolve(COIN_RIGHT, 5, 4)


def test_reduced_entropy_worked_values():
    def entropy(t, outcome):
        return reduced_entropy(dense_evolve(COIN_RIGHT, t, t + 1), outcome)

    assert entropy(1, CoinOutcome.C0) == pytest.approx(0.0, abs=1e-9)
    assert entropy(2, CoinOutcome.C0) == pytest.approx(1.0, abs=1e-9)
    entropy3 = entropy(3, CoinOutcome.C0)
    assert entropy3 == pytest.approx(1.2516, abs=5e-5)
    assert entropy3 == pytest.approx(1.2516291673878228, abs=1e-9)
    assert entropy(3, CoinOutcome.C1) == pytest.approx(1.0, abs=1e-9)


def test_reduced_entropy_rejects_empty_branch():
    state = dense_evolve(COIN_RIGHT, 0, 2)
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
    for coin in PRESETS.values():
        tables = evolve_tables(coin, t_max)
        assert _dense_error(coin, tables, t_max) < 1e-10


def test_path_sum_matches_engine():
    coins = list(PRESETS.values())
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
    coin = random_coin_states(1, seed=5)[0]
    radius = 17
    states = list(dense_trajectory(coin, 12, radius))
    assert [state.step for state in states] == list(range(13))
    for t, state in enumerate(states):
        assert state.lattice_radius == radius
        assert np.array_equal(state.amplitudes, dense_evolve(coin, t, radius).amplitudes)


@pytest.mark.parametrize(
    "coin,t,radius",
    [(COIN_RIGHT, -1, 4), (COIN_RIGHT, 5, 4), (CoinSpinor(1.0, 1.0), 3, 3)],
    ids=["negative-steps", "radius-below-steps", "unnormalized-coin"],
)
def test_dense_trajectory_rejects_like_dense_evolve(coin, t, radius):
    with pytest.raises(ValueError) as streamed:
        dense_trajectory(coin, t, radius)
    with pytest.raises(ValueError) as single:
        dense_evolve(coin, t, radius)
    assert str(streamed.value) == str(single.value)


def test_oracle_imports_neither_engine_nor_driver():
    # a reference that shares code with what it checks would share its bugs
    tree = ast.parse(Path(twinwalk.oracle.__file__).read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            prefix = "twinwalk." if node.level else ""
            module = (prefix + (node.module or "")).rstrip(".")
            modules.add(module)
            modules.update(f"{module}.{alias.name}" for alias in node.names)
    for name in ("experiment", "evolution", "entanglement"):
        found = sorted(m for m in modules if m.split(".")[:2] == ["twinwalk", name])
        assert not found, f"oracle imports {found}"


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


def test_exact_run_from_one_is_the_mirror_of_the_run_from_zero():
    # the identity the exact references (and the engine) read B off A with
    for t, ((n0, n1), (m0, m1)) in enumerate(zip(exact_run(300), exact_run(300, 1))):
        sign = 1 if t % 2 else -1
        assert m0 == [sign * n1[t - k] for k in range(t + 1)]
        assert m1 == [-sign * n0[t - k] for k in range(t + 1)]


def test_exact_run_is_the_unitary_hadamard_walk():
    # 2^(t/2) times the amplitudes: integer rows of squared norm 2^t, and the
    # worked three-step state
    for t, (n0, n1) in enumerate(exact_run(200)):
        assert sum(v * v for v in n0 + n1) == 2**t
    *_, (n0, n1) = exact_run(3)
    assert (n0, n1) == ([0, -1, 2, 1], [1, 0, 1, 0])


#: sampled steps: the first ones, block edges at T = 1000 (K = 16) and of
#: the run's rescaling every 32 steps, the first flushed steps (997 on) and
#: the end
EXACT_STEPS = (1, 2, 3, 4, 15, 16, 17, 31, 32, 33, 63, 64, 65, 255, 256, 500, 996, 997, 998, 999, 1000)


def assert_matches_exact(records, coin, rows):
    for record in records:
        exact = exact_branches(coin, *rows[record.step])
        got = (
            (record.p0, record.entropy0, record.support0),
            (record.p1, record.entropy1, record.support1),
        )
        for (weight, entropy, support), (want_weight, want_entropy, want_support) in zip(got, exact):
            assert abs(weight - want_weight) <= 1e-12, record.step
            assert support == want_support, record.step
            assert (entropy is None) == (want_entropy is None), record.step
            if entropy is not None:
                assert abs(entropy - want_entropy) <= 1e-12, record.step


def test_timelines_match_the_exact_run():
    """Weights, entropies, supports and absent branches of the five presets
    (T = 1000), and of 4e and a random coin at T = 2500, where the flush has
    long been acting, against exact rationals of the integer run."""
    wanted = set(EXACT_STEPS) | {2499, 2500}
    rows = {t: row for t, row in enumerate(exact_run(2500)) if t in wanted}
    coins = list(PRESETS.values())
    for coin, (timeline, _) in zip(coins, timelines_and_distributions(coins, 1000)):
        assert_matches_exact([timeline[t - 1] for t in EXACT_STEPS], coin, rows)
    long_coins = [PRESETS["4e"], *random_coin_states(1, seed=2500)]
    for coin, (timeline, _) in zip(long_coins, timelines_and_distributions(long_coins, 2500)):
        assert_matches_exact(timeline[-2:], coin, rows)
