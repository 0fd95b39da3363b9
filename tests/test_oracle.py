import ast
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinwalk.oracle
from twinwalk import PRESETS, CoinOutcome, CoinSpinor, timelines_and_distributions
from twinwalk.oracle import (
    EmptyBranchError,
    EIGVAL_EPS,
    MAX_PATH_SUM_STEPS,
    DenseTensorState,
    dense_branches,
    dense_evolve,
    dense_trajectory,
    exact_branches,
    exact_distribution,
    exact_run,
    path_sum_amplitude,
    path_sum_table,
    path_sum_tables,
    reduced_entropy,
)
from twinwalk.states import PROB_EPS
from twinwalk.verification import random_coin_states
from testutil import coin_spinors, dense_error, evolve_tables, max_table_diff

S = math.sqrt(0.5)
E3 = S / 2
COIN_RIGHT = CoinSpinor(1.0, 0.0)
COIN_LEFT = CoinSpinor(0.0, 1.0)


def test_dense_one_step_amplitudes():
    state = dense_evolve(COIN_RIGHT, 1)
    assert state.amplitude(0, 1, 1) == pytest.approx(S, abs=1e-12)
    assert state.amplitude(1, -1, -1) == pytest.approx(S, abs=1e-12)
    assert state.amplitude(0, -1, -1) == 0.0
    assert state.amplitude(1, 1, -1) == 0.0
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_dense_three_steps_match_worked_state():
    state = dense_evolve(COIN_RIGHT, 3)
    expected = {
        (3, 0): E3,
        (1, 0): 2 * E3,
        (-1, 0): -E3,
        (1, 1): E3,
        (-3, 1): E3,
    }
    # sites +-4 lie outside the step-3 lattice and read as 0
    for x in range(-4, 5):
        for c in (0, 1):
            assert state.amplitude(c, x, x) == pytest.approx(
                expected.get((x, c), 0.0), abs=1e-12
            )


@pytest.mark.parametrize("t", [1, 5, 12, 25])
def test_dense_off_diagonal_mass_is_zero(t):
    state = dense_evolve(COIN_RIGHT, t)
    assert state.amplitudes.shape == (2, 2 * t + 1, 2 * t + 1)
    assert state.off_diagonal_mass() < 1e-14
    assert state.norm() == pytest.approx(1.0, abs=1e-14)


def test_dense_norm_is_conserved():
    state = dense_evolve(PRESETS["4e"], 40)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_dense_lattice_grows_with_the_walk():
    # the step-t state covers [-t, t]^2 exactly; sites past it read as 0
    for t, state in enumerate(dense_trajectory(PRESETS["4e"], 6)):
        assert state.step == state.lattice_radius == t
        assert state.amplitudes.shape == (2, 2 * t + 1, 2 * t + 1)
        assert state.amplitude(0, t + 1, t + 1) == state.amplitude(1, -t - 1, -t - 1) == 0j
    assert dense_evolve(COIN_RIGHT, 2).amplitude(0, 2, 2) == pytest.approx(0.5, abs=1e-15)


def test_reduced_entropy_worked_values():
    def entropy(t, outcome):
        return reduced_entropy(dense_evolve(COIN_RIGHT, t), outcome)

    assert entropy(1, CoinOutcome.C0) == pytest.approx(0.0, abs=1e-9)
    assert entropy(2, CoinOutcome.C0) == pytest.approx(1.0, abs=1e-9)
    entropy3 = entropy(3, CoinOutcome.C0)
    assert entropy3 == pytest.approx(1.2516, abs=5e-5)
    assert entropy3 == pytest.approx(1.2516291673878228, abs=1e-9)
    assert entropy(3, CoinOutcome.C1) == pytest.approx(1.0, abs=1e-9)


def test_reduced_entropy_rejects_empty_branch():
    state = dense_evolve(COIN_RIGHT, 0)
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
        assert dense_error(coin, t_max) < 1e-10


def test_path_sum_matches_engine():
    coins = list(PRESETS.values())
    coins.extend(random_coin_states(3, seed=7))
    for coin in coins:
        tables = evolve_tables(coin, 8)
        for t in range(9):
            assert max_table_diff(tables[t], path_sum_table(coin, t)) < 1e-12


def test_streamed_path_sum_tables_are_each_depth_alone():
    # one enumeration serves every depth, bit for bit: same keys, same order,
    # same floats
    for coin in (*PRESETS.values(), *random_coin_states(5, seed=19)):
        tables = list(path_sum_tables(coin, 12))
        assert len(tables) == 13
        for t, table in enumerate(tables):
            alone = path_sum_table(coin, t)
            assert list(table.items()) == list(alone.items()), t


@pytest.mark.parametrize("t_max", [-1, MAX_PATH_SUM_STEPS + 1, 10**9])
def test_path_sum_tables_reject_a_depth_before_enumerating(monkeypatch, t_max):
    def must_not_enumerate(*args):
        raise AssertionError("enumerated before the depth was checked")

    monkeypatch.setattr(twinwalk.oracle, "_path_sums", must_not_enumerate)
    with pytest.raises(ValueError, match=f"0 <= t <= {MAX_PATH_SUM_STEPS}, got {t_max}"):
        path_sum_tables(COIN_RIGHT, t_max)


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
    states = list(dense_trajectory(coin, 12))
    assert [state.step for state in states] == list(range(13))
    for t, state in enumerate(states):
        assert state.lattice_radius == t
        assert state.amplitudes.shape == (2, 2 * t + 1, 2 * t + 1)
        assert np.array_equal(state.amplitudes, dense_evolve(coin, t).amplitudes)


@pytest.mark.parametrize(
    "coin,t",
    [(COIN_RIGHT, -1), (CoinSpinor(1.0, 1.0), 3)],
    ids=["negative-steps", "unnormalized-coin"],
)
def test_dense_trajectory_rejects_like_dense_evolve(coin, t):
    with pytest.raises(ValueError) as streamed:
        dense_trajectory(coin, t)
    with pytest.raises(ValueError) as single:
        dense_evolve(coin, t)
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


#: numpy's complex dtypes and their aliases, by name
COMPLEX_DTYPES = {
    "complex64", "complex128", "complex256", "complex_", "complexfloating",
    "csingle", "cdouble", "clongdouble", "cfloat", "clongfloat",
}


def complex_dtype_names(source: str) -> list[str]:
    """Complex dtypes a module names: as an attribute or bare name, as a
    string, or as the builtin ``complex`` passed for ``dtype``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in COMPLEX_DTYPES:
            found.append(node.attr)
        elif isinstance(node, ast.Name) and node.id in COMPLEX_DTYPES:
            found.append(node.id)
        elif isinstance(node, ast.Constant) and node.value in COMPLEX_DTYPES:
            found.append(node.value)
        elif (
            isinstance(node, ast.keyword)
            and node.arg == "dtype"
            and isinstance(node.value, ast.Name)
            and node.value.id == "complex"
        ):
            found.append("dtype=complex")
    return found


def test_only_the_oracle_names_a_complex_dtype():
    # one state representation: the engine, the measurement and every check
    # read the one real run; only the independent references go complex
    package = Path(twinwalk.oracle.__file__).parent
    assert complex_dtype_names(Path(twinwalk.oracle.__file__).read_text(encoding="utf-8"))
    for path in sorted(package.glob("*.py")):
        if path.name != "oracle.py":
            found = complex_dtype_names(path.read_text(encoding="utf-8"))
            assert not found, f"{path.name} names {found}"


def full_matrix_entropy(state, outcome):
    """Entropy from eigvalsh of the uncropped reduced density matrix."""
    matrix = state.amplitudes[outcome.value]
    normalized = matrix / math.sqrt(float(np.sum(np.abs(matrix) ** 2)))
    eigenvalues = np.linalg.eigvalsh(normalized @ normalized.conj().T)
    eigenvalues = eigenvalues[eigenvalues > EIGVAL_EPS]
    return max(0.0, float(-np.sum(eigenvalues * np.log2(eigenvalues))))


def explicit_weight(matrix) -> float:
    return float(np.sum(matrix.real**2 + matrix.imag**2))


#: unit roundoff of float64
U = 2.0**-53


def rounded_weight(matrix) -> float:
    """sum |z|^2 over ``matrix`` summed exactly, as rationals, and rounded
    once to a float."""
    values = matrix[matrix != 0]
    return float(sum(Fraction(x) ** 2 for x in (*values.real.tolist(), *values.imag.tolist())))


def sum_bound(roundings: int, products: int, total: float) -> float:
    """Largest |computed - ``total``| for a computed sum of ``products``
    nonnegative products whose exactly rounded sum is ``total``, when each
    product passes through at most ``roundings`` roundings, in any order.

    Each rounding is a factor 1 + d, |d| <= U, so the computed sum is within
    gamma_k S of the exact S, gamma_k = k U / (1 - k U) (Higham, Accuracy
    and Stability, eq. 4.4); ``total`` is within U S of S, and the extra U
    covers the second-order terms for k U < 1e-12.  A product that
    underflows is off by up to 2^-1075 absolute instead, which the roundings
    after it may grow by a factor 1 + gamma_k; 2^-1074 per product covers
    both.
    """
    assert roundings * U < 1e-12
    return (roundings + 2) * U * total + products * 2.0**-1074


def dot_bound(matrix, total: float) -> float:
    """``sum_bound`` of ``np.vdot(matrix, matrix).real``: 2 n real products
    over n nonzero entries, each rounded once and added at most 2 n - 1
    times, in whatever order the BLAS takes."""
    products = 2 * np.count_nonzero(matrix)
    return sum_bound(products, products, total)


def explicit_bound(matrix, total: float) -> float:
    """``sum_bound`` of ``explicit_weight(matrix)``: each of n nonzero
    entries is re^2 + im^2, so a product is rounded as a square and in that
    add, then added at most n - 1 times: n + 1 roundings."""
    n = np.count_nonzero(matrix)
    return sum_bound(n + 1, 2 * n, total)


@given(coin=coin_spinors(), steps=st.integers(0, 40))
@settings(deadline=None, max_examples=60)
def test_dense_weights_match_an_explicit_sum(coin, steps):
    """``norm``, ``branch_probability`` and the weights ``dense_branches``
    returns, each one ``vdot`` pass, and sum(re^2 + im^2) each against the
    exactly rounded sum of |amplitude|^2 on the dense states of random
    coins, within the bound that summation's roundings allow; and each
    branch entropy against the uncropped reduced density matrix's.

    The bound (``sum_bound``) is (k + 2) eps/2 times the weight for a sum
    whose products each see k roundings.  Over 61,500 states (500 random
    coins under each of seeds 20100901, 7 and 12345, t <= 40) the largest
    difference was 0.52 of its bound.  The fixed 4.5e-16 between two
    computed sums that this replaces was exceeded on 5 of those states.
    """
    state = dense_evolve(coin, steps)
    amplitudes = state.amplitudes
    total = rounded_weight(amplitudes)
    assert abs(state.norm() - total) <= dot_bound(amplitudes, total)
    assert abs(explicit_weight(amplitudes) - total) <= explicit_bound(amplitudes, total)
    for outcome, (dense_weight, dense_entropy) in zip(
        (CoinOutcome.C0, CoinOutcome.C1), dense_branches(state)
    ):
        matrix = amplitudes[outcome.value]
        weight = rounded_weight(matrix)
        assert abs(state.branch_probability(outcome) - weight) <= dot_bound(matrix, weight)
        assert abs(dense_weight - weight) <= dot_bound(matrix, weight)
        assert abs(explicit_weight(matrix) - weight) <= explicit_bound(matrix, weight)
        assert (dense_entropy is None) == (dense_weight <= PROB_EPS)
        if weight > PROB_EPS:
            assert reduced_entropy(state, outcome) == dense_entropy == pytest.approx(
                full_matrix_entropy(state, outcome), abs=1e-12
            )


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
    # the two branches' rows and columns differ, so the paired crop keeps
    # rows and columns that are zero in one branch
    state = DenseTensorState(step=radius, amplitudes=amplitudes)
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


@pytest.mark.parametrize("start", [0, 1])
def test_dense_trajectory_is_the_exact_run(start):
    # two oracles, no engine: the growing lattice holds the whole walk, its
    # diagonal at site -t + 2k (index 2k) is the integer row times 2^(-t/2)
    # and every other entry of the tensor is exactly 0
    coin = (COIN_RIGHT, COIN_LEFT)[start]
    steps = 60
    pairs = zip(dense_trajectory(coin, steps), exact_run(steps, start), strict=True)
    for t, (state, rows) in enumerate(pairs):
        assert state.amplitudes.shape == (2, 2 * t + 1, 2 * t + 1)
        want = np.zeros((2, 2 * t + 1))
        want[:, ::2] = np.array(rows) * 2.0 ** (-t / 2)
        diagonal = np.diagonal(state.amplitudes, axis1=1, axis2=2)
        assert np.max(np.abs(diagonal - want)) <= 1e-14, t
        assert state.off_diagonal_mass() == 0.0, t


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


def assert_distribution_matches_exact(got, coin, rows):
    want = exact_distribution(coin, *rows)
    assert set(got) <= set(want)
    for x, p in want.items():
        assert abs(got.get(x, 0.0) - p) <= 1e-15, x


def test_timelines_match_the_exact_run():
    """Weights, entropies, supports and absent branches of the five presets
    (T = 1000), and of 4e and a random coin at T = 2500, where the flush has
    long been acting, against exact rationals of the integer run; and the
    final one-walker distributions of the five presets at both T, and of the
    random coin at T = 2500, to 1e-15.  Shorter runs' distributions are held
    to the exact ones in ``test_experiment``."""
    wanted = set(EXACT_STEPS) | {2499, 2500}
    rows = {t: row for t, row in enumerate(exact_run(2500)) if t in wanted}
    coins = list(PRESETS.values())
    for coin, (timeline, distribution) in zip(coins, timelines_and_distributions(coins, 1000)):
        assert_matches_exact([timeline[t - 1] for t in EXACT_STEPS], coin, rows)
        assert_distribution_matches_exact(distribution, coin, rows[1000])
    long_coins = [*PRESETS.values(), *random_coin_states(1, seed=2500)]
    for coin, (timeline, distribution) in zip(long_coins, timelines_and_distributions(long_coins, 2500)):
        if coin in (PRESETS["4e"], long_coins[-1]):
            assert_matches_exact(timeline[-2:], coin, rows)
        assert_distribution_matches_exact(distribution, coin, rows[2500])

