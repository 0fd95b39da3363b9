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
    EIGVAL_EPS,
    MAX_PATH_SUM_STEPS,
    dense_branches,
    dense_marginals,
    dense_trajectory,
    exact_branches,
    exact_distribution,
    exact_run,
    path_sum_table,
)
from twinwalk.states import PROB_EPS
from twinwalk.verification import COINS_PER_RUN, random_coin_states
from testutil import (
    coin_spinors,
    coin_state,
    dense_amplitude,
    dense_error,
    dense_marginal,
    dense_norm,
    dense_runs,
    dense_state,
    evolve_tables,
    max_table_diff,
    off_diagonal_mass,
)

S = math.sqrt(0.5)
E3 = S / 2
COIN_RIGHT = CoinSpinor(1.0, 0.0)
COIN_LEFT = CoinSpinor(0.0, 1.0)


def test_dense_one_step_amplitudes():
    state = dense_state(COIN_RIGHT, 1)
    assert dense_amplitude(state, 0, 1, 1) == pytest.approx(S, abs=1e-12)
    assert dense_amplitude(state, 1, -1, -1) == pytest.approx(S, abs=1e-12)
    assert dense_amplitude(state, 0, -1, -1) == 0.0
    assert dense_amplitude(state, 1, 1, -1) == 0.0
    assert dense_norm(state) == pytest.approx(1.0, abs=1e-12)


def test_dense_three_steps_match_worked_state():
    state = dense_state(COIN_RIGHT, 3)
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
            assert dense_amplitude(state, c, x, x) == pytest.approx(
                expected.get((x, c), 0.0), abs=1e-12
            )


@pytest.mark.parametrize("t", [1, 5, 12, 25])
def test_dense_off_diagonal_mass_is_zero(t):
    state = dense_state(COIN_RIGHT, t)
    assert state.shape == (2, 2 * t + 1, 2 * t + 1)
    assert off_diagonal_mass(state) < 1e-14
    assert dense_norm(state) == pytest.approx(1.0, abs=1e-14)


#: the Hadamard coin, as the dense oracle builds it
HADAMARD = np.array(((S, S), (S, -S)))


@pytest.mark.parametrize("x, y", [(-1, 1), (1, -1), (0, 1), (-1, 0), (1, 1)])
@pytest.mark.parametrize("c", [0, 1])
def test_dense_step_shifts_an_off_diagonal_seed(x, y, c):
    # one amplitude at (x, y) on sites [-1, 1]^2, 1 in the run from |0> and
    # i in the run from |1>: one step mixes the coin and moves coin 0 to
    # (x + 1, y + 1) and coin 1 to (x - 1, y - 1), on sites [-2, 2]^2, and
    # nothing else holds any amplitude
    runs = np.zeros((2, 2, 3, 3), dtype=np.complex128)
    runs[:, c, x + 1, y + 1] = 1.0, 1j
    stepped = twinwalk.oracle._dense_step(runs)
    assert stepped.shape == (2, 2, 5, 5)
    for start, value in enumerate((1.0, 1j)):
        want = np.zeros((2, 5, 5), dtype=np.complex128)
        want[0, x + 3, y + 3] = HADAMARD[0, c] * value
        want[1, x + 1, y + 1] = HADAMARD[1, c] * value
        assert np.array_equal(stepped[start], want), start


def test_dense_norm_is_conserved():
    state = dense_state(PRESETS["4e"], 40)
    assert dense_norm(state) == pytest.approx(1.0, abs=1e-12)


def test_dense_lattice_grows_with_the_walk():
    # the step-t runs cover [-t, t]^2 exactly; sites past them read as 0
    for t, runs in enumerate(dense_trajectory(6)):
        assert runs.shape == (2, 2, 2 * t + 1, 2 * t + 1)
        state = coin_state(PRESETS["4e"], runs)
        assert dense_amplitude(state, 0, t + 1, t + 1) == 0j
        assert dense_amplitude(state, 1, -t - 1, -t - 1) == 0j
    assert dense_amplitude(dense_state(COIN_RIGHT, 2), 0, 2, 2) == pytest.approx(0.5, abs=1e-15)


def test_reduced_entropy_worked_values():
    def entropy(t, outcome):
        (branches,) = dense_branches(dense_runs(t), [COIN_RIGHT])
        return branches[outcome.value][1]

    assert entropy(1, CoinOutcome.C0) == pytest.approx(0.0, abs=1e-9)
    assert entropy(2, CoinOutcome.C0) == pytest.approx(1.0, abs=1e-9)
    entropy3 = entropy(3, CoinOutcome.C0)
    assert entropy3 == pytest.approx(1.2516, abs=5e-5)
    assert entropy3 == pytest.approx(1.2516291673878228, abs=1e-9)
    assert entropy(3, CoinOutcome.C1) == pytest.approx(1.0, abs=1e-9)


def test_dense_branches_report_an_empty_branch_absent():
    # |0> at t = 0 has no coin-1 branch, nor has (|0> + |1>)/sqrt(2) at t = 1
    start, first = itertools.islice(dense_trajectory(1), 2)
    assert dense_branches(start, [COIN_RIGHT]) == [((1.0, 0.0), (0.0, None))]
    ((branch0, (weight1, entropy1)),) = dense_branches(first, [CoinSpinor(S, S)])
    assert branch0[0] == pytest.approx(1.0, abs=1e-15)
    assert weight1 <= PROB_EPS
    assert entropy1 is None


def test_path_sum_one_step():
    # table keys are (position, coin index)
    assert path_sum_table(COIN_RIGHT, 1).get((1, 0), 0j) == pytest.approx(S, abs=1e-12)


@pytest.mark.parametrize("t", range(1, 11))
def test_path_sum_all_right_history(t):
    amp = path_sum_table(COIN_RIGHT, t).get((t, 0), 0j)
    assert amp == pytest.approx(2 ** (-t / 2), abs=1e-12)


def test_path_sum_two_steps_coin_one_at_origin():
    assert path_sum_table(COIN_RIGHT, 2).get((0, 1), 0j) == pytest.approx(0.5, abs=1e-12)


def test_path_sum_zero_steps_returns_initial_coin():
    table = path_sum_table(CoinSpinor(S, 1j * S), 0)
    assert table.get((0, 0), 0j) == pytest.approx(S)
    assert table.get((0, 1), 0j) == pytest.approx(1j * S)


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


class _NoNumpy:
    """Stands in for numpy in ``oracle``: any use of it fails."""

    def __getattr__(self, name):
        raise AssertionError(f"enumerated before the depth was checked (np.{name})")


@pytest.mark.parametrize("t_max", [-1, MAX_PATH_SUM_STEPS + 1, 10**9])
def test_path_sum_tables_reject_a_depth_before_enumerating(monkeypatch, t_max):
    # the enumeration is numpy's work; none of it may start before the check
    monkeypatch.setattr(twinwalk.oracle, "np", _NoNumpy())
    with pytest.raises(ValueError, match=f"0 <= t <= {MAX_PATH_SUM_STEPS}, got {t_max}"):
        path_sum_table(COIN_RIGHT, t_max)


def test_mirror_symmetry_via_path_sum():
    for t in range(1, 11):
        right = path_sum_table(COIN_RIGHT, t)
        left = path_sum_table(COIN_LEFT, t)
        keys = {(x, c) for x, c in right} | {(-x, 1 - c) for x, c in left}
        for x, c in keys:
            assert abs(right.get((x, c), 0j)) == pytest.approx(
                abs(left.get((-x, 1 - c), 0j)), abs=1e-12
            )


@pytest.mark.parametrize("t_max", [-1, -10])
def test_dense_trajectory_rejects_a_negative_step_count(monkeypatch, t_max):
    def must_not_evolve(*args):
        raise AssertionError("evolved before the step count was checked")

    monkeypatch.setattr(twinwalk.oracle, "_dense_steps", must_not_evolve)
    with pytest.raises(ValueError, match=f"non-negative, got {t_max}"):
        dense_trajectory(t_max)


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


def full_matrix_entropy(matrix):
    """Entropy from eigvalsh of the uncropped reduced density matrix of a
    branch amplitude matrix."""
    normalized = matrix / math.sqrt(float(np.sum(np.abs(matrix) ** 2)))
    eigenvalues = np.linalg.eigvalsh(normalized @ normalized.conj().T)
    eigenvalues = eigenvalues[eigenvalues > EIGVAL_EPS]
    return max(0.0, float(-np.sum(eigenvalues * np.log2(eigenvalues))))


#: unit roundoff of float64
U = 2.0**-53


def exact_weight(coin, a, b) -> float:
    """sum |alpha a + beta b|^2 over two amplitude matrices, every product
    formed and summed exactly, as rationals, and rounded once to a float."""
    alpha = [Fraction(coin.amp0.real), Fraction(coin.amp0.imag)]
    beta = [Fraction(coin.amp1.real), Fraction(coin.amp1.imag)]
    nonzero = (a != 0) | (b != 0)
    total = Fraction(0)
    for x, y in zip(a[nonzero].tolist(), b[nonzero].tolist()):
        x, y = (Fraction(x.real), Fraction(x.imag)), (Fraction(y.real), Fraction(y.imag))
        re = alpha[0] * x[0] - alpha[1] * x[1] + beta[0] * y[0] - beta[1] * y[1]
        im = alpha[0] * x[1] + alpha[1] * x[0] + beta[0] * y[1] + beta[1] * y[0]
        total += re * re + im * im
    return float(total)


def trace_bound(coin, runs, c: int) -> float:
    """Largest |computed - exactly rounded| for the weight ``dense_branches``
    gives branch c of ``coin``: the real part of the trace of
    sum_ab w_ab R_a R_b^dagger, w_ab = c_a conj(c_b), over the m x k crop.

    Expanded, the weight is a sum of signed real products of four factors
    (one real or imaginary part each of c_a, c_b, R_a and R_b).  Each passes
    through at most 2 k + m + 6 roundings, in whatever order the BLAS takes:
    two in w_ab (a product and an add), 2 k in a diagonal entry of
    R_a R_b^dagger (a product, then at most 2 k - 1 adds over the 2 k real
    products of its k complex terms), two in w_ab times that entry, three in
    the sum over (a, b) and m - 1 in the trace.  Each rounding is a factor
    1 + d, |d| <= U, so the computed sum is within gamma_K of the exact one
    times the sum of the products' absolute values, gamma_K = K U / (1 - K U)
    (Higham, Accuracy and Stability, eq. 3.4); a complex product's real and
    imaginary parts together hold at most twice |z| |w| of absolute value,
    so that sum is at most 2 sum (|alpha| |A| + |beta| |B|)^2.  The exactly
    rounded weight is within U of the exact one times that sum, and a
    further U covers the second-order terms and the rounding of the sum
    itself.  A product that underflows is off by up to 2^-1075 absolute
    instead; 2^-1074 for each of the 96 m k two-factor products covers it.
    """
    nonzero = runs.any(axis=(0, 1))
    m, k = np.count_nonzero(nonzero.any(axis=1)), np.count_nonzero(nonzero.any(axis=0))
    magnitude = 2 * float(np.sum(
        (abs(coin.amp0) * np.abs(runs[0, c]) + abs(coin.amp1) * np.abs(runs[1, c])) ** 2
    ))
    roundings = 2 * k + m + 6
    assert roundings * U < 1e-12
    return (roundings + 2) * U * magnitude + 96 * m * k * 2.0**-1074


@given(coin=coin_spinors(), steps=st.integers(0, 40))
@settings(deadline=None, max_examples=60)
def test_dense_weights_match_an_explicit_sum(coin, steps):
    """The weights ``dense_branches`` returns, each the trace of a branch's
    unnormalized reduced density matrix, against the exactly rounded sum of
    |alpha run0 + beta run1|^2 over the branch, within the bound that the
    trace's roundings allow (``trace_bound``); and each branch entropy
    against the uncropped reduced density matrix's of the coin's state.

    Over 61,500 states (500 random coins under each of seeds 20100901, 7
    and 12345, t <= 40) the largest difference was 0.12 of its bound.
    """
    runs = dense_runs(steps)
    state = coin_state(coin, runs)
    (branches,) = dense_branches(runs, [coin])
    for c, (dense_weight, dense_entropy) in enumerate(branches):
        weight = exact_weight(coin, runs[0, c], runs[1, c])
        assert abs(dense_weight - weight) <= trace_bound(coin, runs, c)
        assert (dense_entropy is None) == (dense_weight <= PROB_EPS)
        if dense_entropy is not None:
            assert dense_entropy == pytest.approx(full_matrix_entropy(state[c]), abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_reduced_entropy_crop_matches_full_matrix(seed):
    rng = np.random.default_rng(seed)
    radius = 10
    n = 2 * radius + 1
    runs = np.zeros((2, 2, n, n), dtype=np.complex128)
    for start, c in itertools.product((0, 1), repeat=2):
        rows = rng.choice(n, size=6, replace=False)
        cols = rng.choice(n, size=9, replace=False)
        block = rng.normal(size=(6, 9)) + 1j * rng.normal(size=(6, 9))
        runs[start, c][np.ix_(rows, cols)] = block
    # the four matrices' rows and columns differ, so the shared crop keeps
    # rows and columns that are zero in some of them
    coins = [COIN_RIGHT, *random_coin_states(3, seed=seed)]
    for coin, branches in zip(coins, dense_branches(runs, coins), strict=True):
        state = coin_state(coin, runs)
        for c, (weight, entropy) in enumerate(branches):
            assert weight == pytest.approx(float(np.sum(np.abs(state[c]) ** 2)), rel=1e-13)
            assert entropy > 1.0
            assert entropy == pytest.approx(full_matrix_entropy(state[c]), abs=1e-12)


@st.composite
def density_matrix_stacks(draw):
    """A (C, 2, m, m) stack of trace-1 positive semidefinite matrices,
    block diagonal under one drawn permutation of the indices: every block
    1 x 1 ("diagonal"), one block ("dense"), or drawn blocks ("blocks");
    "linked" joins two blocks in one matrix of the stack only, and "absent"
    zeroes some matrices, as an absent branch is."""
    kind = draw(st.sampled_from(("diagonal", "blocks", "dense", "linked", "absent")))
    m = draw(st.integers(2 if kind == "linked" else 1, 12))
    count = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "diagonal":
        cuts = list(range(1, m))
    elif kind == "dense" or m == 1:
        cuts = []
    else:
        low = 1 if kind == "linked" else 0
        cuts = sorted(draw(st.sets(st.integers(1, m - 1), min_size=low)))
    order = rng.permutation(m)
    blocks = np.split(order, cuts)
    stack = np.zeros((count, 2, m, m), dtype=np.complex128)
    for block in blocks:
        size = len(block)
        g = rng.normal(size=(count, 2, size, size)) + 1j * rng.normal(size=(count, 2, size, size))
        stack[..., block[:, None], block[None, :]] = g @ g.conj().swapaxes(-1, -2)
    if kind == "linked":
        pair = np.array([blocks[0][0], blocks[1][0]])
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        stack[rng.integers(count), rng.integers(2)][np.ix_(pair, pair)] += np.outer(v, v.conj())
    stack /= np.trace(stack, axis1=2, axis2=3).real[:, :, None, None]
    if kind == "absent":
        stack[rng.random((count, 2)) < 0.5] = 0.0
    return stack


def spectrum_entropy(eigenvalues):
    """-sum q log2 q over the eigenvalues above EIGVAL_EPS, as
    ``dense_branches`` sums it."""
    kept = eigenvalues[eigenvalues > EIGVAL_EPS]
    return max(0.0, float(-np.sum(kept * np.log2(kept))))


@given(stack=density_matrix_stacks())
@settings(deadline=None, max_examples=300)
def test_block_spectra_match_the_full_matrices(stack):
    """The eigenvalues ``_eigenvalues`` finds block by block, sorted, against
    ``eigvalsh`` of each whole matrix, and the entropies they give, within
    1e-14.  Over 3,000 drawn stacks the largest eigenvalue gap was 6.7e-16
    and the largest entropy gap 2.7e-15."""
    got = twinwalk.oracle._eigenvalues(stack)
    want = np.linalg.eigvalsh(stack)
    assert got.shape == want.shape
    assert np.max(np.abs(np.sort(got, axis=-1) - want)) <= 1e-14
    m = stack.shape[-1]
    for blockwise, whole in zip(got.reshape(-1, m), want.reshape(-1, m)):
        assert abs(spectrum_entropy(blockwise) - spectrum_entropy(whole)) <= 1e-14


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
    # and every other entry of the tensor is exactly 0; the run from |1> is
    # evolved, so this holds its mirror identity to the integers too.  The
    # shift moves every site, so the zeros off the diagonal are a result
    # this test observes, not something built into the oracle
    steps = 60
    pairs = zip(dense_trajectory(steps), exact_run(steps, start), strict=True)
    for t, (runs, rows) in enumerate(pairs):
        state = runs[start]
        assert state.shape == (2, 2 * t + 1, 2 * t + 1)
        want = np.zeros((2, 2 * t + 1))
        want[:, ::2] = np.array(rows) * 2.0 ** (-t / 2)
        diagonal = np.diagonal(state, axis1=1, axis2=2)
        assert np.max(np.abs(diagonal - want)) <= 1e-14, t
        assert not state[:, ~np.eye(2 * t + 1, dtype=bool)].any(), t


#: the five presets and 12 seeded random coins: more than ``COINS_PER_RUN``,
#: so the stack is larger than any chunk ``run_checks`` measures
STACK_COINS = (*PRESETS.values(), *random_coin_states(12, seed=40))


def test_dense_branches_match_the_exact_reference():
    """Weights and entropies of 17 coins measured as one stack at every
    t <= 40, against ``exact_branches`` over ``exact_run``; a branch absent
    on one side is absent on both."""
    assert len(STACK_COINS) > COINS_PER_RUN
    pairs = zip(dense_trajectory(40), exact_run(40), strict=True)
    for t, (runs, rows) in enumerate(pairs):
        for coin, branches in zip(STACK_COINS, dense_branches(runs, STACK_COINS), strict=True):
            for (weight, entropy), (want_weight, want_entropy, _) in zip(
                branches, exact_branches(coin, *rows)
            ):
                assert abs(weight - want_weight) <= 1e-13, t
                assert (entropy is None) == (want_entropy is None), t
                if entropy is not None:
                    assert abs(entropy - want_entropy) <= 1e-13, t


def test_stacked_dense_branches_match_each_coin_alone():
    # a coin's branches do not depend on its place in the stack or on the
    # coins beside it
    for t, runs in enumerate(dense_trajectory(40)):
        stacked = dense_branches(runs, STACK_COINS)
        for coin, branches in zip(STACK_COINS, stacked, strict=True):
            (alone,) = dense_branches(runs, [coin])
            for (weight, entropy), (want_weight, want_entropy) in zip(branches, alone):
                assert abs(weight - want_weight) <= 1e-15, t
                assert (entropy is None) == (want_entropy is None), t
                if entropy is not None:
                    assert abs(entropy - want_entropy) <= 1e-15, t


def test_dense_marginals_are_each_coin_states_marginal():
    # walker 1's distribution of every coin's own state, formed bilinearly
    runs = dense_runs(30)
    for coin, marginal in zip(STACK_COINS, dense_marginals(runs, STACK_COINS), strict=True):
        want = dense_marginal(coin_state(coin, runs))
        assert marginal.shape == (61,)
        for x, p in enumerate(marginal.tolist(), start=-30):
            assert abs(p - want.get(x, 0.0)) <= 1e-15, x


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

