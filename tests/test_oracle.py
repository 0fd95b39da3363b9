import ast
import itertools
import math
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinwalk.oracle
from twinwalk import PRESETS, CoinOutcome, CoinSpinor, timelines_and_distributions
from twinwalk.oracle import (
    EIGVAL_EPS,
    MAX_PATH_SUM_STEPS,
    _branch_numerators,
    dense_branches,
    dense_marginals,
    dense_trajectory,
    exact_branches,
    exact_distribution,
    exact_run,
    path_sum_table,
)
from twinwalk.states import PROB_EPS
from twinwalk.verification import COINS_PER_RUN, DEFAULT_SEED, random_coin_states
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
    """Entropy from eigvalsh of the whole reduced density matrix of a
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
    gives branch c of ``coin`` over walk runs: the real part of the trace of
    M M^dagger, M = alpha R0 + beta R1, summed over the m rows nonzero in
    some run matrix.  On the walk each of those rows, and each nonzero
    column, holds one entry of the runs' joint pattern, which is asserted
    here, so M M^dagger is diagonal and each of its diagonal entries is
    the product of one complex term with its conjugate.

    Expanded, the weight is a sum of signed real products of four factors
    (one real or imaginary part of alpha or beta and one of an entry of R0
    or R1, twice).  Each passes through at most m + 9 roundings, in
    whatever order the BLAS takes: four in each of its two parts of M (a
    product, then at most three adds over the four real products of
    alpha R0 + beta R1), two in a diagonal entry of M M^dagger (a product,
    then one add over the two real products of a row's one complex term)
    and m - 1 in the sum of the diagonal entries.  Each rounding is a
    factor 1 + d, |d| <= U, so the computed sum is within gamma_K of the
    exact one times the sum of the products' absolute values,
    gamma_K = K U / (1 - K U) (Higham, Accuracy and Stability, eq. 3.4).
    By Cauchy-Schwarz each of the real and imaginary
    parts of an entry of M holds at most |alpha| |A| + |beta| |B| of
    absolute value, so that sum is at most 2 sum (|alpha| |A| + |beta| |B|)^2.
    The exactly rounded weight is within U of the exact one times that sum,
    and a further U covers the second-order terms and the rounding of the
    sum itself.  A product that underflows is off by up to 2^-1075 absolute
    instead; 2^-1074 for each of 96 m two-factor products covers the ten
    that each of a branch's at most m entries forms.
    """
    nonzero = runs.any(axis=(0, 1))
    m = np.count_nonzero(nonzero.any(axis=1))
    assert np.count_nonzero(nonzero) == m == np.count_nonzero(nonzero.any(axis=0))
    magnitude = 2 * float(np.sum(
        (abs(coin.amp0) * np.abs(runs[0, c]) + abs(coin.amp1) * np.abs(runs[1, c])) ** 2
    ))
    roundings = m + 9
    assert roundings * U < 1e-12
    return (roundings + 2) * U * magnitude + 96 * m * 2.0**-1074


@given(coin=coin_spinors(), steps=st.integers(0, 40))
@settings(deadline=None, max_examples=60)
def test_dense_weights_match_an_explicit_sum(coin, steps):
    """The weights ``dense_branches`` returns, each the trace of a branch's
    unnormalized reduced density matrix, against the exactly rounded sum of
    |alpha run0 + beta run1|^2 over the branch, within the bound that the
    trace's roundings allow (``trace_bound``); and each branch entropy
    against the whole reduced density matrix's of the coin's state.

    Over 61,500 states (500 random coins under each of seeds 20100901, 7
    and 12345, t <= 40) the largest difference was 0.11 of its bound.
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
    # the four matrices' rows and columns differ, so the rows and columns
    # of their joint pattern include some that are zero in some of them
    coins = [COIN_RIGHT, *random_coin_states(3, seed=seed)]
    for coin, branches in zip(coins, dense_branches(runs, coins), strict=True):
        state = coin_state(coin, runs)
        for c, (weight, entropy) in enumerate(branches):
            assert weight == pytest.approx(float(np.sum(np.abs(state[c]) ** 2)), rel=1e-13)
            assert entropy > 1.0
            assert entropy == pytest.approx(full_matrix_entropy(state[c]), abs=1e-12)


#: the kinds of pattern ``run_patterns`` draws
PATTERN_KINDS = ("diagonal", "blocks", "dense", "linked", "absent")


@st.composite
def run_patterns(draw, kinds=PATTERN_KINDS):
    """(2, 2, n, n) runs whose joint nonzero pattern, over all four
    matrices, is block diagonal under drawn permutations of the rows and of
    the columns, with some rows and columns zero throughout: every block
    1 x 1 ("diagonal"), one block ("dense"), or drawn blocks, each of its
    own shape ("blocks").  "linked" adds one entry that joins two blocks in
    one of the four matrices only, and "absent" zeroes some of the matrices,
    as an absent branch is zero in both runs.  ``kinds`` narrows the draw."""
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(2 if kind == "linked" else 1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "diagonal":
        count = draw(st.integers(1, n))
        sizes = [np.ones(count, dtype=int)] * 2
    else:
        count = 1 if kind == "dense" else draw(st.integers(2 if kind == "linked" else 1, n))
        # each block's rows and columns, at least one of each, n at most
        sizes = [
            1 + np.bincount(rng.integers(count, size=rng.integers(n - count + 1)), minlength=count)
            for _ in range(2)
        ]
    row_blocks, column_blocks = (
        np.split(rng.permutation(n)[: sum(size)], np.cumsum(size)[:-1]) for size in sizes
    )
    runs = np.zeros((2, 2, n, n), dtype=np.complex128)
    for rows, columns in zip(row_blocks, column_blocks):
        shape = (2, 2, len(rows), len(columns))
        block = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        runs[:, :, rows[:, None], columns[None, :]] = block
    if kind == "linked":
        start, c = rng.integers(2, size=2)
        runs[start, c, row_blocks[0][0], column_blocks[1][0]] = rng.normal() + 1j * rng.normal()
    if kind == "absent":
        runs[rng.random((2, 2)) < 0.5] = 0.0
    return runs


def spectrum_entropy(eigenvalues):
    """-sum q log2 q over the eigenvalues above EIGVAL_EPS, as
    ``dense_branches`` sums it."""
    kept = eigenvalues[eigenvalues > EIGVAL_EPS]
    return max(0.0, float(-np.sum(kept * np.log2(kept))))


def assert_matches_whole_matrices(runs, coins, branches_of_coins):
    """Each coin's branches, as ``dense_branches`` gives them, against
    ``eigvalsh`` of each branch's whole reduced density matrix M M^dagger,
    M = alpha R0 + beta R1: the weight (its trace) within 1e-13 relative,
    the entropy within 1e-14, and a branch absent on one side only if on
    both."""
    for coin, branches in zip(coins, branches_of_coins, strict=True):
        state = coin_state(coin, runs)
        for c, (weight, entropy) in enumerate(branches):
            rho = state[c] @ state[c].conj().T
            want = float(np.trace(rho).real)
            assert abs(weight - want) <= 1e-13 * want
            assert (entropy is None) == (want <= PROB_EPS)
            if entropy is not None:
                whole = spectrum_entropy(np.linalg.eigvalsh(rho) / want)
                assert abs(entropy - whole) <= 1e-14


@given(runs=run_patterns(), coins=st.lists(coin_spinors(), min_size=1, max_size=3))
@settings(deadline=None, max_examples=300)
def test_block_spectra_match_the_full_matrices(runs, coins):
    """The weights and entropies ``dense_branches`` finds, on any pattern,
    match those of each branch's whole reduced density matrix."""
    assert_matches_whole_matrices(runs, coins, dense_branches(runs, coins))


def counted_dense_branches(runs, coins):
    """``dense_branches(runs, coins)`` and the number of ``eigvalsh`` calls
    it made."""
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
        branches = dense_branches(runs, coins)
    return branches, eigvalsh.call_count


def test_dense_branches_diagonalize_nothing_on_the_walk():
    # every nonzero row and column of the walk's runs holds one entry, so
    # each reduced density matrix is diagonal and its eigenvalues are read
    # off its diagonal: no step of the sweep calls eigvalsh
    coins = [*PRESETS.values(), *random_coin_states(5, seed=DEFAULT_SEED)]
    calls = sum(counted_dense_branches(runs, coins)[1] for runs in dense_trajectory(60))
    assert calls == 0


@pytest.mark.parametrize("kind, calls", [("diagonal", 0), ("linked", 1)])
@given(data=st.data())
@settings(deadline=None, max_examples=100)
def test_only_a_pattern_with_a_shared_row_or_column_is_diagonalized(kind, calls, data):
    """A pattern of 1 x 1 blocks is read off the diagonal, with no
    ``eigvalsh`` call; a "linked" pattern, one of whose rows holds two
    entries, takes exactly one, and both still match the whole matrices."""
    runs = data.draw(run_patterns(kinds=(kind,)))
    coins = data.draw(st.lists(coin_spinors(), min_size=1, max_size=3))
    branches, made = counted_dense_branches(runs, coins)
    assert made == calls
    assert_matches_whole_matrices(runs, coins, branches)


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


@given(runs=run_patterns(), coins=st.lists(coin_spinors(), min_size=1, max_size=3))
@settings(deadline=None, max_examples=300)
def test_dense_marginals_are_each_coin_states_marginal_on_any_pattern(runs, coins):
    """As above, on rows with several entries and on absent run matrices:
    each site's weight against the exactly rounded sum of |alpha R0 +
    beta R1|^2 over its row (``exact_weight``), within 1e-15 of the row's
    magnitude sum (|alpha| |R0| + |beta| |R1|)^2 over coin and walker 2.
    That is at most 2 on the walk, where the bound above is absolute, and
    the scale that mixing and squaring round against on unnormalized runs.
    A product that underflows is off by up to 2^-1075 absolute instead;
    2^-1074 for each of the ten products of each of a row's 2 n terms
    covers them.  Over 30,000 drawn examples the largest difference was
    0.52 of this bound."""
    n = runs.shape[-1]
    for coin, marginal in zip(coins, dense_marginals(runs, coins), strict=True):
        magnitudes = np.sum(
            (abs(coin.amp0) * np.abs(runs[0]) + abs(coin.amp1) * np.abs(runs[1])) ** 2, axis=(0, 2)
        )
        assert marginal.shape == (n,)
        for i, (p, magnitude) in enumerate(zip(marginal.tolist(), magnitudes.tolist())):
            want = exact_weight(coin, runs[0][:, i], runs[1][:, i])
            assert abs(p - want) <= 1e-15 * magnitude + 20 * n * 2.0**-1074, i


#: the five presets and five seeded random coins
MIRROR_COINS = (*PRESETS.values(), *random_coin_states(5, seed=60))


def mirror_coin(coin: CoinSpinor) -> CoinSpinor:
    """(beta, -alpha) for (alpha, beta): |alpha|^2 and |beta|^2 trade places
    and 2 Re(alpha conj(beta)) changes sign, so its branch c is exactly the
    branch 1 - c of (alpha, beta)."""
    return CoinSpinor(coin.amp1, -coin.amp0)


def swapped_numerators(coin: CoinSpinor, n0: list[int], n1: list[int]):
    """``_branch_numerators`` of ``coin`` with its two branches swapped."""
    w0, w1, denominator = _branch_numerators(coin, n0, n1)
    return w1, w0, denominator


def test_mirror_coin_swaps_the_exact_branches():
    # as integers, at every site of every t <= 60: branch 1 is read at the
    # mirrored index in both, so the identity holds index by index
    for n0, n1 in exact_run(60):
        for coin in MIRROR_COINS:
            assert _branch_numerators(mirror_coin(coin), n0, n1) == swapped_numerators(coin, n0, n1)


def test_swapping_the_amplitudes_alone_is_no_mirror():
    # the negative control: (beta, alpha) keeps the sign of
    # 2 Re(alpha conj(beta)), so where that is not 0 the branches differ
    rows = list(exact_run(60))
    for coin in MIRROR_COINS[len(PRESETS):]:
        assert (coin.amp0 * coin.amp1.conjugate()).real != 0.0
        swapped = CoinSpinor(coin.amp1, coin.amp0)
        assert any(
            _branch_numerators(swapped, *row) != swapped_numerators(coin, *row) for row in rows
        )


def test_engine_records_of_the_mirror_coin_swap_branches():
    # each list of coins from its own run, at T = 2000: there the mirror
    # coins' mixing rows come in the other order, yet every record is the
    # original's with its branches swapped, bitwise
    def swapped(record):
        return record._replace(
            p0=record.p1, p1=record.p0,
            entropy0=record.entropy1, entropy1=record.entropy0,
            ratio0=record.ratio1, ratio1=record.ratio0,
            support0=record.support1, support1=record.support0,
        )

    coins = list(MIRROR_COINS)
    runs = (timelines_and_distributions(c, 2000) for c in (coins, list(map(mirror_coin, coins))))
    for (records, _), (mirrored, _) in zip(*runs, strict=True):
        assert list(map(repr, records)) == [repr(swapped(record)) for record in mirrored]


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

