import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinwalk.evolution
from twinwalk import PRESETS, CoinSpinor, run_timeline, timelines_and_distributions
from twinwalk.evolution import (
    FLUSH_FLOOR,
    FLUSH_FROM,
    H,
    SCALE_STEPS,
    block_steps,
    branch_blocks,
    row_exponent,
)
from twinwalk.oracle import dense_branches, dense_trajectory
from twinwalk.states import NormalizationError
from testutil import (
    coin_spinors,
    dense_diagonal,
    dense_norm,
    dense_states,
    engine_trajectory,
    evolve_tables,
    exact_rows,
    max_table_diff,
    off_diagonal_mass,
    run_rows,
    table_of,
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
    differently from the run, by about one ulp a step.
    """
    return 4 * (t + 1) * np.finfo(np.float64).eps


def test_hadamard_columns():
    # one step from a basis coin reads off that column of the coin matrix:
    # coin 0 lands one site right (index 1), coin 1 one site left (index 0)
    for coin, column in ((COIN_RIGHT, (S, S)), (COIN_LEFT, (S, -S))):
        *_, (a0, a1) = engine_trajectory(coin, 1)
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
    lengths = [(len(a0), len(a1)) for a0, a1 in engine_trajectory(COIN_RIGHT, 4)]
    assert lengths == [(t + 1, t + 1) for t in range(5)]


def test_evolve_zero_steps_returns_initial():
    coin = CoinSpinor(S, -1j * S)
    pairs = [(a0.tolist(), a1.tolist()) for a0, a1 in engine_trajectory(coin, 0)]
    assert pairs == [([coin.amp0], [coin.amp1])]


def test_evolve_rejects_negative_count():
    with pytest.raises(ValueError, match="non-negative"):
        next(branch_blocks(-1))


def test_evolve_snapshots_match_repeated_step():
    # a shorter run's steps are exactly the first steps of a longer run
    short = list(run_rows(3))
    long = itertools.islice(run_rows(10), 4)
    for (t, s0, s1), (u, l0, l1) in zip(short, long, strict=True):
        assert t == u and np.array_equal(s0, l0) and np.array_equal(s1, l1)
    assert max_table_diff(evolve_tables(COIN_RIGHT, 3)[3], dict(THREE_STEP)) < 1e-12


def test_norm_conserved_along_1000_step_trajectory():
    # the run from |0> is A; its coin-1 row is B0 mirrored, with the same norm
    drift = max(abs(norm(a0, b0) - 1.0) for _, a0, b0 in run_rows(1000))
    assert drift < 1e-12


def test_single_walker_first_step():
    # the one-walker walk is the same run, read as one walker's sites
    *_, (a0, a1) = engine_trajectory(COIN_RIGHT, 1)
    table = {(2 * k - 1, c): amp for c, amps in enumerate((a0, a1)) for k, amp in enumerate(amps)}
    assert max_table_diff(table, dict(ONE_STEP)) < 1e-12


def test_single_walker_balanced_coin_symmetric_at_1000_steps():
    coin = CoinSpinor(S, 1j * S)
    ((_, dist),) = timelines_and_distributions([coin], 1000)
    for x, p in dist.items():
        assert abs(p - dist.get(-x, 0.0)) < 1e-12


@pytest.mark.parametrize("t", range(1, 11))
def test_all_right_amplitude_is_power_of_half(t):
    table = evolve_tables(COIN_RIGHT, t)[t]
    assert table[(t, 0)] == pytest.approx(2 ** (-t / 2), abs=1e-12)


@given(coin=coin_spinors(), steps=st.integers(0, 12))
@settings(deadline=None, max_examples=60)
def test_step_is_linear(coin, steps):
    # the run from a0|0> + a1|1> is a0 (run from |0>) + a1 (run from |1>):
    # the coin's arrays composed from the engine's rows against the exact
    # integer runs from |0> and from |1>, each run on its own
    runs = zip(
        engine_trajectory(coin, steps),
        exact_rows(steps, 0),
        exact_rows(steps, 1),
    )
    for (a0, a1), (_, r0, r1), (_, l0, l1) in runs:
        assert np.max(np.abs(a0 - (coin.amp0 * r0 + coin.amp1 * l0))) < 1e-12
        assert np.max(np.abs(a1 - (coin.amp0 * r1 + coin.amp1 * l1))) < 1e-12


@given(coin=coin_spinors(), steps=st.integers(min_value=0, max_value=25))
@settings(deadline=None)
def test_two_walker_amplitudes_equal_single_walker(coin, steps):
    # the dense oracle moves two walkers on the full product lattice; its
    # diagonal must hold the one-walker walk's amplitudes, to rounding, and
    # nothing may leave it
    states = zip(engine_trajectory(coin, steps), dense_states(coin, steps))
    for t, ((a0, a1), dense) in enumerate(states):
        assert np.max(np.abs(dense_diagonal(dense, t) - np.array([a0, a1]))) <= rounding(t)
        assert off_diagonal_mass(dense) == 0.0


def test_mirror_symmetry_between_opposite_basis_coins():
    # the engine's run from |0> against the exact integer run from |1>
    right = evolve_tables(COIN_RIGHT, 12)
    left = [table_of(a0, a1) for _, a0, a1 in exact_rows(12, 1)]
    for t in range(13):
        keys = {(x, c) for x, c in right[t]} | {(-x, 1 - c) for x, c in left[t]}
        for x, c in keys:
            assert abs(right[t].get((x, c), 0j)) == pytest.approx(
                abs(left[t].get((-x, 1 - c), 0j)), abs=1e-12
            )


@given(coin=coin_spinors(), steps=st.integers(min_value=0, max_value=40))
@settings(deadline=None, max_examples=40)
def test_trajectory_layout_matches_dense_diagonal(coin, steps):
    """Index k of the step-t arrays holds site -t + 2k of the dense oracle."""
    states = dense_states(coin, steps)
    arrays = engine_trajectory(coin, steps)
    for t, (dense, (a0, a1)) in enumerate(zip(states, arrays, strict=True)):
        assert len(a0) == len(a1) == t + 1
        diagonal = dense_diagonal(dense, t)
        assert np.max(np.abs(diagonal - np.array([a0, a1]))) <= rounding(t)
        # no dense mass outside the sites the layout stores
        assert np.sum(np.abs(diagonal) ** 2) == pytest.approx(dense_norm(dense), abs=1e-14)


def test_trajectory_rejects_bad_input():
    with pytest.raises(ValueError):
        next(branch_blocks(-1))
    with pytest.raises(ValueError):
        run_timeline(COIN_RIGHT, 0)
    with pytest.raises(NormalizationError):
        run_timeline(CoinSpinor(1.0, 1.0), 3)


@pytest.mark.parametrize(
    "n, k", [(0, 1), (1, 1), (3, 3), (90, 90), (1000, 16), (2000, 8), (4095, 4), (4096, 3), (10**6, 1)]
)
def test_block_steps_follow_the_block_budget(n, k):
    # K float64 rows of both components at full width fit BLOCK_BYTES, 1 <= K <= n
    assert block_steps(n) == k


def full_rows(first, lo, rows):
    """Each row of a ``branch_blocks`` array placed in a zero row of its step."""
    for j, row in enumerate(rows):
        full = np.zeros(first + j + 1)
        stop = min(lo + len(row), len(full))
        full[lo:stop] = row[: stop - lo]
        yield full


def per_step_reference(n):
    """The run one step at a time over whole rows, as ``branch_blocks`` must
    reproduce it bit for bit: the same sums, signs, rescaling and flush, with
    the flush applied to every entry rather than worked in from the edges.

    Yields the A0 and B0 rows of each step, as stored.
    """
    a0 = np.zeros(n + 1)
    c1 = np.zeros(n + 1)  # (-1)^(t+1) A1
    a0[0] = 1.0
    yield a0[:1].copy(), c1[:1].copy()
    for t in range(1, n + 1):
        a, b = a0[:t].copy(), c1[:t].copy()
        a0[1 : t + 1], c1[:t] = (a - b, b + a) if t % 2 else (a + b, b - a)
        a0[0] = c1[t] = 0.0
        if row_exponent(t) == 0:
            a0[: t + 1] *= 2.0 ** -(SCALE_STEPS // 2)
            c1[: t + 1] *= 2.0 ** -(SCALE_STEPS // 2)
        if t >= FLUSH_FROM:
            floor = FLUSH_FLOOR * 2.0 ** (row_exponent(t) / 2)
            a0[np.abs(a0) < floor] = 0.0
            c1[np.abs(c1) < floor] = 0.0
        yield a0[: t + 1].copy(), c1[: t + 1][::-1].copy()


@pytest.mark.parametrize("n", [1500, 37])
def test_trajectory_is_bitwise_the_per_step_recurrence(n):
    # blocks, windows, the row a block starts from and the edge-wise flush
    # may not move a single entry of the run
    rows = (
        pair
        for first, lo, a0, b0 in branch_blocks(n)
        for pair in zip(full_rows(first, lo, a0), full_rows(first, lo, b0))
    )
    for (a0, b0), (r0, rb) in zip(rows, per_step_reference(n), strict=True):
        assert np.array_equal(a0, r0) and np.array_equal(b0, rb)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_trajectory_is_bytewise_the_per_step_recurrence_at_any_block_size(monkeypatch, k):
    # K = 1 blocks start from the row the last block wrote, in turn rows 1
    # and 2; K = 2 and 3 start from row K.  Through the flush's first steps,
    # every entry, the sign of each zero included, is the recurrence's.
    monkeypatch.setattr(twinwalk.evolution, "block_steps", lambda n: k)
    n = FLUSH_FROM + 40
    rows = (
        pair
        for first, lo, a0, b0 in branch_blocks(n)
        for pair in zip(full_rows(first, lo, a0), full_rows(first, lo, b0))
    )
    for (a0, b0), (r0, rb) in zip(rows, per_step_reference(n), strict=True):
        assert a0.tobytes() == r0.tobytes() and b0.tobytes() == rb.tobytes()


@pytest.mark.parametrize("n", [0, 1, 5, 90, 91, 1001])
def test_block_rows_are_zero_past_their_step(n):
    k = block_steps(n)
    expected_first = 0
    for first, lo, a0, b0 in branch_blocks(n):
        count, width = a0.shape
        assert first == expected_first
        assert count == (1 if first == 0 else min(k, n - first + 1))
        assert b0.shape == a0.shape and 0 <= lo and lo + width <= first + count
        for j in range(count):
            past = first + j + 1 - lo
            assert not a0[j, past:].any() and not b0[j, past:].any()
        expected_first = first + count
    assert expected_first == n + 1


def test_every_amplitude_is_zero_or_above_the_flush_floor():
    # the run is one fixed sequence of rows, so checking it through t = 2500
    # covers every run before the flush starts and well after it
    n = 2500
    for first, lo, a0, b0 in branch_blocks(n):
        for j, rows in enumerate(zip(a0, b0)):
            t = first + j
            # the rows carry the true amplitudes times 2^(m/2)
            floor = FLUSH_FLOOR * 2.0 ** (row_exponent(t) / 2)
            for row in rows:
                assert not np.any(np.abs(row[row != 0.0]) < floor), t
    # the flush acts: the last block's window no longer reaches the edges
    assert lo > 0 and lo + a0.shape[1] < n + 1


def test_mirror_sign_on_both_row_parities():
    # B0 is the coin-0 row of the run from |1>, on odd and even steps alike;
    # a wrong sign on one parity keeps every weight sum but not the entropies
    steps = 13
    dense = list(dense_states(COIN_LEFT, steps))
    for first, lo, a0, b0 in branch_blocks(steps):
        for j, row in enumerate(full_rows(first, lo, b0)):
            t = first + j
            true_row = row * 2.0 ** (-row_exponent(t) / 2)
            assert np.max(np.abs(true_row - dense_diagonal(dense[t], t)[0])) <= rounding(t), t
    coin = PRESETS["4e"]
    runs = list(dense_trajectory(steps))
    for record in run_timeline(coin, steps):
        ((_, entropy0), (_, entropy1)) = dense_branches(runs[record.step], [coin])[0]
        assert record.entropy0 == pytest.approx(entropy0, abs=1e-12)
        assert record.entropy1 == pytest.approx(entropy1, abs=1e-12)
