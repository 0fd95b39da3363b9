import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinwalk.evolution import trajectory
from twinwalk import (
    CoinOperator,
    CoinSpinor,
    CorrelatedWalkState,
    evolve,
    evolve_single,
    hadamard,
    new_correlated_state,
    new_single_state,
    norm,
    position_distribution,
    step,
    step_single,
)
from testutil import (
    amp_table,
    coin_operators,
    coin_spinors,
    diagonal_states_at,
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


def test_hadamard_columns():
    h = hadamard()
    assert (h.u00, h.u10) == pytest.approx((S, S))
    assert (h.u01, h.u11) == pytest.approx((S, -S))


def test_hadamard_is_involution():
    h = hadamard()
    square = (
        h.u00 * h.u00 + h.u01 * h.u10,
        h.u00 * h.u01 + h.u01 * h.u11,
        h.u10 * h.u00 + h.u11 * h.u10,
        h.u10 * h.u01 + h.u11 * h.u11,
    )
    assert square == pytest.approx((1.0, 0.0, 0.0, 1.0), abs=1e-15)


@pytest.mark.parametrize(
    "entries",
    [
        (1.0, 0.0, 0.0, 2.0),
        (1.0, 1.0, 1.0, -1.0),
        (0.5, 0.5, 0.5, 0.5),
    ],
)
def test_rejects_non_unitary_coin(entries):
    with pytest.raises(ValueError):
        CoinOperator(*entries)


def test_accepts_general_unitary_coin():
    theta = 0.3
    CoinOperator(
        math.cos(theta),
        math.sin(theta),
        -math.sin(theta),
        math.cos(theta),
    )


def test_general_coin_drives_a_valid_walk():
    rotation = CoinOperator(math.cos(1.1), math.sin(1.1), -math.sin(1.1), math.cos(1.1))
    state = new_correlated_state(COIN_RIGHT, 0)
    for _ in range(50):
        state = step(state, rotation)
    assert norm(state) == pytest.approx(1.0, abs=1e-12)
    assert state.step == 50


@pytest.mark.parametrize(
    "steps,expected", [(1, ONE_STEP), (2, TWO_STEP), (3, THREE_STEP)]
)
def test_short_walks_match_closed_form(steps, expected):
    table = evolve_tables(COIN_RIGHT, steps)[steps]
    assert max_table_diff(table, {k: complex(v) for k, v in expected.items()}) < 1e-12


def test_step_increments_counter():
    state = new_correlated_state(COIN_RIGHT, 0)
    assert step(state, hadamard()).step == 1


def test_evolve_zero_steps_returns_initial():
    state = new_correlated_state(COIN_RIGHT, 0)
    snapshots = evolve(state, hadamard(), 0)
    assert snapshots == [state]


def test_evolve_rejects_negative_count():
    with pytest.raises(ValueError):
        evolve(new_correlated_state(COIN_RIGHT, 0), hadamard(), -1)


def test_evolve_snapshots_match_repeated_step():
    h = hadamard()
    snapshots = evolve(new_correlated_state(COIN_RIGHT, 0), h, 3)
    state = new_correlated_state(COIN_RIGHT, 0)
    for t in range(1, 4):
        state = step(state, h)
        assert snapshots[t] == state
    assert max_table_diff(amp_table(snapshots[3]), dict(THREE_STEP)) < 1e-12


def test_norm_conserved_along_1000_step_trajectory():
    snapshots = evolve(new_correlated_state(COIN_RIGHT, 0), hadamard(), 1000)
    assert max(abs(norm(s) - 1.0) for s in snapshots) < 1e-12


def test_single_walker_first_step():
    state = step_single(new_single_state(COIN_RIGHT, 0), hadamard())
    assert max_table_diff(amp_table(state), dict(ONE_STEP)) < 1e-12


def test_single_walker_balanced_coin_symmetric_at_1000_steps():
    coin = CoinSpinor(S, 1j * S)
    final = evolve_single(new_single_state(coin, 0), hadamard(), 1000)[-1]
    dist = position_distribution(final)
    for x, p in dist.items():
        assert abs(p - dist.get(-x, 0.0)) < 1e-12


@pytest.mark.parametrize("t", range(1, 11))
def test_all_right_amplitude_is_power_of_half(t):
    table = evolve_tables(COIN_RIGHT, t)[t]
    assert table[(t, 0)] == pytest.approx(2 ** (-t / 2), abs=1e-12)


@given(data=st.data())
@settings(deadline=None, max_examples=60)
def test_step_is_linear(data):
    t = data.draw(st.integers(min_value=0, max_value=6))
    psi = data.draw(diagonal_states_at(t))
    phi = data.draw(diagonal_states_at(t))
    alpha = complex(data.draw(st.floats(-1, 1)), data.draw(st.floats(-1, 1)))
    beta = complex(data.draw(st.floats(-1, 1)), data.draw(st.floats(-1, 1)))
    sites = set(psi.amps) | set(phi.amps)
    combined = CorrelatedWalkState(
        step=t,
        amps={
            x: (
                alpha * psi.amps.get(x, (0j, 0j))[0] + beta * phi.amps.get(x, (0j, 0j))[0],
                alpha * psi.amps.get(x, (0j, 0j))[1] + beta * phi.amps.get(x, (0j, 0j))[1],
            )
            for x in sites
        },
    )
    h = hadamard()
    stepped = amp_table(step(combined, h))
    table_psi = amp_table(step(psi, h))
    table_phi = amp_table(step(phi, h))
    recombined = {
        k: alpha * table_psi.get(k, 0j) + beta * table_phi.get(k, 0j)
        for k in set(table_psi) | set(table_phi)
    }
    assert max_table_diff(stepped, recombined) < 1e-12


@given(coin=coin_spinors(), steps=st.integers(min_value=0, max_value=25))
@settings(deadline=None)
def test_two_walker_amplitudes_equal_single_walker(coin, steps):
    pair = new_correlated_state(coin, 0)
    solo = new_single_state(coin, 0)
    h = hadamard()
    for _ in range(steps):
        pair = step(pair, h)
        solo = step_single(solo, h)
    assert pair.amps == solo.amps


def test_mirror_symmetry_between_opposite_basis_coins():
    right = evolve_tables(COIN_RIGHT, 12)
    left = evolve_tables(COIN_LEFT, 12)
    for t in range(13):
        keys = {(x, c) for x, c in right[t]} | {(-x, 1 - c) for x, c in left[t]}
        for x, c in keys:
            assert abs(right[t].get((x, c), 0j)) == pytest.approx(
                abs(left[t].get((-x, 1 - c), 0j)), abs=1e-12
            )


@given(
    coin=coin_spinors(),
    operator=coin_operators(),
    steps=st.integers(min_value=0, max_value=40),
    start=st.integers(min_value=-50, max_value=50),
)
@settings(deadline=None, max_examples=40)
def test_trajectory_layout_matches_sparse_step(coin, operator, steps, start):
    # index k of the step-t arrays holds site start - t + 2k
    snapshots = evolve(new_correlated_state(coin, start), operator, steps)
    arrays = trajectory(coin, operator, steps)
    for snapshot, (a0, a1) in zip(snapshots, arrays, strict=True):
        t = snapshot.step
        assert len(a0) == len(a1) == t + 1
        table = {
            (start - t + 2 * k, c): complex(amps[k])
            for c, amps in enumerate((a0, a1))
            for k in range(t + 1)
            if amps[k] != 0
        }
        assert max_table_diff(table, amp_table(snapshot)) <= 1e-15


def test_trajectory_rejects_bad_input():
    with pytest.raises(ValueError):
        next(trajectory(COIN_RIGHT, hadamard(), -1))
    with pytest.raises(ValueError):
        next(trajectory(CoinSpinor(1.0, 1.0), hadamard(), 3))
