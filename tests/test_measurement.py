import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinwalk import CoinSpinor, run_timeline
from twinwalk.oracle import path_sum_table
from testutil import (
    branch_entropy,
    coin_arrays,
    coin_spinors,
    dense_norm,
    dense_states,
    oracle_trajectory,
)

S = math.sqrt(0.5)
COIN_RIGHT = CoinSpinor(1.0, 0.0)


def walk(coin, steps):
    """The coin-0 and coin-1 arrays after ``steps`` steps, from the exact
    integer run."""
    *_, (a0, a1) = oracle_trajectory(coin, steps)
    return a0, a1


def branch(coin, steps, outcome=0):
    """Weight and {site: renormalized amplitude} of one coin branch from the origin."""
    arrays = walk(coin, steps)
    weight, _, _ = branch_entropy(arrays[outcome])
    return weight, {
        2 * k - steps: amp / math.sqrt(weight)
        for k, amp in enumerate(arrays[outcome].tolist())
        if amp != 0
    }


def test_probabilities_after_one_step():
    first = run_timeline(COIN_RIGHT, 1)[0]
    assert first.p0 == pytest.approx(0.5, abs=1e-12)
    assert first.p1 == pytest.approx(0.5, abs=1e-12)


def test_probabilities_after_three_steps():
    third = run_timeline(COIN_RIGHT, 3)[-1]
    # cross-checked against the path-sum oracle below
    assert third.p0 == pytest.approx(0.75, abs=1e-12)
    assert third.p1 == pytest.approx(0.25, abs=1e-12)
    table = path_sum_table(COIN_RIGHT, 3)
    oracle_p0 = sum(abs(v) ** 2 for (x, c), v in table.items() if c == 0)
    assert third.p0 == pytest.approx(oracle_p0, abs=1e-12)


def test_probabilities_of_initial_coin_zero():
    a0, a1 = walk(COIN_RIGHT, 0)
    assert (branch_entropy(a0)[0], branch_entropy(a1)[0]) == (1.0, 0.0)


def test_branch_after_one_step():
    weight, amps = branch(COIN_RIGHT, 1)
    assert weight == pytest.approx(0.5, abs=1e-12)
    assert set(amps) == {1}
    assert amps[1] == pytest.approx(1.0, abs=1e-12)


def test_branch_after_two_steps():
    weight, amps = branch(COIN_RIGHT, 2)
    assert weight == pytest.approx(0.5, abs=1e-12)
    assert amps[2] == pytest.approx(S, abs=1e-12)
    assert amps[0] == pytest.approx(S, abs=1e-12)


def test_branch_after_three_steps():
    weight, amps = branch(COIN_RIGHT, 3)
    r = 1 / math.sqrt(6)
    assert weight == pytest.approx(0.75, abs=1e-12)
    assert amps[3] == pytest.approx(r, abs=1e-12)
    assert amps[1] == pytest.approx(2 * r, abs=1e-12)
    assert amps[-1] == pytest.approx(-r, abs=1e-12)


def test_empty_branch_is_rejected():
    _, a1 = walk(COIN_RIGHT, 0)
    assert branch_entropy(a1) == (0.0, None, None)


@given(arrays=coin_arrays(), exponent=st.integers(min_value=-10, max_value=10))
@settings(deadline=None)
def test_branches_reconstruct_the_state(arrays, exponent):
    # a branch is its renormalized amplitudes times sqrt(weight): scaling the
    # amplitudes (by a power of two, so exactly) scales the weight and leaves
    # the entropy and support alone
    scale = 2.0**exponent
    for amps in arrays:
        weight, entropy, kept = branch_entropy(amps)
        if min(weight, weight * scale * scale) <= 1e-10:
            continue
        scaled = branch_entropy(scale * amps)
        assert scaled[0] == scale * scale * weight
        assert scaled[1] == pytest.approx(entropy, abs=1e-12)
        assert scaled[2] == kept


@given(coin=coin_spinors(), steps=st.integers(1, 20))
@settings(deadline=None)
def test_outcome_probabilities_are_complete(coin, steps):
    for record in run_timeline(coin, steps):
        assert record.p0 + record.p1 == pytest.approx(1.0, abs=1e-12)
        assert record.p0 >= 0.0 and record.p1 >= 0.0


@given(arrays=coin_arrays())
@settings(deadline=None)
def test_branch_norm_is_one(arrays):
    for amps in arrays:
        weight, entropy, kept = branch_entropy(amps)
        if weight <= 1e-12:
            continue
        renormalized = branch_entropy(amps / math.sqrt(weight))
        assert renormalized[0] == pytest.approx(1.0, abs=1e-12)
        assert renormalized[1] == pytest.approx(entropy, abs=1e-12)
        assert renormalized[2] == kept


def test_reembedded_branch_measures_to_itself():
    weight, amps = branch(COIN_RIGHT, 3)
    reembedded = np.array(list(amps.values()))
    again, entropy, kept = branch_entropy(reembedded)
    _, original_entropy, original_kept = branch_entropy(walk(COIN_RIGHT, 3)[0])
    assert again == pytest.approx(1.0, abs=1e-12)
    assert entropy == pytest.approx(original_entropy, abs=1e-12)
    assert kept == original_kept == 3


@given(coin=coin_spinors())
@settings(deadline=None, max_examples=40)
def test_coin_marginals_match_single_walker(coin):
    # the coin marginals of the one-walker walk are the branch weights
    # of the dense two-walker state
    pairs = zip(run_timeline(coin, 10), list(dense_states(coin, 10))[1:])
    for record, dense in pairs:
        assert record.p0 == pytest.approx(dense_norm(dense[0]), abs=1e-12)
        assert record.p1 == pytest.approx(dense_norm(dense[1]), abs=1e-12)
