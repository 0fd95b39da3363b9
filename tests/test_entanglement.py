import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinwalk import (
    BranchState,
    CoinOutcome,
    CoinSpinor,
    ExperimentConfig,
    SchmidtSpectrum,
    PROB_EPS,
    EmptyBranchError,
    branch_entanglement,
    entanglement_ratio,
    hadamard,
    max_entanglement,
    new_correlated_state,
    post_measurement,
    schmidt_spectrum,
    step,
    von_neumann_entropy,
)
from twinwalk.entanglement import COEFF_EPS, branch_entropy
from twinwalk.oracle import dense_evolve, reduced_entropy
from twinwalk.verification import random_coin_states
from testutil import diagonal_states

S = math.sqrt(0.5)
THREE_STEP_ENTROPY = 1.2516291673878228
THREE_STEP_RATIO = 0.7896900821428475


def branch_at(t, outcome=CoinOutcome.C0, coin=CoinSpinor(1.0, 0.0)):
    state = new_correlated_state(coin, 0)
    h = hadamard()
    for _ in range(t):
        state = step(state, h)
    return post_measurement(state, outcome)


def test_spectrum_of_uniform_pair_branch():
    spectrum = schmidt_spectrum(branch_at(2))
    assert len(spectrum) == 2
    assert spectrum.coefficients == pytest.approx((S, S), abs=1e-12)


def test_spectrum_of_point_branch():
    spectrum = schmidt_spectrum(branch_at(1))
    assert spectrum.coefficients == pytest.approx((1.0,), abs=1e-12)


def test_spectrum_of_three_site_branch():
    spectrum = schmidt_spectrum(branch_at(3))
    expected = (2 / math.sqrt(6), 1 / math.sqrt(6), 1 / math.sqrt(6))
    assert spectrum.coefficients == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "coefficients",
    [
        (),
        (0.5, 0.6, 0.6244997998398398),
        (-1.0,),
        (0.9, 0.1),
    ],
)
def test_spectrum_validation(coefficients):
    with pytest.raises(ValueError):
        SchmidtSpectrum(tuple(coefficients))


def test_entropy_of_point_spectrum():
    assert von_neumann_entropy(SchmidtSpectrum((1.0,))) == 0.0


def test_entropy_of_uniform_pair():
    assert von_neumann_entropy(SchmidtSpectrum((S, S))) == pytest.approx(
        1.0, abs=1e-12
    )


def test_entropy_of_three_site_branch():
    entropy = von_neumann_entropy(schmidt_spectrum(branch_at(3)))
    assert entropy == pytest.approx(1.2516, abs=5e-5)
    assert entropy == pytest.approx(THREE_STEP_ENTROPY, abs=1e-12)


def test_max_entanglement_values():
    assert max_entanglement(2) == 1.0
    assert max_entanglement(3) == pytest.approx(1.585, abs=5e-4)
    assert max_entanglement(3) == math.log2(3)
    assert max_entanglement(1) == 0.0


@pytest.mark.parametrize("t", [0, -1])
def test_max_entanglement_rejects_non_positive_steps(t):
    with pytest.raises(ValueError):
        max_entanglement(t)


def test_ratio_values():
    assert entanglement_ratio(1.0, 2) == 1.0
    assert entanglement_ratio(1.2516, 3) == pytest.approx(0.7896, abs=1e-3)
    assert entanglement_ratio(THREE_STEP_ENTROPY, 3) == pytest.approx(
        THREE_STEP_RATIO, abs=1e-12
    )
    assert entanglement_ratio(0.0, 1) is None


def test_branch_entanglement_bundles_all_three():
    record = branch_entanglement(branch_at(3))
    assert record.entropy == pytest.approx(THREE_STEP_ENTROPY, abs=1e-12)
    assert record.max_entropy == math.log2(3)
    assert record.ratio == pytest.approx(THREE_STEP_RATIO, abs=1e-12)
    assert branch_entanglement(branch_at(1)).ratio is None


@pytest.mark.parametrize("d", range(1, 9))
def test_uniform_spectrum_is_maximal(d):
    spectrum = SchmidtSpectrum((1 / math.sqrt(d),) * d)
    assert von_neumann_entropy(spectrum) == pytest.approx(math.log2(d), abs=1e-12)


@given(
    d=st.integers(min_value=2, max_value=8),
    delta=st.floats(min_value=0.01, max_value=0.1),
)
def test_unequal_spectrum_is_strictly_submaximal(d, delta):
    delta = min(delta, 0.9 / d)
    probs = [1.0 / d] * d
    probs[0] += delta
    probs[1] -= delta
    coefficients = tuple(sorted((math.sqrt(p) for p in probs), reverse=True))
    entropy = von_neumann_entropy(SchmidtSpectrum(coefficients))
    # Pinsker: the entropy deficit is at least (2 delta^2 / ln 2) > delta^2
    assert entropy < math.log2(d) - delta**2


@given(state=diagonal_states(), phase=st.floats(min_value=-math.pi, max_value=math.pi))
@settings(deadline=None)
def test_entropy_invariant_under_global_phase(state, phase):
    weight = sum(abs(a0) ** 2 for a0, _ in state.amps.values())
    if weight <= 1e-6:
        return
    branch = post_measurement(state, CoinOutcome.C0)
    rotated = BranchState(
        outcome=branch.outcome,
        step=branch.step,
        amps={x: a * complex(math.cos(phase), math.sin(phase)) for x, a in branch.amps.items()},
        probability=branch.probability,
    )
    assert von_neumann_entropy(schmidt_spectrum(rotated)) == pytest.approx(
        von_neumann_entropy(schmidt_spectrum(branch)), abs=1e-12
    )


@given(state=diagonal_states(), shift=st.integers(min_value=-50, max_value=50))
@settings(deadline=None)
def test_entropy_invariant_under_relabeling(state, shift):
    weight = sum(abs(a0) ** 2 for a0, _ in state.amps.values())
    if weight <= 1e-6:
        return
    branch = post_measurement(state, CoinOutcome.C0)
    relabeled = BranchState(
        outcome=branch.outcome,
        step=branch.step,
        amps={2 * x + shift: a for x, a in branch.amps.items()},
        probability=branch.probability,
    )
    assert schmidt_spectrum(relabeled).coefficients == schmidt_spectrum(
        branch
    ).coefficients


def test_entropy_matches_dense_oracle_for_random_coins():
    t_max = 10
    for coin in random_coin_states(50, seed=424242):
        config = ExperimentConfig(coin_init=coin, steps=t_max)
        state = new_correlated_state(coin, 0)
        for t in range(1, t_max + 1):
            state = step(state, config.coin_operator)
            dense = dense_evolve(config, t, t_max)
            for outcome in CoinOutcome:
                idx = outcome.value
                weight = sum(abs(p[idx]) ** 2 for p in state.amps.values())
                if weight <= 1e-12:
                    continue
                fast = von_neumann_entropy(
                    schmidt_spectrum(post_measurement(state, outcome))
                )
                assert fast == pytest.approx(
                    reduced_entropy(dense, outcome), abs=1e-10
                )


@given(state=diagonal_states(max_step=30))
@settings(deadline=None)
def test_branch_entropy_matches_sparse_path(state):
    sites = sorted(state.amps)
    for outcome in CoinOutcome:
        amps = np.array([state.amps[x][outcome.value] for x in sites])
        weight, entropy, kept = branch_entropy(amps)
        try:
            branch = post_measurement(state, outcome)
        except EmptyBranchError:
            assert weight <= PROB_EPS
            assert (entropy, kept) == (None, None)
            continue
        assert weight == pytest.approx(branch.probability, abs=1e-15)
        assert kept == sum(abs(a) >= COEFF_EPS for a in branch.amps.values())
        try:
            spectrum = schmidt_spectrum(branch)
        except ValueError:
            # SchmidtSpectrum refuses more than NORM_TOL of mass below
            # COEFF_EPS; branch_entropy keeps the truncated entropy
            assert entropy >= 0.0
            continue
        assert entropy == pytest.approx(von_neumann_entropy(spectrum), abs=1e-12)


def test_branch_entropy_drops_tiny_coefficients():
    weight, entropy, kept = branch_entropy(np.array([S, 0.0, 1e-9j, -S]))
    assert kept == 2
    assert entropy == pytest.approx(1.0, abs=1e-12)
    assert weight == pytest.approx(1.0, abs=1e-15)
    assert branch_entropy(np.zeros(5, dtype=complex)) == (0.0, None, None)
