import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
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


def _pre_fusion_branch_entropy(amps):
    """The abs/sum/divide/mask arithmetic branch_entropy used before fusion."""
    moduli = np.abs(amps)
    weight = float(np.sum(moduli * moduli))
    if weight <= PROB_EPS:
        return weight, None, None
    coefficients = moduli / math.sqrt(weight)
    kept = coefficients[coefficients >= COEFF_EPS]
    p = kept * kept
    return weight, max(0.0, float(-np.sum(p * np.log2(p)))), len(kept)


@st.composite
def branch_arrays(draw):
    """Unnormalized branch arrays: a bulk, exact zeros and entries near the cut.

    The bulk is scaled to a weight of 10**e, often close to PROB_EPS.  Small
    entries sit at a factor of COEFF_EPS * sqrt(bulk weight): below 0.999 they
    are cut, above 1.001 they are kept, so rounding never decides either.
    """
    phase = st.floats(0.0, 2.0 * math.pi)
    bulk = draw(
        st.lists(st.tuples(st.floats(0.01, 1.0), phase), min_size=1, max_size=40)
    )
    exponent = draw(st.one_of(st.floats(-12.2, -11.8), st.floats(-13.0, 0.0)))
    raw_weight = sum(m * m for m, _ in bulk)
    scale = math.sqrt(10.0**exponent / raw_weight)
    cut = COEFF_EPS * math.sqrt(10.0**exponent)
    small = draw(
        st.lists(
            st.tuples(
                st.one_of(st.floats(0.0, 0.999), st.floats(1.001, 100.0)), phase
            ),
            max_size=6,
        )
    )
    values = [scale * m * cmath.exp(1j * a) for m, a in bulk]
    values += [f * cut * cmath.exp(1j * a) for f, a in small]
    values += [0j] * draw(st.integers(0, 5))
    return np.array(draw(st.permutations(values)), dtype=np.complex128)


@given(amps=branch_arrays())
@settings(deadline=None, max_examples=300)
def test_fused_branch_entropy_matches_pre_fusion_arithmetic(amps):
    weight, entropy, kept = branch_entropy(amps)
    ref_weight, ref_entropy, ref_kept = _pre_fusion_branch_entropy(amps)
    # a dot and np.sum may round and order a positive sum differently: n eps
    summation = len(amps) * 2.3e-16
    assert weight == pytest.approx(ref_weight, rel=summation, abs=0.0)
    # within that rounding band around PROB_EPS absence is a coin toss
    assume(abs(ref_weight - PROB_EPS) > summation * PROB_EPS)
    assert (entropy is None) == (ref_entropy is None)
    assert kept == ref_kept
    if ref_entropy is not None:
        assert entropy == pytest.approx(ref_entropy, abs=1e-13)
