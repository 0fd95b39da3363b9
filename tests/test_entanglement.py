import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twinwalk import PRESETS, CoinOutcome, CoinSpinor, run_timeline
from twinwalk.entanglement import (
    COEFF_EPS,
    entanglement_ratio,
    max_entanglement,
)
from twinwalk.evolution import trajectory
from twinwalk.measurement import PROB_EPS
from twinwalk.verification import _dense_error, random_coin_states
from testutil import (
    branch_entropy,
    row_entropies,
    coin_arrays,
    evolve_tables,
    pre_fusion_branch_entropy,
)

S = math.sqrt(0.5)
THREE_STEP_ENTROPY = 1.2516291673878228
THREE_STEP_RATIO = 0.7896900821428475


def branch_at(t, outcome=CoinOutcome.C0, coin=CoinSpinor(1.0, 0.0)):
    """Unnormalized amplitudes of one coin branch after t steps."""
    for arrays in trajectory(coin, t):
        pass
    return arrays[outcome.value].copy()


def spectrum(amps):
    """Schmidt coefficients |a| / sqrt(weight) >= COEFF_EPS, descending."""
    moduli = [abs(a) for a in amps.tolist()]
    scale = math.sqrt(math.fsum(m * m for m in moduli))
    return tuple(sorted((m / scale for m in moduli if m / scale >= COEFF_EPS), reverse=True))


def test_spectrum_of_uniform_pair_branch():
    coefficients = spectrum(branch_at(2))
    assert coefficients == pytest.approx((S, S), abs=1e-12)
    assert branch_entropy(branch_at(2))[2] == 2


def test_spectrum_of_point_branch():
    assert spectrum(branch_at(1)) == pytest.approx((1.0,), abs=1e-12)
    assert branch_entropy(branch_at(1))[2] == 1


def test_spectrum_of_three_site_branch():
    expected = (2 / math.sqrt(6), 1 / math.sqrt(6), 1 / math.sqrt(6))
    assert spectrum(branch_at(3)) == pytest.approx(expected, abs=1e-12)
    assert branch_entropy(branch_at(3))[2] == 3


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
    # empty, unsorted, negative and unnormalized coefficient lists need no
    # validation: the entropy is that of the renormalized moduli in any order,
    # and an empty branch is absent
    weight, entropy, kept = branch_entropy(np.array(coefficients, dtype=np.complex128))
    if not coefficients:
        assert (weight, entropy, kept) == (0.0, None, None)
        return
    p = [c * c / weight for c in coefficients]
    assert weight == pytest.approx(sum(c * c for c in coefficients), rel=1e-15)
    assert entropy == pytest.approx(-sum(q * math.log2(q) for q in p), abs=1e-12)
    assert kept == len(coefficients)


def test_entropy_of_point_spectrum():
    assert branch_entropy(np.array([1.0 + 0j])) == (1.0, 0.0, 1)


def test_entropy_of_uniform_pair():
    assert branch_entropy(np.array([S, S]))[1] == pytest.approx(1.0, abs=1e-12)


def test_entropy_of_three_site_branch():
    _, entropy, _ = branch_entropy(branch_at(3))
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
    first, _, third = run_timeline(PRESETS["4a"], 3)
    assert third.entropy0 == pytest.approx(THREE_STEP_ENTROPY, abs=1e-12)
    assert third.max_entropy == math.log2(3)
    assert third.ratio0 == pytest.approx(THREE_STEP_RATIO, abs=1e-12)
    assert first.ratio0 is None


@pytest.mark.parametrize("d", range(1, 9))
def test_uniform_spectrum_is_maximal(d):
    _, entropy, _ = branch_entropy(np.full(d, 1 / math.sqrt(d)))
    assert entropy == pytest.approx(math.log2(d), abs=1e-12)


@given(
    d=st.integers(min_value=2, max_value=8),
    delta=st.floats(min_value=0.01, max_value=0.1),
)
def test_unequal_spectrum_is_strictly_submaximal(d, delta):
    delta = min(delta, 0.9 / d)
    probs = [1.0 / d] * d
    probs[0] += delta
    probs[1] -= delta
    _, entropy, _ = branch_entropy(np.sqrt(np.array(probs)))
    # Pinsker: the entropy deficit is at least (2 delta^2 / ln 2) > delta^2
    assert entropy < math.log2(d) - delta**2


@given(arrays=coin_arrays(), phase=st.floats(min_value=-math.pi, max_value=math.pi))
@settings(deadline=None)
def test_entropy_invariant_under_global_phase(arrays, phase):
    amps = arrays[0]
    weight, entropy, kept = branch_entropy(amps)
    if weight <= 1e-6:
        return
    rotated = branch_entropy(amps * complex(math.cos(phase), math.sin(phase)))
    assert rotated[1] == pytest.approx(entropy, abs=1e-12)
    assert rotated[2] == kept


@given(arrays=coin_arrays(), shift=st.integers(min_value=-50, max_value=50))
@settings(deadline=None)
def test_entropy_invariant_under_relabeling(arrays, shift):
    # site x moved to 2x + shift: zeros between the sites, all of them moved
    amps = arrays[0]
    weight, entropy, kept = branch_entropy(amps)
    if weight <= 1e-6:
        return
    relabeled = np.zeros(2 * len(amps) + 100, dtype=np.complex128)
    relabeled[2 * np.arange(len(amps)) + shift + 50] = amps
    assert spectrum(relabeled) == spectrum(amps)
    assert branch_entropy(relabeled)[1:] == pytest.approx((entropy, kept), abs=1e-13)


def test_entropy_matches_dense_oracle_for_random_coins():
    t_max = 10
    for coin in random_coin_states(50, seed=424242):
        assert _dense_error(coin, evolve_tables(coin, t_max), t_max) < 1e-10


@given(arrays=coin_arrays(max_step=30))
@settings(deadline=None)
def test_branch_entropy_matches_sparse_path(arrays):
    """Walk-like branches against the pre-fusion normalize/cut/-sum p log2 p."""
    for amps in arrays:
        weight, entropy, kept = branch_entropy(amps)
        ref_weight, ref_entropy, ref_kept = pre_fusion_branch_entropy(amps)
        assert weight == pytest.approx(ref_weight, abs=1e-15)
        assert kept == ref_kept
        assert (entropy is None) == (ref_entropy is None)
        if ref_entropy is not None:
            assert entropy == pytest.approx(ref_entropy, abs=1e-12)


def test_branch_entropy_drops_tiny_coefficients():
    weight, entropy, kept = branch_entropy(np.array([S, 0.0, 1e-9j, -S]))
    assert kept == 2
    assert entropy == pytest.approx(1.0, abs=1e-12)
    assert weight == pytest.approx(1.0, abs=1e-15)
    assert branch_entropy(np.zeros(5, dtype=complex)) == (0.0, None, None)


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
    ref_weight, ref_entropy, ref_kept = pre_fusion_branch_entropy(amps)
    # a dot and np.sum may round and order a positive sum differently: n eps
    summation = len(amps) * 2.3e-16
    assert weight == pytest.approx(ref_weight, rel=summation, abs=0.0)
    # within that rounding band around PROB_EPS absence is a coin toss
    assume(abs(ref_weight - PROB_EPS) > summation * PROB_EPS)
    assert (entropy is None) == (ref_entropy is None)
    assert kept == ref_kept
    if ref_entropy is not None:
        assert entropy == pytest.approx(ref_entropy, abs=1e-13)


@given(
    arrays=st.lists(branch_arrays(), min_size=1, max_size=6),
    zero_rows=st.lists(st.integers(0, 6), max_size=3),
)
@settings(deadline=None, max_examples=100)
def test_branch_entropies_measures_each_row_alone(arrays, zero_rows):
    """A block of rows, zero-padded to one width and with all-zero rows at
    any position, gives each row the entropy it has alone."""
    width = max(len(amps) for amps in arrays)
    for position in zero_rows:
        arrays.insert(min(position, len(arrays)), np.zeros(0, dtype=np.complex128))
    rows = np.zeros((len(arrays), width), dtype=np.complex128)
    for row, amps in zip(rows, arrays):
        row[: len(amps)] = amps
    weights, entropies, supports = row_entropies(rows)
    assert len(weights) == len(entropies) == len(supports) == len(arrays)
    for amps, weight, entropy, kept in zip(arrays, weights, entropies, supports):
        ref_weight, ref_entropy, ref_kept = pre_fusion_branch_entropy(amps)
        summation = width * 2.3e-16
        assert weight == pytest.approx(ref_weight, rel=summation, abs=0.0)
        if abs(ref_weight - PROB_EPS) <= summation * PROB_EPS:
            continue  # absence is a coin toss within rounding of the cut
        assert (entropy is None) == (ref_entropy is None)
        assert kept == ref_kept
        if ref_entropy is not None:
            assert entropy == pytest.approx(ref_entropy, abs=1e-13)
