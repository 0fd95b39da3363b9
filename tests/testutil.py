"""Shared hypothesis strategies, amplitude-table and oracle helpers for the tests."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from twinwalk import CoinSpinor
from twinwalk.entanglement import COEFF_EPS, branch_entropies
from twinwalk.measurement import PROB_EPS
from twinwalk.verification import AmpTable, _engine_amplitude_tables

#: engine amplitude tables at t = 0..t_max from a point start at the origin,
#: built as ``twinwalk verify`` builds them; exact zeros are kept, so read them
#: with ``.get(key, 0j)`` or compare them with ``max_table_diff``
evolve_tables = _engine_amplitude_tables

unit_floats = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def coin_spinors(draw) -> CoinSpinor:
    parts = [draw(unit_floats) for _ in range(4)]
    scale = math.sqrt(sum(p * p for p in parts))
    assume(scale > 1e-3)
    return CoinSpinor(
        complex(parts[0], parts[1]) / scale,
        complex(parts[2], parts[3]) / scale,
    )


@st.composite
def coin_arrays(draw, max_step: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Normalized coin-0 and coin-1 arrays of one step t <= max_step.

    Both have length t + 1, as ``trajectory`` yields them, with up to six
    random occupied sites.
    """
    t = draw(st.integers(min_value=0, max_value=max_step))
    sites = draw(
        st.lists(
            st.integers(min_value=0, max_value=t),
            min_size=1,
            max_size=min(t + 1, 6),
            unique=True,
        )
    )
    arrays = np.zeros((2, t + 1), dtype=np.complex128)
    for k in sites:
        for c in (0, 1):
            arrays[c, k] = complex(draw(unit_floats), draw(unit_floats))
    total = float(np.sum(np.abs(arrays) ** 2))
    assume(total > 1e-6)
    arrays /= math.sqrt(total)
    return arrays[0], arrays[1]


def row_entropies(rows):
    """Weights, entropies and kept counts of branch amplitude rows, measured
    by ``branch_entropies`` from their site weights |b|^2."""
    site_weights = np.abs(np.asarray(rows)) ** 2
    weights = site_weights.sum(axis=-1)
    entropies, kept = branch_entropies(site_weights, weights, weights > PROB_EPS)
    return weights.tolist(), entropies, kept


def branch_entropy(amps):
    """Weight, entropy and kept count of one branch array: the one-row case
    of ``branch_entropies``."""
    (weight,), (entropy,), (kept,) = row_entropies(np.asarray(amps)[np.newaxis])
    return weight, entropy, kept


def pre_fusion_branch_entropy(amps):
    """The abs/sum/divide/mask arithmetic of the branch entropy before fusion."""
    moduli = np.abs(amps)
    weight = float(np.sum(moduli * moduli))
    if weight <= PROB_EPS:
        return weight, None, None
    coefficients = moduli / math.sqrt(weight)
    kept = coefficients[coefficients >= COEFF_EPS]
    p = kept * kept
    return weight, max(0.0, float(-np.sum(p * np.log2(p)))), len(kept)


def dense_diagonal(dense, t: int) -> np.ndarray:
    """(2, t + 1) dense-oracle amplitudes of |c>|x, x> at x = -t + 2k."""
    sites = -t + 2 * np.arange(t + 1) + dense.lattice_radius
    return dense.amplitudes[:, sites, sites]


def dense_marginal(dense) -> dict[int, float]:
    """Walker-1 position distribution of a dense state, zero sites left out."""
    mass = np.sum(np.abs(dense.amplitudes) ** 2, axis=(0, 2))
    r = dense.lattice_radius
    return {x - r: p for x, p in enumerate(mass.tolist()) if p != 0.0}


def max_table_diff(left: AmpTable, right: AmpTable) -> float:
    keys = set(left) | set(right)
    if not keys:
        return 0.0
    return max(abs(left.get(k, 0j) - right.get(k, 0j)) for k in keys)
