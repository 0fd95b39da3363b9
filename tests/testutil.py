"""Shared hypothesis strategies and amplitude-table helpers for the tests."""

from __future__ import annotations

import cmath
import math

from hypothesis import assume
from hypothesis import strategies as st

from twinwalk import CoinOperator, CoinSpinor, CorrelatedWalkState
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
def coin_operators(draw) -> CoinOperator:
    """Random 2x2 unitary: a global phase times an SU(2) rotation."""
    angles = st.floats(min_value=0.0, max_value=2 * math.pi)
    theta, alpha, beta, phi = (draw(angles) for _ in range(4))
    c, s = math.cos(theta), math.sin(theta)
    phase = cmath.exp(1j * phi)
    return CoinOperator(
        phase * c * cmath.exp(1j * alpha),
        phase * s * cmath.exp(1j * beta),
        -phase * s * cmath.exp(-1j * beta),
        phase * c * cmath.exp(-1j * alpha),
    )


@st.composite
def diagonal_states_at(draw, t: int) -> CorrelatedWalkState:
    """Normalized state with step counter t and random parity-valid support."""
    allowed = list(range(-t, t + 1, 2))
    sites = draw(
        st.lists(
            st.sampled_from(allowed),
            min_size=1,
            max_size=min(len(allowed), 6),
            unique=True,
        )
    )
    raw = {}
    total = 0.0
    for x in sites:
        pair = (
            complex(draw(unit_floats), draw(unit_floats)),
            complex(draw(unit_floats), draw(unit_floats)),
        )
        raw[x] = pair
        total += abs(pair[0]) ** 2 + abs(pair[1]) ** 2
    assume(total > 1e-6)
    scale = 1.0 / math.sqrt(total)
    return CorrelatedWalkState(
        step=t, amps={x: (a0 * scale, a1 * scale) for x, (a0, a1) in raw.items()}
    )


@st.composite
def diagonal_states(draw, max_step: int = 8) -> CorrelatedWalkState:
    t = draw(st.integers(min_value=0, max_value=max_step))
    return draw(diagonal_states_at(t))


def amp_table(state) -> AmpTable:
    """{(site, coin index): amplitude} with exact zeros dropped."""
    return {
        (x, c): pair[c]
        for x, pair in state.amps.items()
        for c in (0, 1)
        if pair[c] != 0
    }


def max_table_diff(left: AmpTable, right: AmpTable) -> float:
    keys = set(left) | set(right)
    if not keys:
        return 0.0
    return max(abs(left.get(k, 0j) - right.get(k, 0j)) for k in keys)

