"""Shared hypothesis strategies, run-row, amplitude-table and oracle helpers
for the tests."""

from __future__ import annotations

import dataclasses
import math
from collections import deque

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from twinwalk import PRESETS, CoinSpinor, distribution_symmetry, timelines_and_distributions
from twinwalk.entanglement import COEFF_EPS, branch_entropies
from twinwalk.evolution import branch_blocks, row_exponent
from twinwalk.figures import _FIGURE_GROUPS, COMPARISON_COLUMNS, OUTCOME_COLUMNS, _figure_name
from twinwalk.oracle import dense_trajectory, exact_run
from twinwalk.render import csv_text
from twinwalk.states import PROB_EPS, SUPPORT_EPS, CoinOutcome, coin_fields
from twinwalk.verification import _dense_error, _exact_error

AmpTable = dict[tuple[int, int], complex]

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

    Both have length t + 1, index k holding site -t + 2k, with up to six
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
    present = weights > PROB_EPS
    # the pass overwrites the site weights it is given
    entropies, kept = branch_entropies(site_weights.copy(), weights, present)
    return weights.tolist(), *(
        [v if flag else None for v, flag in zip(column.tolist(), present.tolist())]
        for column in (entropies, kept)
    )


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


def coin_state(coin: CoinSpinor, runs: np.ndarray) -> np.ndarray:
    """The dense (coin, walker1, walker2) state alpha run0 + beta run1 of
    ``coin``, from the two runs ``dense_trajectory`` yields for one step."""
    return complex(coin.amp0) * runs[0] + complex(coin.amp1) * runs[1]


def dense_states(coin: CoinSpinor, t_max: int):
    """The dense oracle's (2, 2t+1, 2t+1) state of the walk from ``coin``
    after 0..t_max steps, over sites [-t, t]^2."""
    for runs in dense_trajectory(t_max):
        yield coin_state(coin, runs)


def dense_runs(t: int) -> np.ndarray:
    """The last runs of ``dense_trajectory(t)``; the earlier ones are not
    held."""
    return deque(dense_trajectory(t), maxlen=1)[0]


def dense_state(coin: CoinSpinor, t: int) -> np.ndarray:
    """The last of ``dense_states(coin, t)``."""
    return coin_state(coin, dense_runs(t))


def dense_amplitude(dense: np.ndarray, coin: int, x1: int, x2: int) -> complex:
    """Amplitude of |coin>|x1, x2> in a dense state; 0 at sites past its
    lattice."""
    r = dense.shape[-1] // 2
    if max(abs(x1), abs(x2)) > r:
        return 0j
    return complex(dense[coin, x1 + r, x2 + r])


def dense_norm(dense: np.ndarray) -> float:
    return float(np.vdot(dense, dense).real)


def dense_diagonal(dense: np.ndarray, t: int) -> np.ndarray:
    """(2, t + 1) dense-oracle amplitudes of |c>|x, x> at x = -t + 2k."""
    sites = -t + 2 * np.arange(t + 1) + dense.shape[-1] // 2
    return dense[:, sites, sites]


def dense_marginal(dense: np.ndarray) -> dict[int, float]:
    """Walker-1 position distribution of a dense state, zero sites left out."""
    mass = np.sum(np.abs(dense) ** 2, axis=(0, 2))
    r = dense.shape[-1] // 2
    return {x - r: p for x, p in enumerate(mass.tolist()) if p != 0.0}


def off_diagonal_mass(dense: np.ndarray) -> float:
    """Probability mass of a dense state on sites with walker1 != walker2
    (should be 0)."""
    mass = np.sum(np.abs(dense) ** 2, axis=0)
    sites = np.arange(mass.shape[0])
    mass[sites, sites] = 0.0
    return float(np.sum(mass))


def step_rows(blocks):
    """``(t, A0, B0)`` for each step of ``branch_blocks`` blocks: copies of
    the rows as stored, of length t + 1."""
    for first, lo, a0, b0 in blocks:
        count, width = a0.shape
        rows = np.zeros((2, count, first + count))
        rows[:, :, lo : lo + width] = a0, b0
        for j in range(count):
            t = first + j
            yield t, rows[0, j, : t + 1], rows[1, j, : t + 1]


def run_rows(n: int):
    """``(t, A0, B0)`` for t = 0..n: the coin-0 rows of the engine's real runs
    from |0> and |1>, with their 2^(m/2) scale divided out."""
    for t, a0, b0 in step_rows(branch_blocks(n)):
        scale = 2.0 ** (-row_exponent(t) / 2)
        yield t, a0 * scale, b0 * scale


def coin_amplitudes(coin: CoinSpinor, t: int, a0, b0) -> tuple[np.ndarray, np.ndarray]:
    """Coin-0 and coin-1 amplitudes of the walk from ``coin`` after t steps,
    alpha A + beta B, from the coin-0 rows A0 and B0 of the runs from |0>
    and |1>.  By the mirror identity coin 1 at index k is
    (-1)^t (beta A0 - alpha B0) at index t - k."""
    alpha, beta = complex(coin.amp0), complex(coin.amp1)
    a0, b0 = np.asarray(a0, dtype=float), np.asarray(b0, dtype=float)
    sign = -1.0 if t % 2 else 1.0
    return alpha * a0 + beta * b0, (sign * (beta * a0 - alpha * b0))[::-1].copy()


def engine_trajectory(coin: CoinSpinor, n: int):
    """Coin-0 and coin-1 amplitude arrays after 0..n steps, composed from the
    engine's rows (``run_rows``); index k of step t holds site -t + 2k."""
    for t, a0, b0 in run_rows(n):
        yield coin_amplitudes(coin, t, a0, b0)


def exact_rows(n: int, start: int = 0):
    """``(t, A0, A1)`` for t = 0..n of the run from the coin basis state
    ``start``: ``oracle.exact_run`` times 2^(-t/2), each entry a correctly
    rounded quotient times sqrt(1/2) on odd steps."""
    for t, (n0, n1) in enumerate(exact_run(n, start)):
        divisor = 1 << (t // 2)
        factor = math.sqrt(0.5) if t % 2 else 1.0
        yield t, *(np.array([v / divisor for v in row]) * factor for row in (n0, n1))


def oracle_trajectory(coin: CoinSpinor, n: int):
    """Coin-0 and coin-1 amplitude arrays after 0..n steps, alpha A + beta B
    with A the exact integer run from |0> and B its mirror image
    B0(t)[k] = (-1)^(t+1) A1(t)[t - k]: independent of the engine."""
    for t, a0, a1 in exact_rows(n):
        b0 = (-1.0 if t % 2 == 0 else 1.0) * a1[::-1]
        yield coin_amplitudes(coin, t, a0, b0)


def array_distribution(a0, a1) -> dict[int, float]:
    """Position distribution of one step's coin-0 and coin-1 arrays; sites of
    probability exactly 0 are left out."""
    t = len(a0) - 1
    probabilities = np.abs(np.asarray(a0)) ** 2 + np.abs(np.asarray(a1)) ** 2
    return {x: p for x, p in zip(range(-t, t + 1, 2), probabilities.tolist()) if p != 0.0}


def final_distribution(coin: CoinSpinor, steps: int) -> dict[int, float]:
    """The one-walker distribution that ``timelines_and_distributions``
    returns after ``steps`` steps; at 0 steps, which it does not measure, the
    point start's, read off the engine's run."""
    if steps == 0:
        *_, (a0, a1) = engine_trajectory(coin, 0)
        return array_distribution(a0, a1)
    ((_, distribution),) = timelines_and_distributions([coin], steps)
    return distribution


def table_of(a0, a1) -> AmpTable:
    """One step's arrays as a {(site, coin index): amplitude} map, exact
    zeros kept."""
    t = len(a0) - 1
    return {(2 * k - t, c): complex(amp) for c, amps in enumerate((a0, a1)) for k, amp in enumerate(amps)}


def evolve_tables(coin: CoinSpinor, t_max: int) -> list[AmpTable]:
    """Amplitude tables at t = 0..t_max of the engine's run composed for
    ``coin``; read them with ``.get(key, 0j)`` or ``max_table_diff``."""
    return [table_of(a0, a1) for a0, a1 in engine_trajectory(coin, t_max)]


def max_table_diff(left: AmpTable, right: AmpTable) -> float:
    keys = set(left) | set(right)
    if not keys:
        return 0.0
    return max(abs(left.get(k, 0j) - right.get(k, 0j)) for k in keys)


def dense_error(coin: CoinSpinor, t_max: int) -> float:
    """``twinwalk verify``'s dense-oracle error of the timeline and final
    distribution of a ``t_max``-step walk from ``coin``: its shared records
    loop against the dense trajectory, and the final distribution."""
    ((timeline, distribution),) = timelines_and_distributions([coin], t_max)
    return _dense_error([coin], [timeline], [distribution], t_max)


def exact_error(coin: CoinSpinor, t_max: int) -> float:
    """``twinwalk verify``'s exact-branches error of the timeline of a
    ``t_max``-step walk from ``coin``: its shared records loop against
    ``exact_branches`` over the exact run."""
    ((timeline, distribution),) = timelines_and_distributions([coin], t_max)
    return _exact_error([coin], [timeline], [distribution], t_max)


def format_number(value: float | None) -> str:
    """One value as the renderers must render it: 12 significant digits,
    and an empty field for an absent (None) value."""
    return "" if value is None else format(value, ".12g")


def reference_figure_bundle(steps: int, window: int) -> tuple[dict[str, str], dict]:
    """``figures.build_figure_bundle`` as it was rendered from records: each
    preset's ``timelines_and_distributions`` records, every field formatted
    by ``format_number`` one value at a time, every file rendered anew and
    each window ratio the mean of the records' ratios."""
    coins = [PRESETS[preset] for preset, _ in _FIGURE_GROUPS]
    texts, entries = {}, {}
    for (preset, first), (timeline, distribution) in zip(
        _FIGURE_GROUPS, timelines_and_distributions(coins, steps)
    ):
        columns = {
            name: [format_number(value) for value in values]
            for name, values in zip(timeline[0]._fields, zip(*timeline))
        }
        ratios = {}
        for outcome in CoinOutcome:
            tail = [getattr(record, f"ratio{outcome.value}") for record in timeline[-window:]]
            ratios[str(outcome)] = None if None in tail else sum(tail) / len(tail)
        entry = {"preset": preset, "coin": coin_fields(PRESETS[preset])}
        for outcome in CoinOutcome:
            fields = ("step", f"entropy{outcome.value}", "max_entropy", f"ratio{outcome.value}")
            number = first + outcome.value
            texts[_figure_name(number)] = csv_text(
                OUTCOME_COLUMNS, zip(*(columns[name] for name in fields))
            )
            entries[_figure_name(number)] = {
                "figure": number, **entry, "outcome": str(outcome),
                "columns": list(OUTCOME_COLUMNS),
                "panels": {
                    "i": "branch entanglement entropy and attainable bound vs step",
                    "ii": "entanglement ratio vs step",
                },
                "asymptotic_ratio": ratios[str(outcome)],
            }
        series = [
            [columns[name][t] for name in ("step", "entropy0", "entropy1", "ratio0", "ratio1")]
            for t in range(steps)
        ]
        places = [
            [str(x), format_number(p)] for x, p in sorted(distribution.items()) if p > SUPPORT_EPS
        ]
        length = max(len(series), len(places))
        series += [[""] * 5] * (length - len(series))
        places += [["", ""]] * (length - len(places))
        number = first + 2
        texts[_figure_name(number)] = csv_text(
            COMPARISON_COLUMNS, (a + b for a, b in zip(series, places))
        )
        entries[_figure_name(number)] = {
            "figure": number, **entry, "outcome": None,
            "columns": list(COMPARISON_COLUMNS),
            "panels": {
                "i": "one-walker position distribution at the final step",
                "ii": "both branch entropy and ratio series vs step",
            },
            "asymptotic_ratio": ratios,
            "single_walker": dataclasses.asdict(distribution_symmetry(distribution, steps)),
        }
    return texts, {"steps": steps, "window": window, "files": entries}
