"""Independent brute-force references for the engine.

``twinwalk verify`` and the tests check the engine against two routes to the
same numbers:

* a dense simulation that carries the full coin (x) walker1 (x) walker2
  amplitude tensor on a truncated lattice and gets branch entropies from the
  eigenvalues of an explicitly built reduced density matrix, and
* a path summation that expands the t-step amplitude as a sum over all 2^t
  coin histories with Hadamard matrix-element weights.

``dense_trajectory`` streams the dense states after 0..t_max steps, so a
sweep over every t costs t_max tensor steps; ``dense_evolve`` is its last
state.  ``reduced_entropy`` drops the all-zero rows and columns of the branch
matrix before forming the reduced density matrix.  That crop is exact: a zero
column adds nothing to any entry of M M^dagger, and a zero row adds only a
zero eigenvalue, which the ``EIGVAL_EPS`` filter discards anyway.

Both oracles are deliberately brute force (quadratic memory / exponential
time) and exist to catch index and normalization bugs in the fast path, not
to scale.  They take the initial coin itself and build their own Hadamard
matrix; nothing here imports the engine or the driver they check.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .measurement import PROB_EPS, CoinOutcome, EmptyBranchError
from .states import CoinSpinor

#: reduced-density-matrix eigenvalues below this count as zero
EIGVAL_EPS = 1e-14

#: the path sum costs 2^t; refuse anything bigger
MAX_PATH_SUM_STEPS = 20


@dataclass(frozen=True, eq=False)
class DenseTensorState:
    """Full amplitude tensor indexed (coin, walker1, walker2) on [-R, R]^2."""

    step: int
    lattice_radius: int
    amplitudes: np.ndarray

    def amplitude(self, coin: int, x1: int, x2: int) -> complex:
        r = self.lattice_radius
        return complex(self.amplitudes[coin, x1 + r, x2 + r])

    def norm(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def off_diagonal_mass(self) -> float:
        """Probability mass on sites with walker1 != walker2 (should be 0)."""
        mass = np.sum(np.abs(self.amplitudes) ** 2, axis=0)
        sites = np.arange(mass.shape[0])
        mass[sites, sites] = 0.0
        return float(np.sum(mass))

    def branch_probability(self, outcome: CoinOutcome) -> float:
        return float(np.sum(np.abs(self.amplitudes[outcome.value]) ** 2))


def dense_trajectory(
    coin_init: CoinSpinor, t_max: int, radius: int
) -> Iterator[DenseTensorState]:
    """Yield the dense state after 0, 1, ..., t_max steps from the origin,
    starting with the coin in ``coin_init``.

    Each step applies a complex128 Hadamard matrix, built here rather than
    taken from the engine, to the whole tensor with explicit three-index
    bookkeeping.  The conditional move acts only on diagonal sites |i, i> and
    displaces both walker indices together, so support stays on the diagonal.
    The radius must cover the ballistic cone so no amplitude reaches the
    lattice edge.  The bounds and the coin's normalization are checked at the
    call, before any step runs.
    """
    if t_max < 0:
        raise ValueError(f"step count must be non-negative, got {t_max}")
    if radius < t_max:
        raise ValueError(f"lattice radius {radius} cannot cover a {t_max}-step walk")
    coin_init.require_normalized()
    return _dense_steps(coin_init, t_max, radius)


def _dense_steps(
    coin_init: CoinSpinor, t_max: int, radius: int
) -> Iterator[DenseTensorState]:
    n = 2 * radius + 1
    amplitudes = np.zeros((2, n, n), dtype=np.complex128)
    amplitudes[0, radius, radius] = coin_init.amp0
    amplitudes[1, radius, radius] = coin_init.amp1
    s = math.sqrt(0.5)
    coin = np.array(((s, s), (s, -s)), dtype=np.complex128)
    idx = np.arange(n)
    yield DenseTensorState(step=0, lattice_radius=radius, amplitudes=amplitudes)
    for t in range(1, t_max + 1):
        mixed = np.tensordot(coin, amplitudes, axes=([1], [0]))
        diag0 = mixed[0, idx, idx]
        diag1 = mixed[1, idx, idx]
        amplitudes = np.zeros_like(amplitudes)
        amplitudes[0, idx[1:], idx[1:]] = diag0[:-1]
        amplitudes[1, idx[:-1], idx[:-1]] = diag1[1:]
        yield DenseTensorState(step=t, lattice_radius=radius, amplitudes=amplitudes)


def dense_evolve(coin_init: CoinSpinor, t: int, radius: int) -> DenseTensorState:
    """The dense state after t steps from ``coin_init``: the last state of
    ``dense_trajectory``, with the same eager checks."""
    return deque(dense_trajectory(coin_init, t, radius), maxlen=1)[0]


def reduced_entropy(state: DenseTensorState, outcome: CoinOutcome) -> float:
    """Branch entropy in bits from the reduced density matrix of walker 1.

    The coin is projected onto ``outcome``, the walker amplitude matrix is
    renormalized, walker 2 is traced out, and the entropy is computed from the
    eigenvalues of the resulting Hermitian matrix (cropped exactly, see the
    module docstring).  The eigen-decomposition does not assume the matrix is
    diagonal, so it stays independent of the fast path's Schmidt shortcut.
    """
    matrix = state.amplitudes[outcome.value]
    weight = float(np.sum(np.abs(matrix) ** 2))
    if weight <= PROB_EPS:
        raise EmptyBranchError(
            f"outcome {outcome} has probability {weight!r} at step {state.step}"
        )
    rows = np.flatnonzero(np.any(matrix != 0, axis=1))
    cols = np.flatnonzero(np.any(matrix != 0, axis=0))
    normalized = matrix[np.ix_(rows, cols)] / math.sqrt(weight)
    rho = normalized @ normalized.conj().T
    eigenvalues = np.linalg.eigvalsh(rho)
    eigenvalues = eigenvalues[eigenvalues > EIGVAL_EPS]
    return max(0.0, float(-np.sum(eigenvalues * np.log2(eigenvalues))))


def path_sum_table(coin_init: CoinSpinor, t: int) -> dict[tuple[int, int], complex]:
    """All t-step amplitudes keyed (position, coin index), start at the origin.

    An explicit sum over all 2^t coin histories, vectorised across paths.
    Path k takes coin ``(k >> (t - 1 - j)) & 1`` at step j.  Its weight is
    the first step's amplitude times ``h[current, previous]`` for each later
    step, multiplied in step order; its displacement is the sum of its moves.
    """
    if not 0 <= t <= MAX_PATH_SUM_STEPS:
        raise ValueError(
            f"path summation supports 0 <= t <= {MAX_PATH_SUM_STEPS}, got {t}"
        )
    s = math.sqrt(0.5)
    h = np.array(((s, s), (s, -s)))
    a = (complex(coin_init.amp0), complex(coin_init.amp1))
    if t == 0:
        return {(0, 0): a[0], (0, 1): a[1]}
    paths = np.arange(1 << t)
    previous = (paths >> (t - 1)) & 1
    weight = h[previous, 0] * a[0] + h[previous, 1] * a[1]
    displacement = 1 - 2 * previous
    for j in range(1, t):
        current = (paths >> (t - 1 - j)) & 1
        weight *= h[current, previous]
        displacement += 1 - 2 * current
        previous = current
    key = (displacement + t) * 2 + previous
    size = 2 * (2 * t + 1)
    hits = np.bincount(key, minlength=size)
    real = np.bincount(key, weights=weight.real, minlength=size)
    imag = np.bincount(key, weights=weight.imag, minlength=size)
    return {
        (int(k) // 2 - t, int(k) % 2): complex(real[k], imag[k])
        for k in np.flatnonzero(hits)
    }


def path_sum_amplitude(
    coin_init: CoinSpinor, x: int, outcome: CoinOutcome, t: int
) -> complex:
    """Amplitude of |outcome>(x)|x, x> after t steps, summed over coin histories."""
    table = path_sum_table(coin_init, t)
    return table.get((x, outcome.value), 0j)
