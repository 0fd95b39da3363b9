"""Independent brute-force references for the engine.

``twinwalk verify`` and the tests check the engine against two routes to the
same numbers:

* a dense simulation that carries the full coin (x) walker1 (x) walker2
  amplitude tensor on a truncated lattice and gets branch entropies from the
  eigenvalues of an explicitly built reduced density matrix, and
* a path summation that expands the t-step amplitude as a sum over all 2^t
  coin histories with Hadamard matrix-element weights.

A third reference, ``exact_run``, is exact at any scale: under Hadamard
2^(t/2) times every amplitude of the run from |0> is an integer, so the run
is an integer recurrence, and ``exact_branches`` turns its rows into the
branch weights of any coin as exact rationals, rounded once, with entropies
summed by ``math.fsum``.  The run from |1> is its mirror image:
B0(t)[k] = (-1)^(t+1) A1(t)[t - k] (a test checks this against the integer
run from |1> itself).

``dense_trajectory`` streams the dense states after 0..t_max steps, so a
sweep over every t costs t_max tensor steps; ``dense_evolve`` is its last
state.  ``reduced_entropy`` drops the all-zero rows and columns of the branch
matrix before forming the reduced density matrix.  That crop is exact: a zero
column adds nothing to any entry of M M^dagger, and a zero row adds only a
zero eigenvalue, which the ``EIGVAL_EPS`` filter discards anyway.

The dense and path-sum oracles are deliberately brute force (quadratic
memory / exponential time) and exist to catch index and normalization bugs in
the fast path, not to scale; the exact run is quadratic in time, in Python
integers.  They take the initial coin itself and build their own Hadamard
matrix; nothing here imports the engine or the driver they check.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .measurement import PROB_EPS, CoinOutcome, EmptyBranchError
from .states import SUPPORT_EPS, CoinSpinor

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


def exact_run(
    t_max: int, start: int = 0
) -> Iterator[tuple[list[int], list[int]]]:
    """Integer rows ``(n0, n1)`` after 0..t_max Hadamard steps from the coin
    basis state ``start`` at the origin.

    ``n_c[k]`` is 2^(t/2) times the coin-c amplitude at site -t + 2k.  One
    step is n0'[k + 1] = n0[k] + n1[k] and n1'[k] = n0[k] - n1[k]: the
    Hadamard step times sqrt 2, with no rounding anywhere.
    """
    if t_max < 0:
        raise ValueError(f"step count must be non-negative, got {t_max}")
    n0, n1 = ([1], [0]) if start == 0 else ([0], [1])
    yield n0, n1
    for _ in range(t_max):
        n0, n1 = (
            [0] + [a + b for a, b in zip(n0, n1)],
            [a - b for a, b in zip(n0, n1)] + [0],
        )
        yield n0, n1


def _coin_mixing(coin: CoinSpinor) -> tuple[int, int, int, int]:
    """|alpha|^2, |beta|^2 and 2 Re(alpha conj(beta)) of the coin's floats,
    exactly, as integers over one common denominator: ``(a, b, r, scale)``."""
    # imported here: the CLI loads this module at start-up and never needs it
    from fractions import Fraction

    alpha, beta = coin.amp0, coin.amp1
    a = Fraction(alpha.real) ** 2 + Fraction(alpha.imag) ** 2
    b = Fraction(beta.real) ** 2 + Fraction(beta.imag) ** 2
    r = 2 * (
        Fraction(alpha.real) * Fraction(beta.real)
        + Fraction(alpha.imag) * Fraction(beta.imag)
    )
    scale = math.lcm(a.denominator, b.denominator, r.denominator)
    return int(a * scale), int(b * scale), int(r * scale), scale


def exact_branches(
    coin: CoinSpinor, n0: list[int], n1: list[int]
) -> tuple[tuple[float, float | None, int | None], ...]:
    """Weight, entropy in bits and kept count of both coin branches of the
    walk from ``coin``, at the step whose ``exact_run(t, 0)`` rows are n0, n1.

    The walk is alpha A + beta B with B the mirror image of A, so branch 0
    weighs |alpha n0[k] + beta m0[k]|^2 / 2^t at index k, with
    m0[k] = (-1)^(t+1) n1[t - k], and branch 1 weighs
    |beta n0[k] - alpha m0[k]|^2 / 2^t at the mirrored index.  The coin's
    floats are exact dyadic rationals, so every weight is an exact rational
    until it is rounded, once.  A branch no heavier than PROB_EPS is absent;
    sites lighter than SUPPORT_EPS times the branch weight are cut; the
    entropy is -sum q log2 q over the kept q = weight / branch weight.
    """
    t = len(n0) - 1
    sign = 1 if t % 2 else -1
    m0 = [sign * n1[t - k] for k in range(t + 1)]
    a, b, r, scale = _coin_mixing(coin)
    cut_numerator, cut_denominator = (math.sqrt(SUPPORT_EPS) ** 2).as_integer_ratio()
    results = []
    for cx, cy, cz in ((a, b, r), (b, a, -r)):
        numerators = [cx * u * u + cy * v * v + cz * u * v for u, v in zip(n0, m0)]
        total = sum(numerators)
        weight = total / (scale << t)
        if weight <= PROB_EPS:
            results.append((weight, None, None))
            continue
        kept = [q for q in numerators if q * cut_denominator >= cut_numerator * total]
        terms = [q / total for q in kept]
        entropy = max(0.0, 0.0 - math.fsum(q * math.log2(q) for q in terms))
        results.append((weight, entropy, len(kept)))
    return results[0], results[1]


def exact_distribution(
    coin: CoinSpinor, n0: list[int], n1: list[int]
) -> dict[int, float]:
    """One-walker position distribution of the walk from ``coin`` at the step
    whose ``exact_run(t, 0)`` rows are n0, n1, each probability an exact
    rational rounded once; sites of probability exactly 0 are left out.

    Both coin components come from the mirror identity: the run from |1> has
    m0[k] = (-1)^(t+1) n1[t - k] and m1[k] = (-1)^t n0[t - k].
    """
    t = len(n0) - 1
    sign = 1 if t % 2 else -1
    m0 = [sign * n1[t - k] for k in range(t + 1)]
    m1 = [-sign * n0[t - k] for k in range(t + 1)]
    ca, cb, cr, scale = _coin_mixing(coin)
    distribution = {}
    for k in range(t + 1):
        numerator = (
            ca * (n0[k] ** 2 + n1[k] ** 2)
            + cb * (m0[k] ** 2 + m1[k] ** 2)
            + cr * (n0[k] * m0[k] + n1[k] * m1[k])
        )
        if numerator:
            distribution[2 * k - t] = numerator / (scale << t)
    return distribution
