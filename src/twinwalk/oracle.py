"""Independent brute-force references for the engine.

Two routes to the same numbers are brute force:

* a dense simulation that carries the full coin (x) walker1 (x) walker2
  amplitude tensor on every site the walk can reach and gets branch
  entropies from the eigenvalues of explicitly built reduced density
  matrices, read by ``twinwalk verify`` and the tests, and
* a path summation, ``path_sum_table``, that expands the t-step amplitude
  as a sum over all 2^t coin histories with Hadamard matrix-element
  weights, read by the tests.

A third reference, ``exact_run``, is exact at any scale: under Hadamard
2^(t/2) times every amplitude of the run from |0> is an integer, so the run
is an integer recurrence, and ``exact_branches`` turns its rows into the
branch weights of any coin as exact rationals, rounded once, with entropies
summed by ``math.fsum``; ``verify`` holds the engine's rows to
``exact_run`` and its records to ``exact_branches``.  The run from |1> is
its mirror image:
B0(t)[k] = (-1)^(t+1) A1(t)[t - k] (a test checks this against the integer
run from |1> itself).

The walk is linear in the initial coin, so ``dense_trajectory`` evolves
only the runs from |0> and from |1>, as one (2, 2, 2t+1, 2t+1) tensor, and
streams it after 0..t_max steps: a sweep over every t and any number of
coins costs t_max tensor steps.  The lattice grows with the walk: the
tensor after t steps covers sites [-t, t]^2, which holds every site either
walker can reach, so nothing is truncated.  The shift moves every (x, y)
site, not just the diagonal ones, so that the walkers stay on the diagonal
is something the oracle shows rather than assumes.  ``dense_branches``
measures both coin branches of every coin in a list, alpha run0 + beta
run1, in one pass over all their reduced density matrices, and
``dense_marginals`` gives their walker-1 distributions.  The runs are
cropped to the union of the nonzero rows and columns of all four of their
matrices before the reduced density matrices are formed.  That crop is
exact: a column zero in every matrix adds nothing to any entry of any
M M^dagger, and a row zero in every matrix adds only a zero eigenvalue,
which the ``EIGVAL_EPS`` filter discards anyway.  The matrices are then
diagonalized one exact block at a time (``_eigenvalues``): the connected
components of their joint nonzero pattern, with one ``eigvalsh`` call per
block size.  On the walk every block is 1 x 1; a coherence between sites
would join them into one block, diagonalized whole.

The dense and path-sum oracles are deliberately brute force (quadratic
memory / exponential time) and exist to catch index and normalization bugs in
the fast path, not to scale; the exact run is quadratic in time, in Python
integers.  They build their own Hadamard matrix, and the dense oracle
evolves the run from |1> itself, with no mirror identity; nothing here
imports the engine or the driver they check.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

import numpy as np

from .states import PROB_EPS, SUPPORT_EPS, CoinSpinor

#: reduced-density-matrix eigenvalues below this count as zero
EIGVAL_EPS = 1e-14

#: the path sum costs 2^t; refuse anything bigger
MAX_PATH_SUM_STEPS = 20

#: weight and entropy in bits (None for an absent branch) of coin branches 0
#: and 1, the shape in which ``verify`` reads a reference's per-step branches
Branches = tuple[tuple[float, float | None], tuple[float, float | None]]


def dense_trajectory(t_max: int) -> Iterator[np.ndarray]:
    """Yield the dense runs from |0> and from |1> after 0, 1, ..., t_max
    steps, as one (start, coin, walker1, walker2) tensor of shape
    (2, 2, 2t+1, 2t+1) over sites [-t, t]^2.

    Each step applies a complex128 Hadamard matrix, built here rather than
    taken from the engine, to the coin axis of the whole tensor with explicit
    three-index bookkeeping; the run from |1> is evolved, not mirrored.  The
    conditional move acts on every site |x, y> and displaces both walker
    indices together, coin 0 to |x + 1, y + 1> and coin 1 to |x - 1, y - 1>,
    so off-diagonal support would move as the diagonal does; from the
    origin none ever arises (a test checks every entry to t = 60).  Each
    step also grows the lattice by one site at both ends of both walker
    axes, so no amplitude can leave it.  The step count is checked at the
    call, before any step runs.
    """
    if t_max < 0:
        raise ValueError(f"step count must be non-negative, got {t_max}")
    return _dense_steps(t_max)


def _dense_steps(t_max: int) -> Iterator[np.ndarray]:
    runs = np.eye(2, dtype=np.complex128).reshape(2, 2, 1, 1)
    yield runs
    for _ in range(t_max):
        runs = _dense_step(runs)
        yield runs


def _dense_step(runs: np.ndarray) -> np.ndarray:
    """The (2, 2, n+2, n+2) runs one step on from (2, 2, n, n) runs over
    sites [-s, s]^2: the Hadamard coin mixes every site, then coin 0 moves
    from (x, y) to (x + 1, y + 1) and coin 1 to (x - 1, y - 1), on the
    lattice [-s-1, s+1]^2, where site x sits one index further up."""
    s = math.sqrt(0.5)
    coin = np.array(((s, s), (s, -s)), dtype=np.complex128)
    n = runs.shape[-1]
    mixed = (coin @ runs.reshape(2, 2, -1)).reshape(runs.shape)
    stepped = np.zeros((2, 2, n + 2, n + 2), dtype=np.complex128)
    stepped[:, 0, 2:, 2:] = mixed[:, 0]
    stepped[:, 1, :n, :n] = mixed[:, 1]
    return stepped


def _coin_products(coins: Sequence[CoinSpinor]) -> np.ndarray:
    """(C, 2, 2) products c_a conj(c_b) of each coin's amplitudes
    (c_0, c_1) = (alpha, beta): the weights of the bilinear terms
    run_a run_b^dagger in the coin's state alpha run0 + beta run1."""
    amplitudes = np.array([(coin.amp0, coin.amp1) for coin in coins], dtype=np.complex128)
    return amplitudes[:, :, None] * amplitudes[:, None, :].conj()


def dense_branches(runs: np.ndarray, coins: Sequence[CoinSpinor]) -> list[Branches]:
    """Weight and entropy in bits of coin branches 0 and 1 of each coin's
    dense state alpha run0 + beta run1, for the runs ``dense_trajectory``
    yields; the entropy is None for a branch no heavier than PROB_EPS.

    The runs are cropped to the union of the nonzero rows and columns of all
    four of their matrices (see the module docstring).  Branch c of a coin
    is M = alpha R0 + beta R1, R_a the cropped coin-c matrix of run a, so
    its reduced density matrix (walker 2 traced out) is
    M M^dagger = sum_ab c_a conj(c_b) R_a R_b^dagger: the four products are
    formed once per step and summed with each coin's weights in one matmul.
    A branch weighs the trace of its matrix; the entropies come from the
    eigenvalues of all 2C matrices, found by ``_eigenvalues`` block by block
    and divided by their branch's weight.  The eigen-decomposition does
    not assume the matrices are diagonal, so it stays independent of the
    fast path's Schmidt shortcut: any coherence the runs hold joins its
    sites into one block, diagonalized whole.
    """
    nonzero = runs.any(axis=(0, 1))
    cropped = runs[:, :, nonzero.any(axis=1)][:, :, :, nonzero.any(axis=0)]
    # products[a, b, c] = R_a R_b^dagger of branch c
    products = cropped[:, None] @ cropped.conj().swapaxes(-1, -2)
    rho = (_coin_products(coins).reshape(-1, 4) @ products.reshape(4, -1)).reshape(
        -1, *products.shape[2:]
    )
    weights = np.trace(rho, axis1=2, axis2=3).real
    present = weights > PROB_EPS
    eigenvalues = _eigenvalues(rho)
    # an absent branch is left unscaled; its eigenvalues are never read
    eigenvalues /= np.where(present, weights, 1.0)[:, :, None]
    logs = np.log2(eigenvalues, out=np.zeros_like(eigenvalues), where=eigenvalues > EIGVAL_EPS)
    entropies = np.maximum(0.0, -np.sum(eigenvalues * logs, axis=2))
    return [
        tuple((w, e if p else None) for w, e, p in zip(*row))
        for row in zip(weights.tolist(), entropies.tolist(), present.tolist())
    ]


def _eigenvalues(rho: np.ndarray) -> np.ndarray:
    """(..., m) eigenvalues, in no fixed order, of each Hermitian matrix of
    a (..., m, m) stack, read from its lower triangle as ``eigvalsh`` reads
    it, found one exact block at a time.

    Indices i and j are linked when entry (i, j) or (j, i) is nonzero in any
    matrix of the stack.  Every matrix is then block diagonal over the
    connected components of the links, since an entry zero in all of them
    couples nothing, so its eigenvalues are those of its blocks.  The blocks
    of each size are gathered, each in ascending index order so that its
    lower triangle is the matrix's, and diagonalized by one ``eigvalsh``
    call per size.
    """
    m = rho.shape[-1]
    linked = rho.reshape(-1, m, m).any(axis=0)
    linked |= linked.T
    np.fill_diagonal(linked, True)
    # each index takes the least label among its links, then its label's
    # label, until nothing moves: every index of a component then holds the
    # component's least index
    labels = np.arange(m)
    while True:
        least = np.where(linked, labels, m).min(axis=1)
        least = least[least]
        if np.array_equal(least, labels):
            break
        labels = least
    sizes = np.bincount(labels, minlength=m)[labels]
    spectra = []
    for size in np.flatnonzero(np.bincount(sizes)).tolist():
        members = np.flatnonzero(sizes == size)
        blocks = members[np.argsort(labels[members], kind="stable")].reshape(-1, size)
        gathered = rho[..., blocks[:, :, None], blocks[:, None, :]]
        spectra.append(np.linalg.eigvalsh(gathered).reshape(*rho.shape[:-2], -1))
    return np.concatenate(spectra, axis=-1)


def dense_marginals(runs: np.ndarray, coins: Sequence[CoinSpinor]) -> np.ndarray:
    """(C, 2t+1) walker-1 position distribution of each coin's dense state
    alpha run0 + beta run1 over sites -t..t: the sum over coin and walker 2
    of its |amplitude|^2, formed from the runs' bilinear products as in
    ``dense_branches``."""
    products = np.einsum("acij,bcij->abi", runs, runs.conj())
    return (_coin_products(coins).reshape(-1, 4) @ products.reshape(4, -1)).real


def path_sum_table(coin_init: CoinSpinor, t: int) -> dict[tuple[int, int], complex]:
    """All t-step amplitudes keyed (position, coin index), start at the origin,
    summed over all 2^t coin histories with Hadamard matrix-element weights.

    Path k takes coin ``(k >> (t - 1 - j)) & 1`` at step j; its weight is the
    initial coin's mix into its first coin times ``h[current, previous]`` of
    each later step, the factors multiplied in step order, and the table is
    summed in path order.  The depth is checked before any path is
    enumerated.
    """
    if not 0 <= t <= MAX_PATH_SUM_STEPS:
        raise ValueError(f"path summation supports 0 <= t <= {MAX_PATH_SUM_STEPS}, got {t}")
    s = math.sqrt(0.5)
    h = np.array(((s, s), (s, -s)))
    a = (complex(coin_init.amp0), complex(coin_init.amp1))
    if t == 0:
        return {(0, 0): a[0], (0, 1): a[1]}
    paths = np.arange(1 << t)
    previous = paths >> (t - 1)
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
    return {(int(k) // 2 - t, int(k) % 2): complex(real[k], imag[k]) for k in np.flatnonzero(hits)}


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
    exactly, as integers over one common denominator: ``(a, b, r, scale)``.

    Each float is an integer over a power of two, so all four parts are
    integers u, v, w, z over the largest of those powers, d:
    alpha = (u + iv) / d and beta = (w + iz) / d, and the three mixings are
    integers over d^2.
    """
    alpha, beta = coin.amp0, coin.amp1
    ratios = [x.as_integer_ratio() for x in (alpha.real, alpha.imag, beta.real, beta.imag)]
    d = max(q for _, q in ratios)
    u, v, w, z = (p * (d // q) for p, q in ratios)
    return u * u + v * v, w * w + z * z, 2 * (u * w + v * z), d * d


def _branch_numerators(
    coin: CoinSpinor, n0: list[int], n1: list[int]
) -> tuple[list[int], list[int], int]:
    """Exact site weights of both coin branches of the walk from ``coin``,
    at the step whose ``exact_run(t, 0)`` rows are n0, n1, as integer
    numerators over one common denominator: ``(branch 0, branch 1,
    denominator)``, branch 1 read at the mirrored index.

    The walk is alpha A + beta B with B the mirror image of A, so branch 0
    weighs |alpha n0[k] + beta m0[k]|^2 / 2^t at index k, with
    m0[k] = (-1)^(t+1) n1[t - k], and branch 1 weighs
    |beta n0[k] - alpha m0[k]|^2 / 2^t at the mirrored index.  The coin's
    floats are exact dyadic rationals, so every weight is an exact rational.
    """
    t = len(n0) - 1
    sign = 1 if t % 2 else -1
    m0 = [sign * n1[t - k] for k in range(t + 1)]
    a, b, r, scale = _coin_mixing(coin)
    w0, w1 = (
        [cx * u * u + cy * v * v + cz * u * v for u, v in zip(n0, m0)]
        for cx, cy, cz in ((a, b, r), (b, a, -r))
    )
    return w0, w1, scale << t


def exact_branches(
    coin: CoinSpinor, n0: list[int], n1: list[int]
) -> tuple[tuple[float, float | None, int | None], ...]:
    """Weight, entropy in bits and kept count of both coin branches of the
    walk from ``coin``, at the step whose ``exact_run(t, 0)`` rows are n0, n1.

    Each weight is the exact rational of ``_branch_numerators``, rounded
    once.  A branch no heavier than PROB_EPS is absent; sites lighter than
    SUPPORT_EPS times the branch weight are cut; the entropy is
    -sum q log2 q over the kept q = weight / branch weight.
    """
    *branches, denominator = _branch_numerators(coin, n0, n1)
    cut_numerator, cut_denominator = (math.sqrt(SUPPORT_EPS) ** 2).as_integer_ratio()
    results = []
    for numerators in branches:
        total = sum(numerators)
        weight = total / denominator
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

    Site -t + 2k weighs branch 0's coin-0 weight there plus branch 1's
    coin-1 weight, which ``_branch_numerators`` holds at the mirrored index
    t - k: two exact numerators, summed before the one rounding.
    """
    w0, w1, denominator = _branch_numerators(coin, n0, n1)
    t = len(n0) - 1
    numerators = [q0 + q1 for q0, q1 in zip(w0, reversed(w1))]
    return {2 * k - t: q / denominator for k, q in enumerate(numerators) if q}
