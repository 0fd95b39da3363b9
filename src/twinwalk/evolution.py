"""The walk's one engine: one real Hadamard run from |0> serves every coin.

A step applies the Hadamard coin (1/sqrt 2) [[1, 1], [1, -1]] to the
amplitude pair at every site and then moves the coin-0 component one site
right and the coin-1 component one site left.  For two correlated walkers the
conditional move displaces both walkers together, so the pair stays on the
diagonal |x, x> and its amplitudes are exactly those of the one-walker walk.

The walk is carried in a parity-compacted layout: after t steps index k holds
site ``-t + 2k``, so only the t + 1 reachable sites are stored.  The step is
linear and real, so the walk from alpha|0> + beta|1> is alpha A + beta B,
where A and B are the real runs from |0> and |1>, and B is A mirrored:

    B0(t)[k] = (-1)^(t+1) A1(t)[t - k],    B1(t)[k] = (-1)^t A0(t)[t - k].

``branch_blocks`` evolves A alone, in float64, K consecutive steps at a time
into the rows of one preallocated ``(2, K + 1, n + 1)`` buffer (K follows
from n and ``BLOCK_BYTES``), and yields each block as the coin-0 rows A0 and
B0 over the block's window.  Those two rows are all a measurement needs:
coin 0 of the walk is alpha A0 + beta B0, and coin 1 is the same pair
mirrored (``coin_rows``).

The run carries 2^(t/2) A(t), whose step needs no multiply:
n0'[k + 1] = n0[k] + n1[k] and n1'[k] = n0[k] - n1[k] (the recurrence
``oracle.exact_run`` follows on integers).  Every ``SCALE_STEPS`` steps the
rows are scaled by 2^(-SCALE_STEPS / 2), which is exact, so a stored row of
step t is A(t) times 2^(m / 2), m = ``row_exponent(t)``.  The run also keeps,
per component, a live window of entries at least ``FLUSH_FLOOR`` in true
magnitude and sets every entry outside it to exactly 0, so no product of two
amplitudes goes subnormal; the flushed tails lie some 130 orders of magnitude
below anything a measurement keeps.  ``trajectory`` is the complex per-step
view alpha A + beta B of the same run.  ``twinwalk verify`` and the tests
check it against the dense-tensor, path-sum and exact-integer oracles in
``oracle``.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

import numpy as np

from .states import CoinSpinor

#: the Hadamard coin's matrix elements are +-H = 2^(-1/2); the run leaves
#: them out of its step and keeps track of the power of 2 they amount to
H = math.sqrt(0.5)

#: bytes of one block's K new rows of both components at full width; it gives
#: K = 16 at n = 1000, K = 8 at n = 2000 and K = 1 from n = 8192 on
BLOCK_BYTES = 256 * 1024

#: the run is scaled by 2^(-SCALE_STEPS / 2) after every SCALE_STEPS steps
SCALE_STEPS = 32

#: amplitudes smaller than this in magnitude are set to exactly 0; the square
#: of anything kept, 1e-300, is still a normal float64
FLUSH_FLOOR = 1e-150

#: first step whose outermost amplitudes, +-2^(-t/2), fall below FLUSH_FLOOR.
#: The run is one fixed sequence of rows, and no entry of it is below the
#: floor and nonzero before this step (a test checks every row), so the
#: windows are only trimmed from here on.
FLUSH_FROM = math.ceil(-2.0 * math.log2(FLUSH_FLOOR))


def block_steps(n: int) -> int:
    """Steps K evolved per block of an n-step walk: 1 <= K <= max(n, 1)."""
    row_bytes = 2 * np.dtype(np.float64).itemsize * (n + 1)
    return max(1, min(n, BLOCK_BYTES // row_bytes))


def row_exponent(t):
    """The m for which a stored row of step t is the true one times 2^(m/2);
    elementwise for an array of steps."""
    return t % SCALE_STEPS


def _trim(row: np.ndarray, lo: int, hi: int, floor: float) -> tuple[int, int]:
    """Zero the entries of ``row[lo:hi]`` below ``floor``, working in from
    both ends, and return the live window left.

    The tails beyond the light cone decay monotonically outward, so a window
    edge at or above the floor has nothing below it further in.
    """
    while lo < hi and abs(row[lo]) < floor:
        row[lo] = 0.0
        lo += 1
    while hi > lo and abs(row[hi - 1]) < floor:
        row[hi - 1] = 0.0
        hi -= 1
    return lo, hi


def branch_blocks(n: int) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Blocks ``(first, lo, a0, b0)`` of the coin-0 rows of the real Hadamard
    runs from |0> (A) and from |1> (B), after 0..n steps from the origin.

    Row j of ``a0`` and ``b0`` holds A0 and B0 after t = ``first + j`` steps,
    times 2^(m/2) with m = ``row_exponent(t)``; column i is index ``lo + i``
    (site ``-t + 2(lo + i)``).  Every index outside the block's window
    ``[lo, lo + a0.shape[1])`` is exactly 0, and so is every entry past a
    row's step.  The first block is step 0 alone; each later one holds the
    next K steps (fewer at the end).  Both arrays are overwritten by the next
    block.
    """
    if n < 0:
        raise ValueError(f"step count must be non-negative, got {n}")
    k = block_steps(n)
    # A0 and (-1)^(t+1) A1 rows, so that the second, mirrored, is B0 as it
    # stands; row 0 holds the last step of the previous block, rows 1..K the
    # new ones.  A step rewrites its row over every index up to its step, and
    # a row only ever holds earlier steps, so every row is zero past its step.
    amps = np.zeros((2, k + 1, n + 1))
    rows0, rows1 = list(amps[0]), list(amps[1])
    # the yielded rows, contiguous: numpy runs a whole block in one loop then
    out = np.empty((2, k * (n + 1)))
    amps[0, 0, 0] = 1.0
    yield 0, 0, amps[0, :1, :1], np.zeros((1, 1))
    # live windows of A0 and A1 at the last step: every entry outside is 0
    lo0, hi0, lo1, hi1 = 0, 1, 0, 1
    done = 0
    while done < n:
        count = min(k, n - done)
        first, last = done + 1, done + count
        # no step moves a window's low end down or its high end up by more
        # than 1, so this block's rows of A0 and A1 are zero outside
        # [lo, hi + count), and B0 = mirrored A1 outside its reflection
        lo, hi = min(lo0, lo1), max(hi0, hi1)
        window_lo = max(0, min(lo, first - hi - count + 1))
        window_hi = min(last + 1, max(hi + count, last + 1 - lo))
        for j in range(count):
            t = first + j
            a, b, dst0, dst1 = rows0[j][:t], rows1[j][:t], rows0[j + 1], rows1[j + 1]
            # coin 0 moves right (one index up), coin 1 left (same index); the
            # coin-1 row is stored times (-1)^(t+1), which flips with each step
            if t % 2:
                np.subtract(a, b, out=dst0[1 : t + 1])
                np.add(b, a, out=dst1[:t])
            else:
                np.add(a, b, out=dst0[1 : t + 1])
                np.subtract(b, a, out=dst1[:t])
            dst0[0] = dst1[t] = 0.0
            m = row_exponent(t)
            if m == 0:
                amps[:, j + 1, : t + 1] *= 2.0 ** -(SCALE_STEPS // 2)
            lo = lo0 if lo0 < lo1 else lo1
            hi = hi0 if hi0 > hi1 else hi1
            lo0, hi0, lo1, hi1 = lo + 1, hi + 1, lo, hi
            if t >= FLUSH_FROM:
                floor = FLUSH_FLOOR * 2.0 ** (m / 2)
                lo0, hi0 = _trim(dst0, lo0, hi0, floor)
                lo1, hi1 = _trim(dst1, lo1, hi1, floor)
        # b0[j, i] = A1[t, t - window_lo - i] (-1)^(t+1) with t = first + j:
        # the stored coin-1 row reversed about its own step.  Past a row's
        # start the view reads on into the previous buffer row, at indices
        # beyond that row's step, which are zero; numpy checks that every
        # read stays inside ``amps``.
        width = window_hi - window_lo
        flipped = np.ndarray(
            (count, width),
            buffer=amps,
            offset=amps[1, 1, first - window_lo :].ctypes.data - amps.ctypes.data,
            strides=(amps.strides[1] + amps.strides[2], -amps.strides[2]),
        )
        a0, b0 = out[:, : count * width].reshape(2, count, width)
        np.copyto(a0, amps[0, 1 : count + 1, window_lo:window_hi])
        np.copyto(b0, flipped)
        yield first, window_lo, a0, b0
        amps[:, 0, : last + 1] = amps[:, count, : last + 1]
        done = last


def coin_rows(
    coin_init: CoinSpinor,
    block: tuple[int, int, np.ndarray, np.ndarray],
    out: np.ndarray,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Coin-0 and coin-1 amplitudes of the walk from ``coin_init`` at each
    step t of one ``branch_blocks`` block, as length-(t + 1) arrays; coin 0
    is a view into ``out``, a complex array of at least the block's shape
    per coin, and coin 1 a copy.

    Coin 0 is alpha A0 + beta B0.  By the mirror identity coin 1 at index k
    is (-1)^t (beta A0 - alpha B0) at index t - k.  Each row's scale 2^(m/2)
    is divided out of the coin's amplitudes.
    """
    first, lo, a0, b0 = block
    count, width = a0.shape
    steps = first + np.arange(count)
    scale = 2.0 ** (-row_exponent(steps) / 2)
    sign = np.where(steps % 2 == 1, -scale, scale)
    alpha, beta = coin_init.amp0, coin_init.amp1
    amps = out[:, :count, : first + count]
    amps[:, :, :lo] = 0.0
    amps[:, :, lo + width :] = 0.0
    # real and imaginary parts of alpha A0 + beta B0 and of the unmirrored
    # (-1)^t (beta A0 - alpha B0), each a real combination of the two rows;
    # terms with a zero coefficient are left out
    for part, (x, y) in zip(
        (amps[0].real, amps[0].imag, amps[1].real, amps[1].imag),
        (
            (alpha.real * scale, beta.real * scale),
            (alpha.imag * scale, beta.imag * scale),
            (beta.real * sign, -alpha.real * sign),
            (beta.imag * sign, -alpha.imag * sign),
        ),
    ):
        window = part[:, lo : lo + width]
        if x.any():
            np.multiply(a0, x[:, None], out=window)
            if y.any():
                window += b0 * y[:, None]
        elif y.any():
            np.multiply(b0, y[:, None], out=window)
        else:
            window[...] = 0.0
    for j, t in enumerate(steps.tolist()):
        # coin 1 is mirrored into a contiguous array: numpy's complex abs
        # rounds differently on strided data, which would break the exact
        # mirror symmetry of a symmetric coin's distribution
        yield amps[0, j, : t + 1], amps[1, j, t::-1].copy()


def trajectory(coin_init: CoinSpinor, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Coin-0 and coin-1 amplitude arrays after 0..n Hadamard steps from the origin.

    The pair yielded for step t has length t + 1, index k holding site
    ``-t + 2k``: the complex view ``coin_rows`` of the one real run of
    ``branch_blocks``.  The coin-0 array is a view into a buffer that a
    later step overwrites.  The coin's normalization is checked first.
    """
    coin_init.require_normalized()
    blocks = branch_blocks(n)
    step_zero = next(blocks)  # checks n
    out = np.zeros((2, block_steps(n), n + 1), dtype=np.complex128)
    for block in itertools.chain([step_zero], blocks):
        yield from coin_rows(coin_init, block, out)
