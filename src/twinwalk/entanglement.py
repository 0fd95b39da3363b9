"""Walker-walker entanglement of a measurement branch.

A branch of the two-walker state has the diagonal form sum_x b_x |x, x>,
which is already a Schmidt decomposition: the Schmidt coefficients are the
moduli |b_x|.  Entanglement is the von Neumann entropy of the squared
coefficients,

    E = - sum_i  a_i^2 log2(a_i^2),

in bits, and is compared against the dimensionality bound log2(t): after t
steps a single coin branch can occupy at most t diagonal sites, so no more
than log2(t) bits of entanglement are attainable.  The attained/attainable
ratio is the quantity whose large-t convergence the experiment driver tracks.

``branch_entropies`` measures many unnormalized branches in one fused pass,
each given as a row of site weights |b_x|^2 (``experiment`` forms them from
the real run without complex numbers) and the row's sum w.  Each row is
divided by its w, which also clears any common scale of the row; the sites
kept are those with p >= COEFF_EPS^2, and E = -sum p log2 p over them.  When
a cut site carries mass (up to SUPPORT_EPS w each) the kept p do not quite
sum to 1, and a truncated branch gets the entropy of its kept coefficients.
The whole block takes one divide, one mask, one compress and one log2; the
per-row sums come from ``np.add.reduceat`` over the compressed sites, which
are row-major, so each row's sites are contiguous.
"""

from __future__ import annotations

import math

import numpy as np

from .states import SUPPORT_EPS

#: Schmidt coefficients below this are dropped before taking logs
COEFF_EPS = math.sqrt(SUPPORT_EPS)


def branch_entropies(
    site_weights: np.ndarray,
    weights: np.ndarray,
    present: np.ndarray,
    work: np.ndarray | None = None,
) -> tuple[list[float | None], list[int | None]]:
    """Entropies in bits and kept Schmidt coefficients of branch rows.

    Row r of ``site_weights`` holds the site weights |b_x|^2 of one branch,
    all times one positive factor, and ``weights[r]`` their sum times the
    same factor; neither result depends on it.  A branch not marked
    ``present`` is absent: its entropy and count are None.  Only sites with a
    weight of at least COEFF_EPS^2 times the branch weight enter the entropy
    (see the module docstring).  ``work``, when given, is working space of
    at least three times ``site_weights.size`` floats that the pass fills in
    place of allocating its own.
    """
    rows, width = site_weights.shape
    size = rows * width
    if work is None:
        work = np.empty(3 * size)
    # an absent row keeps no site: divided by an infinite weight, it is all 0
    normalized = np.divide(
        site_weights,
        np.where(present, weights, np.inf)[:, None],
        out=work[:size].reshape(rows, width),
    )
    keep = normalized >= COEFF_EPS * COEFF_EPS
    counts = keep.sum(axis=1, dtype=np.int32)
    kept = int(counts.sum())
    p = np.compress(keep.ravel(), normalized.ravel(), out=work[size : size + kept])
    kept_counts = counts[present]
    values: list[float] = []
    if len(kept_counts):
        # every present row keeps at least its largest site, so no start repeats
        starts = np.cumsum(kept_counts) - kept_counts
        terms = np.log2(p, out=work[2 * size : 2 * size + kept])
        terms *= p
        sums = np.add.reduceat(terms, starts)
        # 0.0 - x rather than -x, so that a point branch gets +0.0, not -0.0
        values = np.maximum(0.0 - sums, 0.0).tolist()
    entropies = iter(values)
    flags = present.tolist()
    return (
        [next(entropies) if flag else None for flag in flags],
        [count if flag else None for count, flag in zip(counts.tolist(), flags)],
    )


def max_entanglement(step: int) -> float:
    """Attainable walker-walker entanglement after ``step`` steps, in bits.

    Each coin branch spans at most ``step`` diagonal sites, so the bound is
    log2(step) purely from the dimensionality of the explored space.
    """
    if step < 1:
        raise ValueError(f"the bound is defined for step >= 1, got {step}")
    return math.log2(step)


def entanglement_ratio(entropy: float, step: int) -> float | None:
    """Attained entropy over the attainable bound; None when the bound is zero."""
    bound = max_entanglement(step)
    if bound == 0.0:
        return None
    return entropy / bound
