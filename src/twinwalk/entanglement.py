"""Walker-walker entanglement of a measurement branch.

A branch of the two-walker state has the diagonal form sum_x b_x |x, x>,
which is already a Schmidt decomposition: the Schmidt coefficients are the
moduli |b_x|.  Entanglement is the von Neumann entropy of the squared
coefficients,

    E = - sum_i  a_i^2 log2(a_i^2),

in bits, and is compared against the dimensionality bound log2(t): after t
steps a single coin branch can occupy at most t diagonal sites, so no more
than log2(t) bits of entanglement are attainable.  The attained/attainable
ratio, which ``experiment.ratio_columns`` forms, is the quantity whose
large-t convergence the experiment driver tracks.

``branch_entropies`` measures many unnormalized branches in one fused pass,
each given as a row of site weights |b_x|^2 (``experiment`` forms them from
the real run without complex numbers) and the row's sum w.  Each row is
divided by its w, which also clears any common scale of the row; the sites
kept are those with p >= COEFF_EPS^2, and E = -sum p log2 p over them.  When
a cut site carries mass (up to SUPPORT_EPS w each) the kept p do not quite
sum to 1, and a truncated branch gets the entropy of its kept coefficients.
The whole block takes one divide, one mask, one boolean-index selection and
one log2; the per-row sums come from ``np.add.reduceat`` over the selected
sites, which are row-major, so each row's sites are contiguous.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .states import SUPPORT_EPS

#: Schmidt coefficients below this are dropped before taking logs
COEFF_EPS = math.sqrt(SUPPORT_EPS)


def branch_entropies(
    site_weights: np.ndarray, weights: np.ndarray, present: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Entropies in bits and kept Schmidt coefficients of branch rows.

    Row r of ``site_weights`` holds the site weights |b_x|^2 of one branch,
    all times one positive factor, and ``weights[r]`` their sum times the
    same factor; neither result depends on it.  A branch not marked
    ``present`` is absent: its entropy is NaN and its count 0.  Only sites
    with a weight of at least COEFF_EPS^2 times the branch weight enter the
    entropy (see the module docstring).  The pass works in place: it
    overwrites ``site_weights``.
    """
    # an absent row keeps no site: divided by an infinite weight, it is all 0
    divisors = np.where(present, weights, np.inf)[:, None]
    normalized = np.divide(site_weights, divisors, out=site_weights)
    keep = normalized >= COEFF_EPS * COEFF_EPS
    counts = keep.sum(axis=1, dtype=np.int32)
    # the selection is a copy, so the log2 may overwrite ``normalized``
    p = normalized[keep]
    # where each present row's sites start: an absent row keeps none, and
    # every present row keeps at least its largest site, so no start repeats
    starts = list(accumulate(counts[present].tolist(), initial=0))[:-1]
    terms = np.log2(p, out=normalized.reshape(-1)[: len(p)])
    terms *= p
    entropies = np.full(len(counts), np.nan)
    # 0.0 - x rather than -x, so that a point branch gets +0.0, not -0.0
    entropies[present] = np.maximum(0.0 - np.add.reduceat(terms, starts), 0.0)
    return entropies, counts


def max_entanglement(step: int) -> float:
    """Attainable walker-walker entanglement after ``step`` steps, in bits.

    Each coin branch spans at most ``step`` diagonal sites, so the bound is
    log2(step) purely from the dimensionality of the explored space.
    """
    if step < 1:
        raise ValueError(f"the bound is defined for step >= 1, got {step}")
    return math.log2(step)

