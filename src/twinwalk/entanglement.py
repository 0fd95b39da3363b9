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

``branch_entropies`` measures many unnormalized branch rows (a block of
``evolution.trajectory_blocks``, both coin components) in one fused pass.
Per row, with m = |b| and weight w = m . m, the sites kept are
m >= COEFF_EPS sqrt(w) and, with q = m^2 over them, E = log2 w - (q . log2 q) / w.
That form holds when only exact zeros are cut; the code evaluates
-(q . (log2 q - log2 w)) / w, which is -sum p log2 p over the kept p = q / w
even when a cut site carries mass (up to SUPPORT_EPS w each), so a truncated
branch gets the entropy of its kept coefficients.  The whole block takes one
mask, one compress and one log2; the per-row sums come from
``np.add.reduceat`` over the compressed sites, which are row-major, so each
row's sites are contiguous.
"""

from __future__ import annotations

import math

import numpy as np

from .measurement import PROB_EPS
from .states import SUPPORT_EPS

#: Schmidt coefficients below this are dropped before taking logs
COEFF_EPS = math.sqrt(SUPPORT_EPS)


def branch_entropies(
    rows: np.ndarray,
) -> tuple[list[float], list[float | None], list[int | None]]:
    """Weights, entropies in bits and kept Schmidt coefficients of branch rows.

    ``rows`` holds unnormalized diagonal amplitudes along its last axis, one
    branch per row; the results are in row-major order of the other axes.
    A branch no heavier than PROB_EPS (an all-zero row included) is absent:
    its entropy and count are None.  Only the Schmidt coefficients
    ``|b| / sqrt(weight)`` of at least COEFF_EPS enter the entropy; the
    coefficients themselves are never formed (see the module docstring).
    """
    *lead, width = rows.shape
    moduli = np.abs(rows).reshape(math.prod(lead), width)
    weights = np.matmul(moduli[:, None, :], moduli[:, :, None])[:, 0, 0]
    present = weights > PROB_EPS
    # an absent row keeps no site: its cut is infinite
    cut = np.where(present, COEFF_EPS * np.sqrt(weights), np.inf)
    keep = moduli >= cut[:, None]
    q = moduli[keep]
    q *= q
    counts = keep.sum(axis=1, dtype=np.int32)
    kept_counts = counts[present]
    present_weights = weights[present]
    values: list[float] = []
    if len(kept_counts):
        # every present row keeps at least its largest site, so no start repeats
        starts = np.cumsum(kept_counts) - kept_counts
        terms = np.log2(q)
        terms -= np.repeat(np.log2(present_weights), kept_counts)
        terms *= q
        sums = np.add.reduceat(terms, starts)
        # 0.0 - x rather than -x, so that a point branch gets +0.0, not -0.0
        values = np.maximum(0.0 - sums / present_weights, 0.0).tolist()
    entropies = iter(values)
    flags = present.tolist()
    return (
        weights.tolist(),
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
