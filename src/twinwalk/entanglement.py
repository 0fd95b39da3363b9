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

``branch_entropy`` measures an unnormalized branch array in one fused pass:
with m = |b| and weight w = m . m, the sites kept are m >= COEFF_EPS sqrt(w)
and, with q = m^2 over them, E = log2 w - (q . log2 q) / w.  That form holds
when only exact zeros are cut; the code evaluates -(q . (log2 q - log2 w)) / w,
which is -sum p log2 p over the kept p = q / w even when a cut site carries
mass (up to SUPPORT_EPS w each), so a truncated branch gets the entropy of
its kept coefficients.
"""

from __future__ import annotations

import math

import numpy as np

from .measurement import PROB_EPS
from .states import SUPPORT_EPS

#: Schmidt coefficients below this are dropped before taking logs
COEFF_EPS = math.sqrt(SUPPORT_EPS)


def branch_entropy(amps: np.ndarray) -> tuple[float, float | None, int | None]:
    """Weight, entropy in bits and kept Schmidt coefficients of one coin branch.

    ``amps`` holds the unnormalized diagonal amplitudes of the branch.  A
    branch no heavier than PROB_EPS is absent (entropy and count None), and
    only the Schmidt coefficients ``|a| / sqrt(weight)`` of at least COEFF_EPS
    enter the entropy.  The coefficients are never formed (see the module
    docstring for the fused formula).
    """
    moduli = np.abs(amps)
    weight = float(moduli @ moduli)
    if weight <= PROB_EPS:
        return weight, None, None
    kept = moduli[moduli >= COEFF_EPS * math.sqrt(weight)]
    q = kept * kept
    entropy = -float(q @ (np.log2(q) - math.log2(weight))) / weight
    return weight, max(0.0, entropy), len(kept)


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
