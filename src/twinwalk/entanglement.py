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
mass (up to SUPPORT_EPS w each), so the truncation matches schmidt_spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measurement import PROB_EPS, BranchState
from .states import SUPPORT_EPS, NORM_TOL

#: Schmidt coefficients below this are dropped before taking logs
COEFF_EPS = math.sqrt(SUPPORT_EPS)


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Non-increasing, non-negative Schmidt coefficients with unit square sum."""

    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.coefficients) < 1:
            raise ValueError("a Schmidt spectrum needs at least one coefficient")
        if any(c < 0.0 for c in self.coefficients):
            raise ValueError("Schmidt coefficients must be non-negative")
        if any(
            a < b for a, b in zip(self.coefficients, self.coefficients[1:])
        ):
            raise ValueError("Schmidt coefficients must be sorted descending")
        total = sum(c * c for c in self.coefficients)
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"squared coefficients sum to {total!r}, expected 1")

    def __len__(self) -> int:
        return len(self.coefficients)


@dataclass(frozen=True)
class EntanglementRecord:
    """Entropy of one branch, the attainable bound at its step, and their ratio."""

    entropy: float
    max_entropy: float
    ratio: float | None


def schmidt_spectrum(branch: BranchState) -> SchmidtSpectrum:
    """Schmidt coefficients of the walker-walker split of a diagonal branch.

    The diagonal support already provides the Schmidt basis, so the
    coefficients are just the amplitude moduli, sorted descending with
    sub-COEFF_EPS entries dropped.
    """
    coefficients = sorted((abs(a) for a in branch.amps.values()), reverse=True)
    return SchmidtSpectrum(tuple(c for c in coefficients if c >= COEFF_EPS))


def von_neumann_entropy(spectrum: SchmidtSpectrum) -> float:
    """Entropy in bits of the squared Schmidt coefficients; 0 log 0 counts as 0."""
    total = 0.0
    for c in spectrum.coefficients:
        p = c * c
        if p > 0.0:
            total -= p * math.log2(p)
    return max(0.0, total)


def branch_entropy(amps: np.ndarray) -> tuple[float, float | None, int | None]:
    """Weight, entropy in bits and kept Schmidt coefficients of one coin branch.

    ``amps`` holds the unnormalized diagonal amplitudes of the branch.  The
    semantics are those of post_measurement, schmidt_spectrum and
    von_neumann_entropy: a branch no heavier than PROB_EPS is absent (entropy
    and count None), and only coefficients ``|a| / sqrt(weight)`` of at least
    COEFF_EPS enter the entropy.  The coefficients are never formed (see the
    module docstring for the fused formula).
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


def branch_entanglement(branch: BranchState) -> EntanglementRecord:
    """Entropy, bound and ratio for one post-measurement branch."""
    entropy = von_neumann_entropy(schmidt_spectrum(branch))
    bound = max_entanglement(branch.step)
    ratio = entropy / bound if bound > 0.0 else None
    return EntanglementRecord(entropy=entropy, max_entropy=bound, ratio=ratio)
