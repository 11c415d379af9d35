"""Weak-coupling read-out: the asymmetric beam-splitter linearization.

A short pulse at small optical depth couples the rescaled atomic mode q and
the field area mode theta through

    q_out = q_in - i r theta_in,      theta_out = theta_in - i r q_in,

with r = sqrt(alpha_pulse).  The read-out is reported as scalars: the
coupling r against its linearization threshold, the commutator defect and
the EPR-resource condition.  Taken at face value the map is not
symplectic: commutators grow by exactly r^2, which is surfaced as a
diagnostic rather than silently corrected.  Everything here runs on plain
Python.
"""

import math
from dataclasses import dataclass

DEFAULT_R_THRESHOLD = 0.3
CLASSICAL_BASELINE = 1.0  # one vacuum unit of added noise; the bound any
                          # measure-and-reconstruct strategy cannot beat


@dataclass(frozen=True)
class BsReport:
    r: float
    valid: bool
    commutator_defect: float

    def __post_init__(self):
        if not self.r >= 0:
            raise ValueError("r must be nonnegative")

    @property
    def epr_requirement(self) -> float:
        """The residual noise the EPR resource must stay below: r itself."""
        return self.r


@dataclass(frozen=True)
class ReadoutBudget:
    r: float
    epr_residual: float
    passes: bool
    residual_over_r: float

    @property
    def classical_baseline(self) -> float:
        """The added noise to beat, CLASSICAL_BASELINE."""
        return CLASSICAL_BASELINE


def coupling_r(alpha_pulse: float, threshold: float = DEFAULT_R_THRESHOLD) -> BsReport:
    """Beam-splitter coupling r = sqrt(alpha_pulse) for a short weak pulse.

    valid flags whether r stays below the linearization threshold; the EPR
    resource must carry residual noise below r for the read-out to beat the
    classical baseline.
    """
    if not alpha_pulse >= 0:
        raise ValueError(f"alpha_pulse must be nonnegative, got {alpha_pulse}")
    r = math.sqrt(alpha_pulse)
    return BsReport(
        r=r,
        valid=r <= threshold,
        commutator_defect=commutator_defect(r),
    )


def commutator_defect(r: float) -> float:
    """Deviation of the linearized map from a commutator-preserving one: the
    largest entry of S^T Omega S - Omega, S the map on the real quadratures
    (Xq, Pq, Xtheta, Ptheta) and Omega the two-mode symplectic form.
    S^T Omega S = (1 + r^2) Omega for this map family, so it is r^2,
    returned as such: the product would compute (1 + r^2) - 1 and lose the
    digits of r^2 at small r."""
    if not math.isfinite(r):
        raise ValueError(f"r must be finite, got {r}")
    return r * r


def readout_noise_budget(r: float, epr_residual: float) -> ReadoutBudget:
    """Check the EPR-resource condition epr_residual < r (strict).

    Zero coupling never passes; the report carries the residual-to-coupling
    ratio and the one-vacuum-unit classical baseline for comparison.
    """
    if not r >= 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    if not epr_residual >= 0:
        raise ValueError(f"epr_residual must be nonnegative, got {epr_residual}")
    passes = epr_residual < r
    ratio = epr_residual / r if r > 0 else math.inf
    return ReadoutBudget(r=r, epr_residual=epr_residual, passes=passes, residual_over_r=ratio)
