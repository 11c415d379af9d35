"""Weak-coupling read-out: the asymmetric beam-splitter linearization.

A short pulse at small optical depth couples the rescaled atomic mode q and
the field area mode theta through

    q_out = q_in - i r theta_in,      theta_out = theta_in - i r q_in,

with r = sqrt(alpha_pulse).  The map is implemented literally on the four
real quadratures (Xq, Pq, Xtheta, Ptheta).  Taken at face value it is not
symplectic: commutators grow by exactly r^2, which is surfaced as a
diagnostic rather than silently corrected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_R_THRESHOLD = 0.3
CLASSICAL_BASELINE = 1.0  # one vacuum unit of added noise; the bound any
                          # measure-and-reconstruct strategy cannot beat

# symplectic form for two modes, (Xq, Pq, Xt, Pt) ordering
OMEGA = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
])


@dataclass(frozen=True)
class TwoModeGaussian:
    """Gaussian state of the atomic mode q and field area mode theta.

    mean : quadrature expectation values (Xq, Pq, Xtheta, Ptheta)
    cov : symmetric 4x4 covariance matrix; vacuum is the identity
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.shape != (4,):
            raise ValueError("mean must have shape (4,)")
        if cov.shape != (4, 4):
            raise ValueError("cov must have shape (4, 4)")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        if not np.all(np.diag(cov) >= 0):  # "not >=" rejects NaN too
            raise ValueError("covariance diagonal must be nonnegative")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @classmethod
    def vacuum(cls) -> "TwoModeGaussian":
        return cls(mean=np.zeros(4), cov=np.eye(4))


@dataclass(frozen=True)
class BsReport:
    r: float
    valid: bool
    epr_requirement: float
    commutator_defect: float

    def __post_init__(self):
        if not self.r >= 0:
            raise ValueError("r must be nonnegative")


@dataclass(frozen=True)
class ReadoutBudget:
    r: float
    epr_residual: float
    passes: bool
    residual_over_r: float
    classical_baseline: float = CLASSICAL_BASELINE


def bs_matrix(r: float) -> np.ndarray:
    """Quadrature representation of the beam-splitter map.

    With q = Xq + i Pq and theta = Xt + i Pt, q - i r theta mixes real and
    imaginary parts crosswise, giving S = I + r K with K antisymmetric.
    Negative r is accepted so the map can be applied in reverse.
    """
    if not math.isfinite(r):
        raise ValueError(f"r must be finite, got {r}")
    return np.array([
        [1.0, 0.0, 0.0, r],
        [0.0, 1.0, -r, 0.0],
        [0.0, r, 1.0, 0.0],
        [-r, 0.0, 0.0, 1.0],
    ])


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
        epr_requirement=r,
        commutator_defect=commutator_defect(r),
    )


def apply_linear_bs(state: TwoModeGaussian, r: float) -> TwoModeGaussian:
    """Apply the linearized beam splitter to means and covariance."""
    s = bs_matrix(r)
    return TwoModeGaussian(mean=s @ state.mean, cov=s @ state.cov @ s.T)


def commutator_defect(r: float) -> float:
    """Deviation of the linearized map from a commutator-preserving one.

    Measured as the largest entry of S^T Omega S - Omega; equals r^2 exactly
    for this map family (S^T Omega S = (1 + r^2) Omega).
    """
    s = bs_matrix(r)
    return float(np.max(np.abs(s.T @ OMEGA @ s - OMEGA)))


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
