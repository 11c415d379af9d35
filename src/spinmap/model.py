"""Physical parameter records, derived quantities and feasibility checks.

This module is the only SI-facing surface: everything downstream works with
the dimensionless optical depth alpha = g L / Gamma, the detuning ratio
x = Delta / Gamma and the bandwidth ratio b = Gamma_q / Gamma.  The coupling
density g (= kappa1* kappa2 |E_s|^2) is accepted directly so users can drive
the engines without supplying microscopic dipole data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

PI = math.pi
C_LIGHT = 299792458.0              # speed of light [m/s], exact in SI
HBAR = 6.62607015e-34 / (2.0 * PI)  # reduced Planck constant [J s]; h is exact in SI
# absolute quadrature tolerance of the spectral engine and of the CLI
# (tolerance.quad_abs, which the transient command passes on; called directly,
# transient_variance defaults to 1e-10), kept in this numpy-free module so the
# config table can default to it
DEFAULT_SPECTRAL_TOL = 1e-9


def _require_positive(value: float, name: str) -> float:
    if not value > 0:
        raise ValueError(f"{name} must be strictly positive, got {value}")
    return float(value)


def _require_nonnegative(value: float, name: str) -> float:
    if not value >= 0:  # "not >=" rejects NaN too
        raise ValueError(f"{name} must be nonnegative, got {value}")
    return float(value)


@dataclass(frozen=True)
class MediumParams:
    """Ensemble geometry and dark decoherence.

    density : atomic number density n [1/m^3]
    length : sample length L along the propagation axis [m]
    area : cross-sectional area A [m^2]
    gamma0 : dark decoherence rate Gamma_0 with the drive off [1/s]
    wavelength : optical wavelength lambda [m]
    """

    density: float
    length: float
    area: float
    gamma0: float
    wavelength: float

    def __post_init__(self):
        _require_positive(self.density, "density")
        _require_positive(self.length, "length")
        _require_positive(self.area, "area")
        _require_positive(self.gamma0, "gamma0")
        _require_positive(self.wavelength, "wavelength")

    @property
    def fresnel_number(self) -> float:
        return self.area / (self.wavelength * self.length)

    @property
    def column_density(self) -> float:
        """Atoms per unit area nL [1/m^2]; the collective-spin vacuum variance."""
        return self.density * self.length


@dataclass(frozen=True)
class DriveParams:
    """Classical field strength and its envelope.

    g : coupling density kappa1* kappa2 |E_s|^2 at unit relative power [1/(m s)]
    gamma_s : power-broadening dephasing rate with the drive on [1/s]
    tau_pulse : pulse duration [s]
    profile : piecewise-constant envelope of |E_s|^2 as (duration [s],
        relative power) segments; an empty profile means constant unit power
        for the whole pulse.
    """

    g: float
    gamma_s: float
    tau_pulse: float
    profile: Sequence[tuple[float, float]] = field(default_factory=tuple)

    def __post_init__(self):
        _require_nonnegative(self.g, "g")
        _require_nonnegative(self.gamma_s, "gamma_s")
        _require_positive(self.tau_pulse, "tau_pulse")
        for k, (duration, power) in enumerate(self.profile):
            _require_positive(duration, f"profile[{k}].duration")
            _require_nonnegative(power, f"profile[{k}].power")
        object.__setattr__(self, "profile", tuple((float(d), float(p)) for d, p in self.profile))


@dataclass(frozen=True)
class AtomicPhysics:
    """Microscopic inputs for the cross-section and broadening formulas.

    omega : optical angular frequency [rad/s]
    delta_1photon : detuning from the intermediate excited state(s) [rad/s];
        distinct from the two-photon detuning that parametrizes the spectra
    gamma_i : upper-level width [1/s]
    dipole_sum : sum of dipole-moment products over intermediate states [C^2 m^2]
    saturation : saturation parameter S = I_s / I_sat
    gamma_q : spectral width of the quantum field [1/s]
    k_mismatch : wavevector difference k_q - k_s [1/m]
    """

    omega: float
    delta_1photon: float
    gamma_i: float
    dipole_sum: float
    saturation: float
    gamma_q: float
    k_mismatch: float = 0.0

    def __post_init__(self):
        _require_positive(self.omega, "omega")
        _require_positive(self.delta_1photon, "delta_1photon")
        _require_positive(self.gamma_i, "gamma_i")
        _require_positive(self.dipole_sum, "dipole_sum")
        _require_positive(self.saturation, "saturation")
        _require_positive(self.gamma_q, "gamma_q")


@dataclass(frozen=True)
class FeasibilityCondition:
    name: str
    left: float
    right: float
    required_ratio: float
    passed: bool


@dataclass(frozen=True)
class FeasibilityReport:
    conditions: tuple[FeasibilityCondition, ...]

    @property
    def overall(self) -> bool:
        """Whether every condition passes."""
        return all(c.passed for c in self.conditions)


def total_dephasing(medium: MediumParams, drive: DriveParams) -> float:
    """Dephasing rate of the ground-state coherence under drive, Gamma_0 + Gamma_s."""
    return medium.gamma0 + drive.gamma_s


def optical_depth(medium: MediumParams, drive: DriveParams) -> float:
    """Optical depth alpha = g L / Gamma, Gamma the dephasing under drive."""
    return drive.g * medium.length / total_dephasing(medium, drive)


def resonant_depth_estimate(medium: MediumParams) -> float:
    """Resonant narrowband estimate (3 / 2pi) lambda^2 n L.

    Coincides with ``optical_depth`` exactly when the dephasing is dominated
    by power broadening and g, Gamma_s derive from the same kappa1, |E_s|^2.
    """
    return (3.0 / (2.0 * PI)) * medium.wavelength**2 * medium.column_density


def coupling_kappa1(phys: AtomicPhysics) -> float:
    """kappa1 = dipole_sum / (hbar^2 Delta_i); real magnitude convention."""
    return phys.dipole_sum / (HBAR**2 * phys.delta_1photon)


def coupling_kappa2(phys: AtomicPhysics, density: float) -> float:
    """kappa2 = 2 pi n hbar omega kappa1 / c."""
    return 2.0 * PI * density * HBAR * phys.omega * coupling_kappa1(phys) / C_LIGHT


def power_broadening(phys: AtomicPhysics, kappa1: float, es_sq: float) -> float:
    """Power-broadening rate Gamma_s = omega^3 hbar |kappa1|^2 |E_s|^2 / (3 c^3)."""
    _require_nonnegative(es_sq, "es_sq")
    return phys.omega**3 * HBAR * abs(kappa1) ** 2 * es_sq / (3.0 * C_LIGHT**3)


def saturation_intensity(phys: AtomicPhysics) -> float:
    """Strong-field saturation intensity I_sat = omega^6 / (9 pi c^5) * dipole_sum."""
    return phys.omega**6 / (9.0 * PI * C_LIGHT**5) * phys.dipole_sum


def raman_cross_section(phys: AtomicPhysics) -> float:
    """Stimulated Raman cross section for the quantum field,

        sigma_R = (6 pi)^4 c^8 I_sat^2 / (2 Gamma_q S omega^11 hbar^3 Delta_i^2).
    """
    i_sat = saturation_intensity(phys)
    six_pi = 6.0 * PI
    return (
        six_pi**4
        * C_LIGHT**8
        * i_sat**2
        / (2.0 * phys.gamma_q * phys.saturation * phys.omega**11 * HBAR**3 * phys.delta_1photon**2)
    )


def two_level_cross_section(phys: AtomicPhysics, wavelength: float) -> float:
    """Spontaneous two-level cross section sigma = 3 lambda^2 gamma_i^2 / (8 pi Delta_i^2)."""
    return 3.0 * wavelength**2 * phys.gamma_i**2 / (8.0 * PI * phys.delta_1photon**2)


def check_feasibility(
    medium: MediumParams,
    drive: DriveParams,
    phys: AtomicPhysics,
    ratio: float = 10.0,
    fresnel_range: tuple[float, float] = (0.3, 3.0),
) -> FeasibilityReport:
    """Evaluate the experimental inequality chain.

    Every "much greater" is operationalized as left >= ratio * right and every
    "much less" as left <= right / ratio; failures are reported, never raised.
    """
    _require_positive(ratio, "ratio")
    conditions = []

    def much_greater(name: str, left: float, right: float):
        conditions.append(
            FeasibilityCondition(name, left, right, ratio, left >= ratio * right)
        )

    much_greater("detuning over quantum bandwidth", phys.delta_1photon, phys.gamma_q)
    much_greater("detuning over power broadening", phys.delta_1photon, drive.gamma_s)
    much_greater("detuning over upper-level width", phys.delta_1photon, phys.gamma_i)
    much_greater(
        "raman over two-level cross section",
        raman_cross_section(phys),
        two_level_cross_section(phys, medium.wavelength),
    )
    much_greater("power broadening over inverse pulse", drive.gamma_s, 1.0 / drive.tau_pulse)
    much_greater("quantum bandwidth over inverse pulse", phys.gamma_q, 1.0 / drive.tau_pulse)

    mismatch = abs(phys.k_mismatch) * medium.length
    conditions.append(
        FeasibilityCondition("wavevector mismatch across sample", mismatch, 1.0, ratio, mismatch <= 1.0 / ratio)
    )
    fresnel = medium.fresnel_number
    lo, hi = fresnel_range
    conditions.append(
        FeasibilityCondition("fresnel number near unity", fresnel, 1.0, hi, lo <= fresnel <= hi)
    )

    return FeasibilityReport(conditions=tuple(conditions))
