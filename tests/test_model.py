import math

import numpy as np
import pytest

from spinmap import dynamics, mapping, teleport
from spinmap.model import (
    AtomicPhysics,
    DriveParams,
    FeasibilityCondition,
    FeasibilityReport,
    MediumParams,
    check_feasibility,
    coupling_kappa1,
    coupling_kappa2,
    optical_depth,
    power_broadening,
    raman_cross_section,
    resonant_depth_estimate,
    saturation_intensity,
    total_dephasing,
    two_level_cross_section,
)

CS_WAVELENGTH = 852e-9
CS_OMEGA = 2.2108586470761188e15  # 2 pi c / lambda


def make_medium(**kw):
    defaults = dict(density=5.673988e15, length=1.017000e-2, area=8.664841e-9,
                    gamma0=1.0, wavelength=CS_WAVELENGTH)
    defaults.update(kw)
    return MediumParams(**defaults)


def make_drive(**kw):
    defaults = dict(g=1.966588e8, gamma_s=1.0e5, tau_pulse=1.0e-2)
    defaults.update(kw)
    return DriveParams(**defaults)


def make_physics(**kw):
    defaults = dict(omega=CS_OMEGA, delta_1photon=1e9, gamma_i=3.27e7,
                    dipole_sum=4.8e-46, saturation=4.0, gamma_q=1e7,
                    k_mismatch=2.0)
    defaults.update(kw)
    return AtomicPhysics(**defaults)


class TestDephasingAndDepth:
    def test_dephasing_additive(self):
        medium = make_medium(gamma0=1.0)
        assert total_dephasing(medium, make_drive(gamma_s=0.0)) == 1.0
        assert total_dephasing(medium, make_drive(gamma_s=99.0)) == 100.0

    def test_depth_zero_coupling(self):
        assert optical_depth(make_medium(), make_drive(g=0.0)) == 0.0

    def test_depth_definition(self):
        medium = make_medium(gamma0=1.0, length=2.0e-4)
        drive = make_drive(gamma_s=9.0)  # Gamma = 10
        drive = DriveParams(g=60.0 * 10.0 / medium.length, gamma_s=9.0, tau_pulse=1e-2)
        assert optical_depth(medium, drive) == pytest.approx(60.0, rel=1e-14)

    def test_depth_scale_invariance(self):
        # g -> c g together with Gamma -> c Gamma leaves alpha exactly unchanged
        medium = make_medium(gamma0=0.5)
        drive = make_drive(g=3.0e9, gamma_s=1.5e5)
        base = optical_depth(medium, drive)
        for c in (2.0, 4.0, 8.0):
            scaled = optical_depth(
                make_medium(gamma0=0.5 * c),
                make_drive(g=3.0e9 * c, gamma_s=1.5e5 * c),
            )
            assert scaled == base

    def test_resonant_estimate_formula_inversion(self):
        # lambda^2 n L = 2 pi 20 / 3  ->  alpha_res = 20
        target_column = 2.0 * math.pi * 20.0 / (3.0 * CS_WAVELENGTH**2)
        medium = make_medium(density=target_column / 4.0e-4, length=4.0e-4)
        assert resonant_depth_estimate(medium) == pytest.approx(20.0, rel=1e-12)

    def test_resonant_estimate_linear_in_density(self):
        m1 = make_medium(density=1e17)
        m2 = make_medium(density=2e17)
        assert resonant_depth_estimate(m2) == pytest.approx(
            2.0 * resonant_depth_estimate(m1), rel=1e-14
        )

    def test_reference_cesium_setting_reaches_depth_20(self):
        # 5e5 atoms in the example geometry give a resonant depth of 20
        medium = make_medium()
        atoms = medium.density * medium.length * medium.area
        assert atoms == pytest.approx(5e5, rel=2e-3)
        assert resonant_depth_estimate(medium) == pytest.approx(20.0, rel=2e-3)

    def test_power_broadened_depth_matches_resonant_estimate(self):
        # when Gamma ~ Gamma_s and g, Gamma_s derive from the same microscopic
        # couplings, alpha = (3/2pi) lambda^2 n L identically
        phys = make_physics()
        medium = make_medium(gamma0=1e-3)
        kappa1 = coupling_kappa1(phys)
        kappa2 = coupling_kappa2(phys, medium.density)
        es_sq = 7.3e8  # arbitrary strong-field intensity scale
        g = kappa1 * kappa2 * es_sq
        gamma_s = power_broadening(phys, kappa1, es_sq)
        drive = DriveParams(g=g, gamma_s=gamma_s, tau_pulse=1e-2)
        alpha = optical_depth(medium, drive)
        expected = resonant_depth_estimate(medium)
        # model error: the dark rate contribution gamma0 / gamma_s
        assert alpha == pytest.approx(expected, rel=2.0 * medium.gamma0 / gamma_s)


class TestBroadeningAndCrossSections:
    def test_power_broadening_zero_field(self):
        assert power_broadening(make_physics(), 1e-5, 0.0) == 0.0

    def test_power_broadening_linear_in_intensity(self):
        phys = make_physics()
        one = power_broadening(phys, 2e-5, 1.0)
        two = power_broadening(phys, 2e-5, 2.0)
        assert two == pytest.approx(2.0 * one, rel=1e-14)

    def test_power_broadening_long_pulse_condition(self):
        drive = make_drive()
        assert drive.gamma_s * drive.tau_pulse > 100.0

    def test_two_level_cross_section_small_width_limit(self):
        phys_small = make_physics(gamma_i=1e-3)
        phys_ref = make_physics(gamma_i=1.0)
        ratio = two_level_cross_section(phys_small, CS_WAVELENGTH) / two_level_cross_section(
            phys_ref, CS_WAVELENGTH
        )
        assert ratio == pytest.approx(1e-6, rel=1e-12)

    def test_two_level_cross_section_detuning_scaling(self):
        base = two_level_cross_section(make_physics(delta_1photon=1e9), CS_WAVELENGTH)
        quad = two_level_cross_section(make_physics(delta_1photon=4e9), CS_WAVELENGTH)
        assert quad == pytest.approx(base / 16.0, rel=1e-12)

    def test_raman_dominates_for_example_set(self):
        phys = make_physics()
        assert raman_cross_section(phys) > 10.0 * two_level_cross_section(phys, CS_WAVELENGTH)

    def test_saturation_intensity_positive_and_linear(self):
        phys = make_physics()
        assert saturation_intensity(phys) > 0
        doubled = make_physics(dipole_sum=2 * 4.8e-46)
        assert saturation_intensity(doubled) == pytest.approx(
            2.0 * saturation_intensity(phys), rel=1e-14
        )

    def test_singular_inputs_raise(self):
        # zero saturation or bandwidth would make the Raman cross section
        # singular; the record refuses both
        with pytest.raises(ValueError, match="saturation"):
            make_physics(saturation=0.0)
        with pytest.raises(ValueError, match="gamma_q"):
            make_physics(gamma_q=0.0)

    def test_homogeneity_spot_checks(self):
        # sigma_2lev ~ lambda^2, I_sat ~ omega^6
        phys = make_physics()
        assert two_level_cross_section(phys, 2 * CS_WAVELENGTH) == pytest.approx(
            4.0 * two_level_cross_section(phys, CS_WAVELENGTH), rel=1e-12
        )
        scaled = make_physics(omega=2 * CS_OMEGA)
        assert saturation_intensity(scaled) == pytest.approx(
            64.0 * saturation_intensity(phys), rel=1e-12
        )


class TestFeasibility:
    def test_example_set_passes(self):
        report = check_feasibility(make_medium(), make_drive(), make_physics())
        assert report.overall
        assert all(c.passed for c in report.conditions)

    def test_short_pulse_fails_bandwidth_conditions(self):
        report = check_feasibility(make_medium(), make_drive(tau_pulse=1e-9), make_physics())
        assert not report.overall
        failed = {c.name for c in report.conditions if not c.passed}
        assert failed == {
            "power broadening over inverse pulse",
            "quantum bandwidth over inverse pulse",
        }

    def test_single_broken_rate_fails_expected_subset(self):
        # tiny detuning breaks exactly the three detuning comparisons
        # (the cross-section ratio is detuning-independent)
        report = check_feasibility(
            make_medium(), make_drive(), make_physics(delta_1photon=1.0)
        )
        failed = {c.name for c in report.conditions if not c.passed}
        assert failed == {
            "detuning over quantum bandwidth",
            "detuning over power broadening",
            "detuning over upper-level width",
        }

    def test_fresnel_window(self):
        report = check_feasibility(make_medium(area=8.664841e-9 * 50), make_drive(), make_physics())
        failed = {c.name for c in report.conditions if not c.passed}
        assert "fresnel number near unity" in failed

    def test_configurable_ratio(self):
        # detuning over upper-level width has a margin just above 30
        phys = make_physics()
        assert check_feasibility(make_medium(), make_drive(), phys, ratio=30.0).overall
        assert not check_feasibility(make_medium(), make_drive(), phys, ratio=31.0).overall

    def test_overall_flag_invariant(self):
        good = FeasibilityCondition("x", 1.0, 0.0, 10.0, True)
        bad = FeasibilityCondition("y", 0.0, 1.0, 10.0, False)
        assert not FeasibilityReport(conditions=(good, bad)).overall
        assert FeasibilityReport(conditions=(good, good)).overall
        assert FeasibilityReport(conditions=()).overall

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_medium(length=-1.0)
        with pytest.raises(ValueError):
            make_drive(g=-1.0)
        with pytest.raises(ValueError):
            DriveParams(g=1.0, gamma_s=0.0, tau_pulse=1e-2, profile=((1.0, -0.5),))


NAN = float("nan")
FLAT = mapping.SqueezingModel.flat(1.0)


NAN_CASES = {
    "DriveParams.g": lambda: DriveParams(g=NAN, gamma_s=0.0, tau_pulse=1.0),
    "DriveParams.gamma_s": lambda: DriveParams(g=1.0, gamma_s=NAN, tau_pulse=1.0),
    "DriveParams.profile_power": lambda: DriveParams(g=1.0, gamma_s=0.0, tau_pulse=1.0,
                                                     profile=((0.5, NAN),)),
    "AtomicPhysics.saturation": lambda: make_physics(saturation=NAN),
    "power_broadening.es_sq": lambda: power_broadening(make_physics(), 1.0, NAN),
    "flat.x0_sq": lambda: mapping.SqueezingModel.flat(NAN),
    "lorentzian.gamma_q": lambda: mapping.SqueezingModel.lorentzian(NAN),
    "lorentzian.s": lambda: mapping.SqueezingModel.lorentzian(1.0, s=NAN),
    "atomic_vacuum_fraction.alpha": lambda: mapping.atomic_vacuum_fraction(NAN),
    "variance_closed.x0_sq": lambda: mapping.variance_closed(1.0, NAN),
    "transmitted_spectrum.alpha": lambda: mapping.transmitted_spectrum(NAN, 0.0, 1.0),
    "transmitted_spectrum.s0": lambda: mapping.transmitted_spectrum(1.0, 0.0, NAN),
    "atomic_spectral_density.s0": lambda: mapping.atomic_spectral_density(1.0, 0.0, NAN),
    "variance_spectral.alpha": lambda: mapping.variance_spectral(NAN, FLAT),
    "efficiency_curve.grid": lambda: mapping.efficiency_curve([0.0, NAN], FLAT),
    "coupling_r.alpha_pulse": lambda: teleport.coupling_r(NAN),
    "BsReport.r": lambda: teleport.BsReport(r=NAN, valid=True, commutator_defect=0.0),
    "readout_noise_budget.r": lambda: teleport.readout_noise_budget(NAN, 0.0),
    "readout_noise_budget.epr_residual": lambda: teleport.readout_noise_budget(1.0, NAN),
    "TwoModeGaussian.cov": lambda: teleport.TwoModeGaussian(mean=np.zeros(4),
                                                            cov=np.diag([1.0, NAN, 1.0, 1.0])),
    "PulseArea.breakpoints": lambda: dynamics.PulseArea(breakpoints=(NAN,), rates=(1.0,)),
    "PulseArea.rates": lambda: dynamics.PulseArea(breakpoints=(1.0,), rates=(NAN,)),
    "PulseArea.final_rate": lambda: dynamics.PulseArea.constant(NAN),
}


@pytest.mark.parametrize("build", NAN_CASES.values(), ids=NAN_CASES.keys())
def test_records_and_arguments_reject_nan(build):
    # a "< 0" check lets NaN through; every one of these is written "not >= 0"
    with pytest.raises(ValueError):
        build()
