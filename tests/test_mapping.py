import math

import numpy as np
import pytest

import oracles
from spinmap import mapping, specfun
from spinmap.mapping import (
    NoiseReport,
    SqueezingModel,
    atomic_spectral_density,
    efficiency_curve,
    eta_closed,
    transmitted_spectrum,
    variance_closed,
    variance_spectral,
)
from scipy.integrate import quad

# frozen from the scaled-Bessel series oracles (1 - i0e - i1e)
ETA_AT_1 = 0.3263299770566511
ETA_AT_20 = 0.8227134659318853
ETA_AT_60 = 0.8972088206373614


class TestVarianceClosed:
    def test_zero_depth_is_atomic_vacuum(self):
        for x0_sq in (0.0, 0.3, 1.0, 2.5):
            report = variance_closed(0.0, x0_sq)
            assert report.variance_norm == 1.0
            if x0_sq != 1.0:
                assert report.eta == 0.0

    def test_vacuum_input_fixed_point(self):
        report = variance_closed(17.3, 1.0)
        assert report.variance_norm == pytest.approx(1.0, abs=1e-12)
        assert math.isnan(report.eta)

    def test_eta_at_60_frozen(self):
        report = variance_closed(60.0, 0.0)
        assert report.eta == pytest.approx(ETA_AT_60, rel=1e-12)
        assert report.eta == pytest.approx(0.897, abs=5e-4)
        oracle = 1.0 - oracles.i0e_series(60.0) - oracles.i1e_series(60.0)
        assert report.eta == pytest.approx(oracle, rel=1e-12)

    def test_eta_at_20_frozen(self):
        report = variance_closed(20.0, 0.0)
        assert report.eta == pytest.approx(ETA_AT_20, rel=1e-12)
        assert report.eta == pytest.approx(0.823, abs=5e-4)

    def test_decomposition_invariant(self):
        report = variance_closed(3.0, 0.4)
        assert report.variance_norm == pytest.approx(
            report.atom_langevin_part + report.light_part, abs=1e-15
        )
        # flat input keeps the variance between the input and vacuum levels
        assert 0.4 <= report.variance_norm <= 1.0

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            variance_closed(-0.1, 0.0)
        with pytest.raises(ValueError):
            variance_closed(1.0, -0.5)

    def test_report_invariant_enforced(self):
        with pytest.raises(ValueError):
            NoiseReport(variance_norm=1.0, eta=0.0, atom_langevin_part=0.3, light_part=0.3)


class TestEtaClosed:
    def test_endpoints_and_monotonicity(self):
        assert eta_closed(0.0) == 0.0
        grid = np.geomspace(1e-3, 1e6, 120)
        vals = [eta_closed(a) for a in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert eta_closed(1e6) > 0.999

    def test_ninety_percent_crossing_position(self):
        # eta crosses 0.90 between depth 58 and 66 (frozen oracle: 63.41)
        assert eta_closed(58.0) < 0.9 < eta_closed(66.0)
        root = oracles.bisect_root(lambda a: eta_closed(a) - 0.9, 10.0, 200.0)
        assert root == pytest.approx(63.410484972125744, rel=1e-9)


class TestTransmittedSpectrum:
    def test_line_center_value(self):
        assert transmitted_spectrum(1.0, 0.0, 0.0) == pytest.approx(
            1.0 - math.exp(-1.0), rel=1e-12
        )

    def test_far_detuned_passthrough(self):
        assert transmitted_spectrum(5.0, 1e8, 0.37) == pytest.approx(0.37, abs=1e-9)

    def test_vacuum_in_vacuum_out(self):
        for alpha in (0.0, 1.0, 20.0, 500.0):
            for x in (0.0, 1.0, 10.0):
                assert transmitted_spectrum(alpha, x, 1.0) == 1.0

    def test_convex_combination(self):
        for s0 in (0.0, 0.5, 2.0):
            for alpha in (0.5, 5.0):
                for x in (0.0, 2.0, 7.0):
                    out = transmitted_spectrum(alpha, x, s0)
                    assert min(s0, 1.0) <= out <= max(s0, 1.0)

    def test_noise_region_width_grows_with_depth(self):
        # the detuning where output reaches (S0+1)/2 moves outward with alpha
        def half_crossing(alpha):
            return oracles.bisect_root(
                lambda x: transmitted_spectrum(alpha, x, 0.0) - 0.5, 0.0, 1e3
            )
        widths = [half_crossing(a) for a in (1.0, 5.0, 25.0, 125.0)]
        assert all(b > a for a, b in zip(widths, widths[1:]))


class TestAtomicSpectralDensity:
    def test_zero_depth_is_langevin_lorentzian(self):
        for x in (0.0, 0.7, 3.0, 20.0):
            expected = 1.0 / (math.pi * (1.0 + x * x))
            assert atomic_spectral_density(0.0, x, 0.0) == pytest.approx(expected, rel=1e-12)
            # no light contribution at zero depth whatever the input level
            assert atomic_spectral_density(0.0, x, 5.0) == pytest.approx(expected, rel=1e-12)

    def test_vacuum_passthrough_integral(self):
        for alpha in (0.3, 4.0, 40.0):
            value, _ = quad(lambda x: atomic_spectral_density(alpha, x, 1.0), 0.0, math.inf,
                            epsabs=1e-11, epsrel=1e-12, limit=500)
            assert 2.0 * value == pytest.approx(1.0, abs=1e-9)

    def test_blocked_input_integral_reproduces_closed_form(self):
        for alpha in (1.0, 10.0):
            value, _ = quad(lambda x: atomic_spectral_density(alpha, x, 0.0), 0.0, math.inf,
                            epsabs=1e-11, epsrel=1e-12, limit=500)
            closed = variance_closed(alpha, 0.0).atom_langevin_part
            assert 2.0 * value == pytest.approx(closed, abs=1e-9)

    def test_nonnegative(self):
        for alpha in (0.0, 2.0, 80.0):
            for x in np.linspace(-40, 40, 81):
                assert atomic_spectral_density(alpha, float(x), 0.5) >= 0.0


class TestVarianceSpectral:
    def test_flat_matches_closed(self):
        for alpha in (0.1, 1.0, 10.0, 60.0):
            closed = variance_closed(alpha, 0.0).variance_norm
            spectral = variance_spectral(alpha, SqueezingModel.flat(0.0)).variance_norm
            assert abs(spectral - closed) / closed < 1e-6

    def test_deep_atom_integral_bisects(self, monkeypatch):
        # at alpha = 1e5 the langevin density stays flat out to
        # x ~ sqrt(2 alpha), which the adaptive rule's first pass does not resolve
        results = []

        def recording(f, tol):
            results.append(specfun.integrate_adaptive(f, tol))
            return results[-1]

        monkeypatch.setattr(mapping, "integrate_adaptive", recording)
        variance_spectral(1e5, SqueezingModel.flat(0.0))
        first_pass = 3 * specfun.INITIAL_PANELS * specfun.PANEL_NODES
        assert results[0].evaluations > first_pass

    def test_vacuum_fixed_point(self):
        for alpha in (0.0, 0.5, 5.0, 50.0, 500.0):
            report = variance_spectral(alpha, SqueezingModel.flat(1.0))
            assert report.variance_norm == pytest.approx(1.0, abs=1e-6)

    def test_lorentzian_no_squeezing_is_vacuum(self):
        for alpha in (0.0, 0.5, 5.0, 50.0):
            report = variance_spectral(alpha, SqueezingModel.lorentzian(10.0, s=0.0))
            assert report.variance_norm == pytest.approx(1.0, abs=1e-8)

    def test_lorentzian_large_depth_tail_decreases(self):
        model = SqueezingModel.lorentzian(10.0, s=1.0)
        etas = [variance_spectral(a, model).eta for a in (30.0, 60.0, 120.0, 240.0)]
        assert all(b < a for a, b in zip(etas, etas[1:]))

    def test_decomposition(self):
        report = variance_spectral(7.0, SqueezingModel.lorentzian(10.0, s=0.8))
        assert report.variance_norm == pytest.approx(
            report.atom_langevin_part + report.light_part, rel=1e-12
        )


class TestEfficiencyCurve:
    def test_flat_benchmark_depths_frozen(self):
        curve = efficiency_curve([0.0, 1.0, 20.0, 60.0], SqueezingModel.flat(0.0))
        etas = [eta for _, eta in curve]
        assert etas[0] == 0.0
        assert etas[1] == pytest.approx(ETA_AT_1, rel=1e-12)
        assert etas[2] == pytest.approx(ETA_AT_20, rel=1e-12)
        assert etas[3] == pytest.approx(ETA_AT_60, rel=1e-12)
        assert etas[1] == pytest.approx(0.326, abs=5e-4)

    def test_bandwidth_curves_ordered_below_flat(self):
        grid = np.concatenate([[0.0], np.geomspace(0.1, 100.0, 30)])
        flat = [eta_closed(a) for a in grid]
        b50 = [eta for _, eta in efficiency_curve(grid, SqueezingModel.lorentzian(50.0))]
        b10 = [eta for _, eta in efficiency_curve(grid, SqueezingModel.lorentzian(10.0))]
        assert all(f >= x - 1e-10 for f, x in zip(flat, b50))
        assert all(x >= y - 1e-10 for x, y in zip(b50, b10))

    def test_finite_bandwidth_interior_maximum(self):
        grid = np.geomspace(0.1, 100.0, 30)
        b10 = [eta for _, eta in efficiency_curve(grid, SqueezingModel.lorentzian(10.0))]
        peak = int(np.argmax(b10))
        assert 0 < peak < len(b10) - 1
        assert b10[-1] < b10[peak]

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            efficiency_curve([1.0, 0.5], SqueezingModel.flat(0.0))
        with pytest.raises(ValueError):
            efficiency_curve([-1.0, 0.5], SqueezingModel.flat(0.0))


class TestSqueezingModel:
    def test_flat_density_constant(self):
        model = SqueezingModel.flat(0.25)
        assert model.spectral_density(0.0) == 0.25
        assert model.spectral_density(100.0) == 0.25
        assert model.noise_floor == 0.25

    def test_lorentzian_density_shape(self):
        model = SqueezingModel.lorentzian(gamma_q=10.0, s=1.0)
        assert model.spectral_density(0.0) == pytest.approx(0.0, abs=1e-15)
        assert model.spectral_density(1e6) == pytest.approx(1.0, rel=1e-9)
        # at x = b the dip is half depth
        assert model.spectral_density(10.0) == pytest.approx(0.5, rel=1e-12)
        assert model.noise_floor == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SqueezingModel.flat(-0.1)
        with pytest.raises(ValueError):
            SqueezingModel.lorentzian(0.0)
        with pytest.raises(ValueError):
            SqueezingModel.lorentzian(10.0, s=1.5)
        with pytest.raises(ValueError):
            SqueezingModel(kind="gaussian")
