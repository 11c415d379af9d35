import dataclasses
import math
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import j1

from spinmap import dynamics, specfun
from spinmap.config import RunConfig
from spinmap.dynamics import (
    GridConfigError,
    GridGrowthError,
    GridSpec,
    PulseArea,
    VARIANCE_CONVERGENCE_ORDER,
    light_kernel_convergence,
    light_kernel_reference,
    simulate_grid,
    transient_variance,
)
from spinmap.mapping import SqueezingModel, variance_closed, variance_spectral
from spinmap.model import DriveParams, MediumParams, total_dephasing
from spinmap.specfun import (
    QuadratureConvergenceError,
    QuadratureResult,
    bessel_kernels,
)

# first positive roots of J0 and J1, squared over four (series-oracle bisection)
J0_ROOT_SQ_OVER_4 = 1.4457964907366961
J1_ROOT_SQ_OVER_4 = 3.6704926605309743
EXAMPLE_CFG = Path(__file__).resolve().parent.parent / "configs" / "feasibility_example.cfg"


def unit_medium(gamma0=1.0, length=1.0):
    return MediumParams(density=1.0, length=length, area=1.0, gamma0=gamma0, wavelength=1.0)


def constant_drive(g, tau_pulse=1e6):
    return DriveParams(g=g, gamma_s=0.0, tau_pulse=tau_pulse)


def traced_peak(run):
    """Peak bytes of traced allocations above the start during run(), after
    one warm-up call (which loads caches and lazy imports)."""
    run()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


class TestPulseArea:
    def test_starts_at_zero_nondecreasing(self):
        area = PulseArea.from_drive(DriveParams(g=2.0, gamma_s=0.0, tau_pulse=1.0,
                                                profile=((0.5, 1.0), (0.5, 0.25))))
        assert area.value(0.0) == 0.0
        taus = np.linspace(0.0, 2.0, 41)
        vals = [area.value(t) for t in taus]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_constant_drive_linear(self):
        area = PulseArea.constant(3.0)
        for tau in (0.1, 1.0, 7.5):
            assert area.value(tau) == pytest.approx(3.0 * tau, rel=1e-15)
            assert area.rate(tau) == 3.0

    def test_piecewise_exact(self):
        area = PulseArea.from_drive(DriveParams(g=2.0, gamma_s=0.0, tau_pulse=1.0,
                                                profile=((1.0, 1.0), (1.0, 0.5))))
        assert area.value(1.0) == pytest.approx(2.0, rel=1e-15)
        assert area.value(1.5) == pytest.approx(2.0 + 0.5, rel=1e-15)
        assert area.value(5.0) == pytest.approx(3.0, rel=1e-15)  # drive off after pulse
        assert area.rate(1.2) == 1.0
        assert area.rate(3.0) == 0.0

    def test_value_and_rate_take_arrays(self):
        area = PulseArea.from_drive(DriveParams(g=2.0, gamma_s=0.0, tau_pulse=1.0,
                                                profile=((0.5, 1.0), (0.5, 0.25))))
        taus = np.array([0.0, 0.25, 0.5, 0.7, 1.0, 3.0])
        assert area.value(taus) == pytest.approx([0.0, 0.5, 1.0, 1.1, 1.25, 1.25], rel=1e-15)
        assert area.rate(taus).tolist() == [2.0, 2.0, 0.5, 0.5, 0.0, 0.0]  # right-continuous
        assert area.value(taus.reshape(2, 3)).shape == (2, 3)
        # a float in gives a float out, equal to the array's entry
        assert type(area.value(0.7)) is float and type(area.rate(0.7)) is float
        assert area.value(0.7) == area.value(taus)[3]
        for bad in (-0.1, math.nan, np.array([0.5, -1.0])):
            with pytest.raises(ValueError):
                area.value(bad)
            with pytest.raises(ValueError):
                area.rate(bad)

    def test_step_rates_exact_inside_segments(self):
        area = PulseArea.from_drive(DriveParams(g=2.0, gamma_s=0.0, tau_pulse=1.0,
                                                profile=((0.3, 1.0), (0.4, 0.5), (0.3, 0.8))))
        # dt = 0.1 steps onto every breakpoint, where k * dt is not exact
        rates, rho = area.step_rates(0.1, 12)
        assert rates.tolist() == [2.0] * 3 + [1.0] * 4 + [1.6] * 3 + [0.0] * 2
        assert rho.tolist() == [1.0] * 12

    def test_step_rates_straddle_keeps_area(self):
        area = PulseArea.from_drive(DriveParams(g=2.0, gamma_s=0.0, tau_pulse=1.0,
                                                profile=((0.25, 1.0), (0.75, 0.5))))
        rates, rho = area.step_rates(0.1, 10)
        assert rates[2] == pytest.approx((area.value(0.3) - area.value(0.2)) / 0.1, rel=1e-14)
        assert rates[1] == 2.0 and rates[3] == 1.0
        assert float(np.sum(rates)) * 0.1 == pytest.approx(area.value(1.0), rel=1e-14)
        # half the step at rate 2, half at rate 1: mean(sqrt r) / sqrt(mean r)
        assert rho[2] == pytest.approx((math.sqrt(2.0) + 1.0) / 2.0 / math.sqrt(1.5), rel=1e-14)
        assert np.delete(rho, 2).tolist() == [1.0] * 9

    def test_step_rates_dark_straddle_has_unit_rho(self):
        # a step straddling two dark segments has mean rate 0 and rho 1
        area = PulseArea(breakpoints=(0.15, 0.45), rates=(0.0, 0.0), final_rate=2.0)
        rates, rho = area.step_rates(0.1, 6)
        assert rates[1] == 0.0 and rho[1] == 1.0
        assert rates[4] == pytest.approx(1.0, rel=1e-14)
        assert rho[4] == pytest.approx(math.sqrt(0.5), rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            PulseArea(breakpoints=(1.0, 0.5), rates=(1.0, 1.0))
        with pytest.raises(ValueError):
            PulseArea(breakpoints=(1.0,), rates=(-1.0,))

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="rates must be finite"):
            PulseArea.constant(value)
        with pytest.raises(ValueError, match="rates must be finite"):
            PulseArea(breakpoints=(1.0,), rates=(value,))
        with pytest.raises(ValueError, match="breakpoints must be finite"):
            PulseArea(breakpoints=(1.0, value), rates=(1.0, 1.0))


def initial_kernel(area, length, gamma, z, tau):
    """e^{-Gamma tau} J0(2 sqrt(a(tau) (L - z'))), the weight of the initial
    coherence at z' in the collective spin, on the grid of z' and tau."""
    tau = np.asarray(tau, dtype=float)[:, None]
    y = area.value(tau) * (length - np.asarray(z, dtype=float))
    return np.exp(-gamma * tau) * bessel_kernels(y, (0,))[0]


def light_kernel(area, length, gamma, tau, tau_p):
    """The collective light kernel of input at tau_p in the spin at tau,
    from ``light_kernel_reference`` on the nodes (tau_p, tau)."""
    return float(light_kernel_reference(area, length, gamma, [tau_p, tau])[1, 0])


class TestInitialKernel:
    def test_unity_at_start(self):
        # J0(0) = 1 and both exchange kernels are 1 at zero exchange
        assert np.all(initial_kernel(PulseArea.constant(5.0), 1.0, 1.0, [0.0, 0.3, 1.0], [0.0])
                      == 1.0)
        assert bessel_kernels(np.zeros(3)).tolist() == [[1.0] * 3] * 2

    def test_pure_decay_with_drive_off(self):
        val = initial_kernel(PulseArea.constant(0.0), 1.0, 1.0, [0.5], [5.0])[0, 0]
        assert val == pytest.approx(math.exp(-5.0), rel=1e-12)

    def test_vanishes_at_bessel_root(self):
        # a(tau)(L - z') at the first J0 root squared / 4
        assert abs(bessel_kernels(J0_ROOT_SQ_OVER_4, (0,))[0]) < 1e-10
        length, area, tau = 2.0, PulseArea.constant(1.0), 1.0
        zp = length - J0_ROOT_SQ_OVER_4 / area.value(tau)
        assert abs(initial_kernel(area, length, 0.0, [zp], [tau])[0, 0]) < 1e-10


class TestLightKernel:
    def test_zero_exchange_limit_is_length(self):
        # drive off between tau' and tau: u = 0, kernel = e^{-Gamma dt} L
        assert light_kernel(PulseArea.constant(0.0), 3.0, 0.0, 1.0, 0.5) == pytest.approx(3.0)

    def test_half_decay(self):
        val = light_kernel(PulseArea.constant(0.0), 1.0, 1.0, math.log(2.0), 0.0)
        assert val == pytest.approx(0.5, rel=1e-12)

    def test_vanishes_at_j1_root(self):
        # u L at the first J1 root squared / 4
        assert abs(bessel_kernels(J1_ROOT_SQ_OVER_4, (1,))[0]) < 1e-10
        length = J1_ROOT_SQ_OVER_4  # u = a(1) - a(0) = 1
        assert abs(light_kernel(PulseArea.constant(1.0), length, 0.0, 1.0, 0.0)) < 1e-10

    def test_series_matches_direct_across_switch(self):
        # near zero exchange the kernel L sqrt(1/(uL)) J1(2 sqrt(uL)) agrees
        # with the Bessel function's own value
        length = 1.0
        for u in (2e-9, 5e-9, 2e-8, 1e-7):
            area = PulseArea.constant(u)  # u after unit time
            val = light_kernel(area, length, 0.0, 1.0, 0.0)
            direct = math.sqrt(length / u) * j1(2.0 * math.sqrt(u * length))
            assert val == pytest.approx(direct, rel=1e-9)


class TestTransientVariance:
    def test_invalid_tol(self):
        for tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol must be positive"):
                transient_variance(PulseArea.constant(1.0), 1.0, 1.0, SqueezingModel.flat(0.5),
                                   1.0, tol=tol)

    @pytest.mark.parametrize("name", ["length", "gamma", "tau"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
    def test_non_finite_or_negative_argument_named(self, name, value):
        args = dict(length=1.0, gamma=1.0, tau=1.0)
        args[name] = value
        with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative"):
            transient_variance(PulseArea.constant(1.0), args["length"], args["gamma"],
                               SqueezingModel.flat(0.5), args["tau"])

    def test_initial_atomic_vacuum(self):
        rep = transient_variance(PulseArea.constant(4.0), 1.0, 1.0, SqueezingModel.flat(0.0), 0.0)
        assert rep.variance_norm == 1.0
        assert rep.light_part == 0.0

    def test_drive_off_keeps_vacuum(self):
        area = PulseArea.constant(0.0)
        for x0_sq in (0.0, 1.0, 3.0):
            for tau in (0.0, 0.4, 2.0, 9.0):
                rep = transient_variance(area, 1.0, 1.0, SqueezingModel.flat(x0_sq), tau)
                assert rep.variance_norm == pytest.approx(1.0, abs=1e-10)

    def test_vacuum_input_fixed_point_at_all_times(self):
        for alpha in (0.5, 5.0, 50.0, 500.0):
            for tau in (0.2, 1.0, 4.0):
                rep = transient_variance(
                    PulseArea.constant(alpha), 1.0, 1.0, SqueezingModel.flat(1.0), tau
                )
                assert rep.variance_norm == pytest.approx(1.0, abs=1e-8)

    def test_squeezed_input_monotone_decrease(self):
        area = PulseArea.constant(10.0)
        taus = np.linspace(0.0, 6.0, 25)
        vals = [
            transient_variance(area, 1.0, 1.0, SqueezingModel.flat(0.0), float(t)).variance_norm
            for t in taus
        ]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_lorentzian_agrees_with_spectral_steady_state(self):
        model = SqueezingModel.lorentzian(10.0, s=1.0)
        spectral = variance_spectral(10.0, model).variance_norm
        rep = transient_variance(PulseArea.constant(10.0), 1.0, 1.0, model, 12.0, tol=1e-8)
        assert rep.variance_norm == pytest.approx(spectral, abs=1e-6)

    def test_pulsed_profile_freezes_state(self):
        # after the drive turns off the variance stays put (no more exchange)
        drive = DriveParams(g=5.0, gamma_s=0.0, tau_pulse=2.0, profile=((2.0, 1.0),))
        area = PulseArea.from_drive(drive)
        model = SqueezingModel.flat(0.0)
        before = transient_variance(area, 1.0, 1.0, model, 2.0)
        # with Gamma tau >> 1 after switch-off the Langevin term restores vacuum;
        # at equal small times past the edge the light part is frozen
        just_after = transient_variance(area, 1.0, 1.0, model, 2.001)
        assert just_after.light_part <= before.light_part
        assert just_after.variance_norm == pytest.approx(before.variance_norm, abs=5e-3)

    @pytest.mark.parametrize("model", [SqueezingModel.flat(0.3),
                                       SqueezingModel.lorentzian(5.0, s=0.8),
                                       SqueezingModel.lorentzian(40.0, s=1.0)])
    def test_tight_tol_is_met_or_raises(self, monkeypatch, model):
        # no fixed floor: below 1e-8 the estimate meets tol, or the run exits 3
        tol = 1e-12
        estimates = []

        def recording(result, tol):
            # every part that meets its budget, also in a call another part fails
            met = specfun.within_budget(result, tol)
            estimates.extend(e for e, ok in zip(result.errors, met) if ok)
            return met
        monkeypatch.setattr(dynamics, "within_budget", recording)
        outcomes = set()
        for alpha, tau in ((0.5, 0.7), (8.0, 3.0), (60.0, 10.0)):
            try:
                transient_variance(PulseArea.constant(alpha), 1.0, 1.0, model, tau, tol=tol)
                outcomes.add("met")
            except QuadratureConvergenceError as exc:
                failed = specfun.within_budget(exc.best, tol).index(False)
                assert exc.best.errors[failed] > tol
                outcomes.add("raised")
        assert all(e <= tol for e in estimates)
        assert "met" in outcomes

    def test_tol_binds_below_the_old_floor(self, monkeypatch):
        # halving moves the Langevin part by ~4e-10 with six nodes a panel:
        # the old floor 1e-8 max(1, |value|) accepted that under any tol
        monkeypatch.setattr(specfun, "PANEL_NODES", 6)
        model = SqueezingModel.flat(0.3)
        with pytest.raises(QuadratureConvergenceError) as err:
            transient_variance(PulseArea.constant(2.0), 1.0, 1.0, model, 1.0, tol=1e-12)
        assert 1e-12 < err.value.best.error_estimate < 1e-8
        transient_variance(PulseArea.constant(2.0), 1.0, 1.0, model, 1.0, tol=1e-8)

    @pytest.mark.parametrize("model", [SqueezingModel.flat(0.3),
                                       SqueezingModel.lorentzian(5.0, s=0.8)])
    def test_budget_miss_raises_with_best_estimate(self, monkeypatch, model):
        # two nodes a panel leave the doubling estimate far above the budget
        monkeypatch.setattr(specfun, "PANEL_NODES", 2)
        with pytest.raises(QuadratureConvergenceError, match="Langevin part did not converge") as err:
            transient_variance(PulseArea.constant(5.0), 1.0, 1.0, model, 3.0)
        best = err.value.best
        assert isinstance(best, QuadratureResult)
        assert math.isfinite(best.value) and best.error_estimate > 1e-8

    def test_gap_rule_budget_miss_raises(self, monkeypatch):
        # two nodes a gap leave the filter's error to the doubling estimate,
        # which misses the budget; the Langevin part does not use the filter
        monkeypatch.setattr(dynamics, "GAP_NODES", 2)
        model = SqueezingModel.lorentzian(5.0, s=0.8)
        with pytest.raises(QuadratureConvergenceError, match="light part did not converge") as err:
            transient_variance(PulseArea.constant(5.0), 1.0, 1.0, model, 3.0)
        best = err.value.best
        assert math.isfinite(best.value) and best.error_estimate > 1e-10

    def test_panel_limit_counts_every_panel(self, monkeypatch):
        # b = 1000 at Gamma tau = 15 takes 1254 panels: 1253 for the decay
        # of 2 Gamma + Gq and 2 for the Bessel phase 2 sqrt(15 alpha) at alpha = 5
        model = SqueezingModel.lorentzian(1000.0, s=0.9)
        steady = variance_spectral(5.0, model).variance_norm
        rep = transient_variance(PulseArea.constant(5.0), 1.0, 1.0, model, 15.0)
        assert rep.variance_norm == pytest.approx(steady, abs=1e-8)
        monkeypatch.setattr(dynamics, "TRANSIENT_PANEL_LIMIT", 1254)
        transient_variance(PulseArea.constant(5.0), 1.0, 1.0, model, 15.0)
        monkeypatch.setattr(dynamics, "TRANSIENT_PANEL_LIMIT", 1253)
        with pytest.raises(OverflowError, match="needs 1254 panels"):
            transient_variance(PulseArea.constant(5.0), 1.0, 1.0, model, 15.0)

    @pytest.mark.parametrize("alpha, model", [(10.0, SqueezingModel.lorentzian(1e12, s=1.0)),
                                              (1e12, SqueezingModel.flat(0.0))],
                             ids=["bandwidth", "phase"])
    def test_panel_limit_raises_before_allocating(self, alpha, model):
        # ~8e10 and ~2e5 panels: far beyond the limit, raised at once
        with pytest.raises(OverflowError, match="TRANSIENT_PANEL_LIMIT"):
            transient_variance(PulseArea.constant(alpha), 1.0, 1.0, model, 1.0)

    def test_decomposition_invariant(self):
        rep = transient_variance(PulseArea.constant(3.0), 1.0, 1.0, SqueezingModel.flat(0.2), 1.5)
        assert rep.variance_norm == pytest.approx(
            rep.atom_langevin_part + rep.light_part, rel=1e-12
        )


class TestLangevinKernelIdentity:
    def test_spatial_integral_of_pointwise_kernels_gives_collective_form(self):
        # integrating the per-point J1 exchange kernel over the sample leaves
        # exactly the collective J0 weight: int_zp^L sqrt(u/(z-zp)) J1(...) dz
        # = 1 - J0(2 sqrt(u (L-zp))); with y = u (z - zp) the integrand is
        # u sqrt(1/y) J1(2 sqrt(y)), the order-1 exchange kernel
        length = 1.0
        for u in (0.3, 2.0, 7.0):
            for zp in (0.0, 0.25, 0.8):
                value, _ = quad(
                    lambda z: u * float(bessel_kernels(u * (z - zp), (1,))[0]),
                    zp, length, epsabs=1e-12, epsrel=1e-12, limit=500,
                )
                expected = 1.0 - float(bessel_kernels(u * (length - zp), (0,))[0])
                assert value == pytest.approx(expected, abs=1e-10)


class TestSimulateGrid:
    def test_no_coupling_passthrough_and_decay(self):
        medium = unit_medium()
        drive = constant_drive(0.0)
        grid = GridSpec(nz=40, ntau=50, tau_max=2.0)
        table, report = simulate_grid(medium, drive, grid, SqueezingModel.flat(1.0))
        # initial coherence decays at rate Gamma uniformly in z
        for k in (0, 10, 49):
            expected = math.exp(-table.tau[k])
            assert np.allclose(table.init_kernel[k], expected, atol=1e-12)
        # Langevin noise restores the vacuum exactly in this limit
        assert np.max(np.abs(table.variance_trace - 1.0)) < 1e-12
        assert report.variance_norm == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_passthrough_desk_grid(self):
        medium = unit_medium()
        grid = GridSpec(nz=100, ntau=100, tau_max=1.0)
        for alpha in (0.5, 5.0):
            table, _ = simulate_grid(medium, constant_drive(alpha), grid,
                                     SqueezingModel.flat(1.0))
            assert np.max(np.abs(table.variance_trace - 1.0)) < 5e-3

    def test_light_kernel_matches_analytic(self):
        medium = unit_medium()
        drive = constant_drive(0.5)
        grid = GridSpec(nz=100, ntau=100, tau_max=0.5)
        table, _ = simulate_grid(medium, drive, grid, SqueezingModel.flat(1.0))
        ref = light_kernel_reference(PulseArea.from_drive(drive), 1.0, 1.0, table.tau)
        err = np.linalg.norm(table.light_kernel - ref) / np.linalg.norm(ref)
        assert err < 4e-3

    @pytest.mark.parametrize("drive", [
        constant_drive(2.0),
        DriveParams(g=2.0, gamma_s=0.1, tau_pulse=0.5,
                    profile=((0.125, 1.0), (0.25, 0.5), (0.125, 0.8137))),
    ], ids=["constant", "three-segment"])
    def test_ladder_kernel_is_the_oracle_kernel(self, drive):
        # the ladder runs the oracle with the Langevin part off, which must
        # leave its finest rung's kernel bit for bit what simulate_grid returns
        medium = unit_medium(gamma0=1.3, length=0.8)
        grid = GridSpec(nz=40, ntau=48, tau_max=0.5)
        table, _ = simulate_grid(medium, drive, grid, SqueezingModel.lorentzian(3.0, s=0.7))
        ref = light_kernel_reference(PulseArea.from_drive(drive), medium.length,
                                     total_dephasing(medium, drive), table.tau)
        err = float(np.linalg.norm(table.light_kernel - ref) / np.linalg.norm(ref))
        assert light_kernel_convergence(medium, drive, grid).errors[-1] == err

    def test_mean_arrival_matches_mpmath(self):
        # dt (1/x - 1/expm1(x)), x = rate dt, on both sides of the switch to
        # the series at x = 1/2, against 50 digits
        xs = [*np.geomspace(1e-10, 5.0, 400), 1e-6, 1.001e-6, np.nextafter(0.5, 0.0), 0.5]
        with mpmath.workdps(50):
            for dt in (1.0, 0.01):
                for x in xs:
                    rate = float(x) / dt
                    exact = mpmath.mpf(rate) * dt
                    exact = dt * (1 / exact - 1 / mpmath.expm1(exact))
                    assert abs(dynamics._mean_arrival(rate, dt) / exact - 1) <= 1e-15, x

    @pytest.mark.parametrize("profile", [
        ((0.125, 1.0), (0.25, 0.5), (0.125, 0.8137)),      # the benchmark's profile ladder
        ((0.1, 1.0), (0.15, 0.0), (0.1, 0.8137)),          # a dark segment, off before the horizon
        (),                                                # constant drive past the horizon
        ((0.0712, 1.0), (0.1093, 0.5), (0.1201, 0.8137)),  # breakpoints off the nodes
    ])
    def test_light_kernel_reference_matches_double_loop(self, profile):
        # the definition entry by entry: the decay by lag, and u = r (k - kp) dt
        # where no breakpoint lies strictly between the two nodes, r the rate
        # just after tau_kp, else a(tau_k) - a(tau_kp)
        drive = DriveParams(g=0.5, gamma_s=0.0, tau_pulse=1.0, profile=profile)
        area = PulseArea.from_drive(drive)
        dt = 0.5 / 100
        tau = np.arange(101) * dt
        for length, gamma in ((1.0, 1.0), (1.7, 0.3)):
            expected = np.zeros((101, 100))
            for k in range(101):
                for kp in range(k):
                    if any(tau[kp] < b < tau[k] for b in area.breakpoints):
                        u = area.value(float(tau[k])) - area.value(float(tau[kp]))
                    else:
                        u = area.rate(float(tau[kp])) * ((k - kp) * dt)
                    j = float(bessel_kernels(u * length, (1,))[0])
                    expected[k, kp] = np.exp(-gamma * ((k - kp) * dt)) * length * j
            assert np.array_equal(light_kernel_reference(area, length, gamma, tau), expected)

    def test_light_kernel_reference_evaluates_each_lag_once_under_constant_drive(
            self, monkeypatch):
        # one drive segment spans every node: one kernel evaluation per lag
        calls = []
        original = dynamics.bessel_kernels

        def counting(y, orders=(0, 1)):
            calls.append(np.size(y))
            return original(y, orders)

        monkeypatch.setattr(dynamics, "bessel_kernels", counting)
        tau = np.arange(401) * (0.5 / 400)
        kernel = light_kernel_reference(PulseArea.constant(0.5), 1.0, 1.0, tau)
        assert calls == [400]
        # three segments: one call per segment for its lags, and one for each
        # dense block past a segment's end
        calls.clear()
        drive = DriveParams(g=0.5, gamma_s=0.0, tau_pulse=1.0,
                            profile=((0.125, 1.0), (0.25, 0.5), (0.25, 0.8137)))
        light_kernel_reference(PulseArea.from_drive(drive), 1.0, 1.0, tau)
        assert len(calls) == 5 and sum(calls) < kernel.size / 2

    def test_light_kernel_reference_rejects_uneven_nodes(self):
        for nodes in ([0.0, 0.1, 0.3], [0.0, 0.0, 0.0], [0.2, 0.1, 0.0]):
            with pytest.raises(ValueError, match="uniformly spaced"):
                light_kernel_reference(PulseArea.constant(1.0), 1.0, 1.0, nodes)

    def test_kernel_convergence_first_order(self):
        medium = unit_medium()
        drive = constant_drive(0.5)
        study = light_kernel_convergence(medium, drive, GridSpec(nz=200, ntau=200, tau_max=0.5))
        assert study.monotone
        for order in study.orders:
            assert 0.8 <= order <= 1.2

    def test_kernel_convergence_under_drive_profile(self):
        # three segments with breakpoints on quarter points and one free power
        # ratio, on the 100/200/400 ladder, at acceptance criterion 5's bounds
        drive = DriveParams(g=0.5, gamma_s=0.0, tau_pulse=0.5,
                            profile=((0.125, 1.0), (0.25, 0.5), (0.125, 0.8137)))
        study = light_kernel_convergence(unit_medium(), drive,
                                         GridSpec(nz=400, ntau=400, tau_max=0.5), levels=3)
        assert study.monotone
        for order in study.orders:
            assert 0.8 <= order <= 1.2
        assert study.errors[-1] <= 1e-3

    @pytest.mark.parametrize("profile", [
        (),                                           # constant drive
        ((0.07, 1.0), (0.11, 0.5), (0.12, 0.8137)),  # three segments, off the grid nodes
    ])
    def test_kernel_convergence_slices_one_reference_exactly(self, profile):
        # the ladder evaluates the reference once, on the finest nodes, and
        # slices it for the coarser rungs; at a non-dyadic tau_max the errors
        # must still equal, bit for bit, those against a reference evaluated
        # on each rung's own nodes
        medium = unit_medium()
        drive = DriveParams(g=0.5, gamma_s=0.0, tau_pulse=0.3, profile=profile)
        study = light_kernel_convergence(medium, drive, GridSpec(nz=200, ntau=200, tau_max=0.3))
        errors = []
        for nz, ntau in study.sizes:
            table, _ = simulate_grid(medium, drive, GridSpec(nz=nz, ntau=ntau, tau_max=0.3),
                                     SqueezingModel.flat(1.0))
            ref = light_kernel_reference(PulseArea.from_drive(drive), 1.0, 1.0, table.tau)
            errors.append(float(np.linalg.norm(table.light_kernel - ref) / np.linalg.norm(ref)))
        assert study.errors == tuple(errors)

    def test_initial_kernel_converges_under_refinement(self):
        medium = unit_medium()
        drive = constant_drive(2.0)
        errors = []
        for n in (25, 50, 100):
            table, _ = simulate_grid(medium, drive, GridSpec(nz=n, ntau=n, tau_max=1.0),
                                     SqueezingModel.flat(1.0))
            ref = initial_kernel(PulseArea.from_drive(drive), 1.0, 1.0, table.z, table.tau)
            errors.append(np.linalg.norm(table.init_kernel - ref) / np.linalg.norm(ref))
        assert errors[0] > errors[1] > errors[2]

    def test_variance_converges_at_declared_order(self):
        # constant drive, squeezed input, against the closed-form steady state
        medium = unit_medium()
        drive = constant_drive(5.0)
        closed = variance_closed(5.0, 0.0).variance_norm
        errors = []
        for n in (50, 100, 200):
            _, report = simulate_grid(medium, drive, GridSpec(nz=n, ntau=n, tau_max=10.0),
                                      SqueezingModel.flat(0.0))
            errors.append(abs(report.variance_norm - closed))
        orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        for order in orders:
            assert abs(order - VARIANCE_CONVERGENCE_ORDER) < 0.45

    def test_lorentzian_input_matches_spectral(self):
        model = SqueezingModel.lorentzian(10.0, s=1.0)
        spectral = variance_spectral(10.0, model).variance_norm
        medium = unit_medium()
        _, report = simulate_grid(medium, constant_drive(10.0),
                                  GridSpec(nz=100, ntau=300, tau_max=10.0), model)
        assert report.variance_norm == pytest.approx(spectral, abs=5e-3)

    def test_causality_of_tables(self):
        medium = unit_medium()
        table, _ = simulate_grid(medium, constant_drive(1.0),
                                 GridSpec(nz=30, ntau=40, tau_max=1.0),
                                 SqueezingModel.flat(1.0))
        for k in range(41):
            assert np.all(table.light_kernel[k, k:] == 0.0)

    def test_stability_bounds_enforced(self):
        medium = unit_medium()
        with pytest.raises(GridConfigError, match=r"exchange .* at nz=10 ntau=20: g\*dt\*dz"):
            simulate_grid(medium, constant_drive(1e5),
                          GridSpec(nz=10, ntau=20, tau_max=1.0), SqueezingModel.flat(1.0))
        with pytest.raises(GridConfigError, match=r"decay .* at nz=20 ntau=10: Gamma\*dt"):
            simulate_grid(medium, constant_drive(1e-3),
                          GridSpec(nz=20, ntau=10, tau_max=100.0), SqueezingModel.flat(1.0))

    # Traced peaks (tracemalloc counts numpy's buffers) of the grid oracle on
    # the benchmark's grids, at unit Gamma and L and tau_max = 0.5, bounded a
    # few per cent above what this pass allocates: the symbol table, the rows,
    # the kernel and the field weights, 1.69 MB at n = 200; under three
    # segments also the field columns, Langevin symbols and first columns of
    # the two runs a later node follows, 2.88 MB; the rungs' kernels and then
    # the reference, 3.33 MB on the constant 100/200/400 ladder and 5.48 MB
    # under three segments.  A pass that copied its running sums, built the
    # Langevin rows and formed |field weights| peaked at 2.66, 5.67 and
    # 9.83 MB.
    @pytest.mark.parametrize("model", [SqueezingModel.flat(1.0),
                                       SqueezingModel.lorentzian(5.0, s=0.7)],
                             ids=["flat", "lorentzian"])
    def test_grid_oracle_peak_memory(self, model):
        grid = GridSpec(nz=200, ntau=200, tau_max=0.5)
        peak = traced_peak(lambda: simulate_grid(unit_medium(), constant_drive(0.5), grid, model))
        assert peak <= 1.8e6

    @pytest.mark.parametrize("model", [SqueezingModel.flat(1.0),
                                       SqueezingModel.lorentzian(5.0, s=0.7)],
                             ids=["flat", "lorentzian"])
    def test_grid_oracle_peak_memory_under_three_segments(self, model):
        drive = DriveParams(g=0.5, gamma_s=0.0, tau_pulse=0.5,
                            profile=((0.125, 1.0), (0.25, 0.5), (0.125, 0.8137)))
        grid = GridSpec(nz=200, ntau=200, tau_max=0.5)
        assert traced_peak(lambda: simulate_grid(unit_medium(), drive, grid, model)) <= 3.0e6

    def test_flat_input_forms_no_second_field_weight_table(self):
        # white input contracts the field weights with themselves: the peak
        # is propagate's own, 1.51 MB, where a weighted copy of the field
        # weights (0.32 MB at n = 200) put it at 1.69 MB
        grid = GridSpec(nz=200, ntau=200, tau_max=0.5)
        peak = traced_peak(lambda: simulate_grid(unit_medium(), constant_drive(0.5), grid,
                                                 SqueezingModel.flat(0.3)))
        assert peak <= 1.55e6

    @pytest.mark.parametrize("profile, bound", [
        ((), 3.5e6),
        (((0.125, 1.0), (0.25, 0.5), (0.125, 0.8137)), 5.8e6),
    ], ids=["constant", "three-segment"])
    def test_kernel_ladder_peak_memory(self, profile, bound):
        drive = DriveParams(g=0.5, gamma_s=0.0, tau_pulse=1.0, profile=profile)
        grid = GridSpec(nz=400, ntau=400, tau_max=0.5)
        assert traced_peak(lambda: light_kernel_convergence(unit_medium(), drive, grid)) <= bound

    @pytest.mark.parametrize("profile, distinct_rates", [
        ((), 1),
        (((0.25, 1.0), (0.5, 0.5), (0.25, 0.8)), 3),
        (((0.25, 1.0), (0.25, 0.5), (0.25, 0.8)), 4),  # drive off for the last quarter
    ])
    def test_three_operators_per_distinct_rate(self, monkeypatch, profile, distinct_rates):
        # no operator is built per step: one symbol table serves the whole
        # run, with at most three areas per step for each run of equal rate
        # (field, Langevin and the rows from its start) and the initial rows
        calls = []
        original = dynamics._symbols

        def counting_symbols(t, nz):
            calls.append(len(t))
            return original(t, nz)

        monkeypatch.setattr(dynamics, "_symbols", counting_symbols)
        monkeypatch.setattr(dynamics, "expm", None)  # the propagator never builds a matrix
        drive = DriveParams(g=2.0, gamma_s=0.0, tau_pulse=2.0, profile=profile)
        simulate_grid(unit_medium(), drive, GridSpec(nz=20, ntau=40, tau_max=1.0),
                      SqueezingModel.flat(1.0))
        assert len(calls) == 1
        assert calls[0] <= (distinct_rates + 2) * 41

    @pytest.mark.parametrize("profile", [(), ((0.5, 1.0), (0.5, 0.5))])
    def test_growth_guard_names_step(self, monkeypatch, profile):
        # every step of rate 2 (the first one in both drives) advances
        # t = x dz by 2 dt dz; the patched symbol grows by 1.5 per such step
        # on the diagonal only, as if each step operator were 1.5 I
        t_step = 2.0 * (1.0 / 200) * (1.0 / 20)

        def growing_symbols(t, nz):
            e = np.zeros((nz, len(t)))
            e[0] = 1.5 ** (t / t_step)
            return e

        monkeypatch.setattr(dynamics, "_symbols", growing_symbols)
        drive = DriveParams(g=2.0, gamma_s=0.0, tau_pulse=2.0, profile=profile)
        with pytest.raises(GridGrowthError, match="at step 4$"):
            # 1.5 e^{-Gamma dt} = 1.4925 per step passes the bound 4 at step 4
            simulate_grid(unit_medium(), drive, GridSpec(nz=20, ntau=200, tau_max=1.0),
                          SqueezingModel.flat(1.0))

    def test_growth_guard_field_weight_just_past_bound(self, monkeypatch):
        # a short medium at the decay bound, where the field weights per unit
        # length (dt sqrt(g) ~ 2.8) stand above the initial weights per
        # coherence sample (<= 1): a bound just below the largest field weight
        # fails the first row that holds it, one just above it fails none
        medium, drive = unit_medium(length=0.02), constant_drive(32.0)
        grid = GridSpec(nz=4, ntau=8, tau_max=4.0)
        table, _ = simulate_grid(medium, drive, grid, SqueezingModel.flat(1.0))
        disc = dynamics._Discretization(medium, drive, grid)
        weights = np.abs(table.light_kernel * (disc.dt * np.sqrt(disc.rates)))
        top = weights.max()
        below = above = top / medium.length
        while below * medium.length >= top:
            below = math.nextafter(below, 0.0)
        while above * medium.length < top:
            above = math.nextafter(above, math.inf)
        assert np.abs(table.init_kernel).max() < below / 2
        step = int(np.argmax(weights.max(axis=1) > below * medium.length))
        for bound in (below, above):
            class Bounded(dynamics._Discretization):
                def __init__(self, *args):
                    super().__init__(*args)
                    self.coeff_bound = bound

            monkeypatch.setattr(dynamics, "_Discretization", Bounded)
            if bound == below:
                with pytest.raises(GridGrowthError, match=f"at step {step}$"):
                    simulate_grid(medium, drive, grid, SqueezingModel.flat(1.0))
            else:
                simulate_grid(medium, drive, grid, SqueezingModel.flat(1.0))

    @staticmethod
    def poison_field_symbols(monkeypatch, disc, run, q, value):
        """Set every symbol of run ``run``'s field area q, on grids of disc's
        nz, to ``value``; the first kernel row holding it is step start + q + 1."""
        start, stop, rate = disc.runs[run]
        target = rate * (q * disc.dt + disc.s_field) * disc.dz  # as the pass forms it
        original = dynamics._symbols

        def poisoned(t, nz):
            e = original(t, nz)
            if nz == disc.nz:
                hit = t == target
                assert hit.sum() == 1
                e[:, hit] = value
            return e

        monkeypatch.setattr(dynamics, "_symbols", poisoned)
        return start + q + 1

    @pytest.mark.parametrize("value", [1e6, math.nan], ids=["past", "nan"])
    @pytest.mark.parametrize("profile, run", [((), 0), (((0.5, 1.0), (0.5, 0.5)), 0),
                                              (((0.5, 1.0), (0.5, 0.5)), 1)])
    def test_growth_guard_reads_every_kernel_block(self, monkeypatch, profile, run, value):
        medium = unit_medium()
        drive = DriveParams(g=2.0, gamma_s=0.0, tau_pulse=2.0, profile=profile)
        grid = GridSpec(nz=20, ntau=40, tau_max=1.0)
        step = self.poison_field_symbols(
            monkeypatch, dynamics._Discretization(medium, drive, grid), run, 6, value)
        with pytest.raises(GridGrowthError, match=f"at step {step}$"):
            simulate_grid(medium, drive, grid, SqueezingModel.flat(1.0))

    @pytest.mark.parametrize("value", ["past", "nan"])
    @pytest.mark.parametrize("node", [0, -1])
    def test_growth_guard_reads_the_end_columns_of_a_row(self, monkeypatch, node, value):
        # one entry of the initial row at step k, past the end nodes' bound
        # coeff_bound dz / 2 but inside the interior nodes' coeff_bound dz once
        # the row is scaled by d^k, or NaN
        medium, drive = unit_medium(), constant_drive(2.0)
        grid = GridSpec(nz=20, ntau=40, tau_max=1.0)
        disc = dynamics._Discretization(medium, drive, grid)
        k = 7
        entry = math.nan if value == "nan" else 0.75 * disc.coeff_bound * disc.dz / disc.d ** k
        original = dynamics._rows

        def patched(h, dz):
            rows = original(h, dz)
            rows[k, node] = entry
            return rows

        monkeypatch.setattr(dynamics, "_rows", patched)
        with pytest.raises(GridGrowthError, match=f"at step {k}$"):
            simulate_grid(medium, drive, grid, SqueezingModel.flat(1.0))

    @pytest.mark.parametrize("profile", [(), ((0.25, 1.0), (0.25, 0.5))])
    def test_kernel_ladder_raises_on_a_growing_rung(self, monkeypatch, profile):
        # the coarser rungs run clean; the finest one's kernel holds a NaN
        medium = unit_medium()
        drive = DriveParams(g=2.0, gamma_s=0.0, tau_pulse=1.0, profile=profile)
        grid = GridSpec(nz=16, ntau=24, tau_max=0.5)
        step = self.poison_field_symbols(
            monkeypatch, dynamics._Discretization(medium, drive, grid), 0, 3, math.nan)
        with pytest.raises(GridGrowthError, match=f"at step {step}$"):
            light_kernel_convergence(medium, drive, grid)

    @pytest.mark.parametrize("profile", [(), ((2e-6, 1.0), (3e-6, 0.25), (5e-6, 0.6))])
    def test_coefficient_bound_does_not_depend_on_the_time_unit(self, profile):
        # the shipped SI example on a 200 x 200 grid to Gamma tau = 1, in
        # seconds, microseconds and nanoseconds
        cfg = RunConfig.from_file(str(EXAMPLE_CFG))
        medium, drive = cfg.record("medium"), cfg.record("drive")
        tau_max = 1.0 / total_dephasing(medium, drive)
        bounds = []
        for unit in (1.0, 1e-6, 1e-9):  # seconds per unit
            scaled_medium = dataclasses.replace(medium, gamma0=medium.gamma0 * unit)
            scaled_drive = DriveParams(g=drive.g * unit, gamma_s=drive.gamma_s * unit,
                                       tau_pulse=drive.tau_pulse / unit,
                                       profile=tuple((d / unit, p) for d, p in profile))
            grid = GridSpec(nz=200, ntau=200, tau_max=tau_max / unit)
            bounds.append(dynamics._Discretization(scaled_medium, scaled_drive, grid).coeff_bound)
        assert bounds[1] == pytest.approx(bounds[0], rel=1e-12)
        assert bounds[2] == pytest.approx(bounds[0], rel=1e-12)

    def test_grid_spec_validation(self):
        with pytest.raises(ValueError):
            GridSpec(nz=1, ntau=10, tau_max=1.0)
        with pytest.raises(ValueError):
            GridSpec(nz=10, ntau=10, tau_max=0.0)
        # a size that is no integer fails at construction, naming its field,
        # not deep inside the discretization
        for nz, ntau, name in ((10.5, 10, "nz"), (10, 20.0, "ntau"), ("10", 10, "nz"),
                               (None, 10, "nz")):
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                GridSpec(nz=nz, ntau=ntau, tau_max=1.0)
        assert GridSpec(nz=np.int64(10), ntau=10, tau_max=1.0).nz == 10
