import math

import numpy as np
import pytest
from scipy.special import jn

import oracles
from spinmap import PulseArea, SqueezingModel, specfun
from spinmap.dynamics import transient_variance
from spinmap.specfun import (
    INITIAL_PANELS,
    PANEL_NODES,
    ROUND_OFF,
    QuadratureConvergenceError,
    QuadratureResult,
    bessel_i0e,
    bessel_i1e,
    bessel_j0,
    bessel_j1,
    gauss_panels,
    integrate_adaptive,
    within_budget,
)

# frozen from the independent series oracles in oracles.py
J0_AT_10 = -0.24593576445134835
J1_AT_5 = -0.32757913759146523
I0E_AT_1 = 0.46575960759364043
I0E_PLUS_I1E_AT_60 = 0.10279117936263857
J0_FIRST_ROOT = 2.404825557695773
I0E_PLUS_I1E_AT_HALF = 0.8014560736340218


class TestBesselJ:
    def test_j0_origin(self):
        assert bessel_j0(0.0) == 1.0

    def test_j1_origin(self):
        assert bessel_j1(0.0) == 0.0

    def test_j1_leading_series(self):
        # J1(x)/x -> 1/2 as x -> 0+
        x = 1e-8
        assert bessel_j1(x) / x == pytest.approx(0.5, rel=1e-12)

    def test_j0_at_10_frozen(self):
        assert bessel_j0(10.0) == pytest.approx(J0_AT_10, rel=1e-12)

    def test_j1_at_5_frozen(self):
        assert bessel_j1(5.0) == pytest.approx(J1_AT_5, rel=1e-12)

    def test_j0_matches_series_oracle(self):
        for x in (0.3, 1.7, 4.0, 12.5, 30.0):
            assert bessel_j0(x) == pytest.approx(oracles.j0_series(x), abs=1e-13)
            assert bessel_j1(x) == pytest.approx(oracles.j1_series(x), abs=1e-13)

    def test_first_root_located_by_oracle_bisection(self):
        root = oracles.bisect_root(oracles.j0_series, 2.0, 3.0)
        assert root == pytest.approx(J0_FIRST_ROOT, abs=1e-14)
        assert abs(bessel_j0(root)) < 1e-12

    def test_recurrence(self):
        # J0(x) + J2(x) = 2 J1(x)/x
        for x in np.linspace(0.1, 100.0, 97):
            lhs = bessel_j0(x) + jn(2, x)
            rhs = 2.0 * bessel_j1(x) / x
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_nonfinite_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                bessel_j0(bad)
            with pytest.raises(ValueError):
                bessel_j1(bad)


class TestScaledBesselI:
    def test_origin(self):
        assert bessel_i0e(0.0) == 1.0
        assert bessel_i1e(0.0) == 0.0

    def test_i0e_at_1_frozen(self):
        assert bessel_i0e(1.0) == pytest.approx(I0E_AT_1, rel=1e-13)

    def test_sum_at_60_frozen(self):
        # equals 1 - eta at optical depth 60
        total = bessel_i0e(60.0) + bessel_i1e(60.0)
        assert total == pytest.approx(I0E_PLUS_I1E_AT_60, rel=1e-12)
        assert total == pytest.approx(0.1028, abs=5e-5)

    def test_matches_series_oracle(self):
        for x in (0.25, 1.0, 7.0, 33.0, 60.0):
            assert bessel_i0e(x) == pytest.approx(oracles.i0e_series(x), rel=1e-12)
            assert bessel_i1e(x) == pytest.approx(oracles.i1e_series(x), rel=1e-12)

    def test_positive_and_ordered(self):
        for x in np.geomspace(1e-3, 1e6, 40):
            i0, i1 = bessel_i0e(x), bessel_i1e(x)
            assert i0 > 0 and i1 > 0
            assert i1 < i0

    def test_monotone_decreasing_no_overflow(self):
        xs = np.geomspace(1e-2, 1e6, 60)
        vals = [bessel_i0e(x) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(math.isfinite(v) for v in vals)

    def test_large_argument_asymptote(self):
        # i0e + i1e ~ sqrt(2/(pi x)) with < 1% deviation beyond x = 500
        for x in (600.0, 5e3, 1e5):
            total = bessel_i0e(x) + bessel_i1e(x)
            assert total == pytest.approx(math.sqrt(2.0 / (math.pi * x)), rel=1e-2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bessel_i0e(-1e-9)
        with pytest.raises(ValueError):
            bessel_i1e(-2.0)


class TestIntegrateAdaptive:
    def test_polynomials_exact(self):
        for coeffs in ((1.0,), (0.0, 3.0), (2.0, -1.0, 0.5, 4.0, 0.25, -3.0)):
            exact = sum(c / (k + 1) * (2.0 ** (k + 1) - (-1.0) ** (k + 1))
                        for k, c in enumerate(coeffs))
            res = integrate_adaptive(
                lambda x: sum(c * x**k for k, c in enumerate(coeffs)), -1.0, 2.0, tol=1e-12
            )
            assert res.value == pytest.approx(exact, abs=1e-12)

    def test_gaussian_half_line(self):
        res = integrate_adaptive(lambda x: np.exp(-x * x), 0.0, math.inf, tol=1e-10)
        assert res.value == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-10)
        assert res.error_estimate >= 0
        assert res.evaluations >= 1

    def test_lorentzian_full_line(self):
        res = integrate_adaptive(lambda x: 1.0 / (1.0 + x * x), -math.inf, math.inf, tol=1e-10)
        assert res.value == pytest.approx(math.pi, abs=1e-9)

    def test_transmission_integral_matches_bessel_route(self):
        # integral of 1 - exp(-alpha/(1+x^2)) over the line equals
        # pi alpha e^{-alpha/2} (I0 + I1)(alpha/2); checked at alpha = 1
        alpha = 1.0
        res = integrate_adaptive(
            lambda x: -np.expm1(-alpha / (1.0 + x * x)), -math.inf, math.inf, tol=1e-10
        )
        closed = math.pi * alpha * I0E_PLUS_I1E_AT_HALF
        assert res.value == pytest.approx(closed, abs=1e-8)

    def test_non_convergence_carries_best_estimate(self, monkeypatch):
        monkeypatch.setattr(specfun, "PANEL_LIMIT", 3)
        with pytest.raises(QuadratureConvergenceError) as err:
            integrate_adaptive(lambda x: np.sin(1.0 / x), 1e-12, 1.0, tol=1e-14)
        assert isinstance(err.value.best, QuadratureResult)
        assert math.isfinite(err.value.best.value)

    def test_first_pass_counts_every_node(self):
        first = 3 * INITIAL_PANELS * PANEL_NODES  # panels whole and halved
        assert integrate_adaptive(lambda x: x * x, 0.0, 2.0).evaluations == first
        # the line folds onto the half-line: two calls of f a node
        assert integrate_adaptive(lambda x: np.exp(-x * x), -math.inf, math.inf).evaluations \
            == 2 * first

    def test_refines_where_the_integrand_is_sharp(self):
        eps = 1e-6
        res = integrate_adaptive(lambda x: 1.0 / (eps + x * x), -1.0, 1.0, tol=1e-7)
        assert res.value == pytest.approx(2.0 / math.sqrt(eps) * math.atan(1.0 / math.sqrt(eps)),
                                          abs=1e-7)
        assert res.error_estimate <= 1e-7
        assert res.evaluations > 3 * INITIAL_PANELS * PANEL_NODES

    def test_round_off_floor_scales_with_the_magnitude(self):
        # no rule meets 1e-300; the estimate stops at the round-off floor
        # of the integral of |f|
        res = integrate_adaptive(lambda x: 1e6 * np.cos(x), 0.0, 3.0, tol=1e-300)
        assert res.value == pytest.approx(1e6 * math.sin(3.0), abs=1e-8)
        assert res.error_estimate <= ROUND_OFF * 1e6 * (2.0 - math.sin(3.0))

    def test_nan_integrand_exhausts_the_panel_budget(self, monkeypatch):
        monkeypatch.setattr(specfun, "PANEL_LIMIT", 40)
        with pytest.raises(QuadratureConvergenceError, match="limit of 40 panels"):
            integrate_adaptive(lambda x: np.where(x > 0.5, np.nan, 1.0), 0.0, 1.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            integrate_adaptive(lambda x: x, 0.0, 1.0, tol=0.0)
        with pytest.raises(ValueError):
            integrate_adaptive(lambda x: x, 2.0, 1.0)

    def test_result_invariants(self):
        with pytest.raises(ValueError):
            QuadratureResult(value=1.0, error_estimate=-1e-3, evaluations=5)
        with pytest.raises(ValueError):
            QuadratureResult(value=1.0, error_estimate=0.0, evaluations=0)


class TestIntegratePanels:
    """The pieces of a composite panel pass: the Gauss rule on any panels
    (``gauss_panels``) and the budget its estimate must meet
    (``within_budget``, shared with the adaptive rule)."""

    def test_nodes_broadcast_and_weights_sum_to_width(self):
        lo = np.array([[0.0], [1.0]])
        hi = np.array([[0.5, 1.0, 2.0], [1.5, 3.0, 4.0]])
        t, w = gauss_panels(lo, hi)
        assert t.shape == w.shape == (2, 3, PANEL_NODES)
        np.testing.assert_allclose(w.sum(axis=-1), hi - lo, rtol=1e-14)
        assert np.all((t > lo[..., None]) & (t < hi[..., None]))

    def test_polynomials_exact_with_zero_estimate(self):
        # degree 2n - 1 is the rule's exactness limit; halving every panel
        # leaves the composite value where it was
        degree = 2 * PANEL_NODES - 1
        exact = (2.0 ** (degree + 1) - 1.0) / (degree + 1)
        whole, halved = (np.sum(w * t ** degree) for t, w in (
            gauss_panels([-1.0, 0.5], [0.5, 2.0]),
            gauss_panels([-1.0, -0.25, 0.5, 1.25], [-0.25, 0.5, 1.25, 2.0])))
        assert halved == pytest.approx(exact, rel=1e-13)
        assert abs(halved - whole) <= 1e-13 * exact

    def test_named_integrals_share_the_nodes(self):
        # one set of nodes serves several integrands, each exact to round-off
        t, w = gauss_panels(np.arange(3.0), np.arange(1.0, 4.0))
        exp, cos = (w * np.stack([np.exp(t), np.cos(t)])).sum(axis=(1, 2))
        assert exp == pytest.approx(math.expm1(3.0), rel=1e-14)
        assert cos == pytest.approx(math.sin(3.0), abs=1e-14)

    def test_budget_miss_names_the_integral_and_carries_best(self, monkeypatch):
        # without decay the Langevin part is zero and meets any budget, so
        # the miss of two nodes a panel is the light part's, and says so
        args = (PulseArea.constant(5.0), 1.0, 0.0, SqueezingModel.flat(1.0), 3.0)
        assert transient_variance(*args).light_part > 0.0
        monkeypatch.setattr(specfun, "PANEL_NODES", 2)
        with pytest.raises(QuadratureConvergenceError, match="of the light part did not") as err:
            transient_variance(*args)
        assert isinstance(err.value.best, QuadratureResult)
        assert math.isfinite(err.value.best.value) and err.value.best.error_estimate > 1e-8

    def test_budget_is_tol_with_the_round_off_floor(self):
        def met(shift, tol, magnitude=1.0):
            # whole and halved values differ by ``shift``; |f| integrates to ``magnitude``
            result = QuadratureResult(value=1.0 + shift, error_estimate=abs(shift), evaluations=1)
            return within_budget(result, magnitude, tol)
        # below the floor ROUND_OFF times the integral of |f|, tol binds
        assert ROUND_OFF < 1e-13
        assert not met(5e-9, 1e-12)
        assert not met(2e-12, 1e-12)
        assert met(5e-13, 1e-12)
        assert met(2e-8, 1e-7)
        # the floor scales with the integrand's magnitude, not with the value
        shift = 0.5 * ROUND_OFF * 1e6
        assert met(shift, 1e-16, 1e6)
        assert not met(shift, 1e-16, 1.0)
        # a NaN value or estimate fails under any budget
        assert not within_budget(QuadratureResult(math.nan, 0.0, 1), 1.0, 1.0)
        assert not within_budget(QuadratureResult(1.0, math.nan, 1), 1.0, 1.0)
