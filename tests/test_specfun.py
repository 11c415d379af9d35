import math
import warnings

import numpy as np
import pytest
from scipy.special import jn

import oracles
import spectral_reference
from spinmap import PulseArea, SqueezingModel, specfun
from spinmap.dynamics import transient_variance
from spinmap.specfun import (
    INITIAL_PANELS,
    PANEL_NODES,
    ROUND_OFF,
    QuadratureConvergenceError,
    QuadratureResult,
    bessel_kernels,
    gauss_rule,
    integrate_adaptive,
    kronrod_panels,
    kronrod_rule,
    panel_sums,
    scaled_bessel_i,
    scaled_bessel_i_sequence,
    within_budget,
)

# frozen from the independent series oracles in oracles.py
J0_AT_10 = -0.24593576445134835
J1_AT_5 = -0.32757913759146523
I0E_AT_1 = 0.46575960759364043
I0E_PLUS_I1E_AT_60 = 0.10279117936263857
J0_FIRST_ROOT = 2.404825557695773
I0E_PLUS_I1E_AT_HALF = 0.8014560736340218


def bessel_j0(x):
    """J0(x) from the order-0 exchange kernel J0(2 sqrt(y)), y = x^2/4."""
    return float(bessel_kernels(x * x / 4.0, (0,))[0])


def bessel_j1(x):
    """J1(x) from the order-1 exchange kernel sqrt(1/y) J1(2 sqrt(y))."""
    return x / 2.0 * float(bessel_kernels(x * x / 4.0, (1,))[0])


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

    # on both sides of TABLE_END = 169, where the Hankel series takes over
    @pytest.mark.parametrize("y", [100.0, specfun.TABLE_END - 1e-9, specfun.TABLE_END, 200.0,
                                   1e4])
    def test_each_order_is_the_same_in_any_order(self, y):
        j0, j = bessel_kernels([y], (0, 1))[:, 0]
        assert j == pytest.approx(jn(1, 2.0 * math.sqrt(y)) / math.sqrt(y), abs=1e-15)
        for orders in ((1, 0), (1,), (0,), (1, 1, 0)):
            got = bessel_kernels([y], orders)[:, 0].tolist()
            assert got == [(j0, j)[order] for order in orders], orders

    def test_j1_kernel_past_the_table_with_order_one_first(self):
        # J1 / sqrt(y) at y = 200, not J1 = 0.10362
        assert bessel_kernels([200.0], (1, 0))[0, 0] == pytest.approx(0.00732709, abs=1e-8)

    def test_nan_argument_gives_nan_without_a_warning(self):
        # beside arguments on the Taylor tables and past them
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for y in ([math.nan, 1.0], [1.0, math.nan, 200.0]):
                got = bessel_kernels(np.array(y))
                np.testing.assert_array_equal(np.isnan(got), np.isnan([y, y]))
                finite = ~np.isnan(y)
                assert got[:, finite].tolist() == bessel_kernels(np.array(y)[finite]).tolist()

    @pytest.mark.parametrize("orders, named", [((2,), "2"), ((0, -1), "-1"), ((1, 0.5), "0.5"),
                                               ((1.0,), "1.0"), ((0, True), "True")])
    def test_orders_other_than_zero_and_one_rejected(self, orders, named):
        with pytest.raises(ValueError, match=f"order {named}"):
            bessel_kernels([1.0], orders)


class TestScaledBesselI:
    def test_origin(self):
        assert scaled_bessel_i(0.0) == (1.0, 0.0)

    def test_i0e_at_1_frozen(self):
        assert scaled_bessel_i(1.0)[0] == pytest.approx(I0E_AT_1, rel=1e-13)

    def test_sum_at_60_frozen(self):
        # equals 1 - eta at optical depth 60
        total = sum(scaled_bessel_i(60.0))
        assert total == pytest.approx(I0E_PLUS_I1E_AT_60, rel=1e-12)
        assert total == pytest.approx(0.1028, abs=5e-5)

    def test_matches_series_oracle(self):
        for x in (0.25, 1.0, 7.0, 33.0, 60.0):
            i0, i1 = scaled_bessel_i(x)
            assert i0 == pytest.approx(oracles.i0e_series(x), rel=1e-12)
            assert i1 == pytest.approx(oracles.i1e_series(x), rel=1e-12)

    def test_positive_and_ordered(self):
        for x in np.geomspace(1e-3, 1e6, 40):
            i0, i1 = scaled_bessel_i(x)
            assert i0 > 0 and i1 > 0
            assert i1 < i0

    def test_monotone_decreasing_no_overflow(self):
        xs = np.geomspace(1e-2, 1e6, 60)
        vals = [scaled_bessel_i(x)[0] for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(math.isfinite(v) for v in vals)

    def test_large_argument_asymptote(self):
        # i0e + i1e ~ sqrt(2/(pi x)) with < 1% deviation beyond x = 500
        for x in (600.0, 5e3, 1e5):
            total = sum(scaled_bessel_i(x))
            assert total == pytest.approx(math.sqrt(2.0 / (math.pi * x)), rel=1e-2)

    def test_negative_rejected(self):
        for bad in (-1e-9, -2.0):
            with pytest.raises(ValueError):
                scaled_bessel_i(bad)


class TestScaledBesselISequence:
    @pytest.mark.parametrize("x", [1e-3, 0.1, 0.5, 2.0, 7.0, 26.0, 300.0, 1e4])
    def test_matches_mpmath(self, x):
        import mpmath as mp

        values = scaled_bessel_i_sequence(x)
        assert len(values) == 21 + int(math.sqrt(80.0 * x))
        orders = range(len(values)) if x < 1e3 else range(0, len(values), 37)
        with mp.workdps(30):
            for n in orders:
                exact = float(mp.besseli(n, x) * mp.exp(-x))
                assert abs(values[n] - exact) <= 1e-15 * values[0], n
                if exact >= 1e-10 * values[0]:
                    assert values[n] == pytest.approx(exact, rel=4e-15), n

    def test_orders_zero_and_one_are_scaled_bessel_i(self):
        for x in np.geomspace(1e-3, 1e6, 40):
            values = scaled_bessel_i_sequence(x)
            assert values[:2] == pytest.approx(scaled_bessel_i(x), rel=1e-15)
            # e^x = I0 + 2 sum_{n>=1} I_n, the normalization, holds to rounding
            total = math.fsum([values[0], *(2.0 * v for v in values[1:])])
            assert total == pytest.approx(1.0, abs=3e-16)

    def test_tiny_argument_stays_finite(self):
        # the backward recurrence grows like (2n/x)^n here and is rescaled
        values = scaled_bessel_i_sequence(1e-20)
        assert values[0] == 1.0 and values[1] == pytest.approx(5e-21, rel=1e-15)
        assert all(math.isfinite(v) and v >= 0 for v in values)

    def test_invalid_rejected(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                scaled_bessel_i_sequence(bad)


class TestKronrodRule:
    """The Gauss-Kronrod extension of the panel rule, from Laurie's
    Jacobi-Kronrod recurrence."""

    @pytest.mark.parametrize("n", [1, 2, 6, PANEL_NODES])
    def test_monomials_exact_and_weights_positive(self, n):
        x, w = kronrod_rule(n)
        assert x.shape == w.shape == (2 * n + 1,)
        assert np.all(np.diff(x) > 0) and np.all(w > 0)
        for degree in range(3 * n + 2):
            # x ** degree carries ~degree / 2 rounding errors
            assert np.sum(w * x ** degree) == pytest.approx(
                1.0 / (degree + 1), rel=(degree + 2) * np.finfo(float).eps, abs=0)

    @pytest.mark.parametrize("n", [1, 2, 6, PANEL_NODES])
    def test_embeds_the_gauss_rule_bit_for_bit(self, n):
        assert kronrod_rule(n)[0][1::2].tolist() == gauss_rule(n)[0].tolist()

    @pytest.mark.parametrize("n", [1, 2, 6, PANEL_NODES])
    def test_nodes_are_the_eigenvalues_of_laurie_matrix(self, n):
        a, b = specfun._laurie(n)
        off = np.sqrt(b[1:])
        eigenvalues = np.linalg.eigvalsh(np.diag(a) + np.diag(off, 1) + np.diag(off, -1))
        np.testing.assert_allclose(kronrod_rule(n)[0], (eigenvalues + 1.0) / 2.0,
                                   rtol=0, atol=4 * np.finfo(float).eps)

    def test_built_without_numpy_linalg(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        for name in np.linalg.__all__:
            routine = getattr(np.linalg, name)
            if callable(routine) and not isinstance(routine, type):
                monkeypatch.setattr(np.linalg, name, refuse)
        before = kronrod_rule(PANEL_NODES)
        for cached in (kronrod_rule, gauss_rule, specfun._initial_panels):
            cached.cache_clear()
        after = kronrod_rule(PANEL_NODES)
        assert after[0].tolist() == before[0].tolist() and after[1].tolist() == before[1].tolist()
        assert not after[0].flags.writeable and not after[1].flags.writeable
        assert integrate_adaptive(lambda x: [np.exp(-x)], tol=1e-12).value == pytest.approx(1.0)


class TestIntegrateAdaptive:
    """The adaptive rule over [0, inf), mapped onto the unit interval by
    x = t / (1 - t); an integrand of one part is a stack of one."""

    def test_polynomials_exact(self):
        # (1 + x)^-k maps to (1 - t)^(k - 2), a polynomial the Kronrod
        # rule integrates exactly up to degree 3 PANEL_NODES + 1
        for k in range(2, 3 * PANEL_NODES + 4):
            res = integrate_adaptive(lambda x: [(1.0 + x) ** -k], tol=1e-12)
            assert res.value == pytest.approx(1.0 / (k - 1), abs=5e-16)

    def test_gaussian_half_line(self):
        res = integrate_adaptive(lambda x: [np.exp(-x * x)], tol=1e-10)
        assert res.value == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-10)
        assert res.error_estimate >= 0
        assert res.evaluations >= 1

    def test_lorentzian_half_line(self):
        res = integrate_adaptive(lambda x: [1.0 / (1.0 + x * x)], tol=1e-10)
        assert res.value == pytest.approx(math.pi / 2.0, abs=1e-9)

    def test_transmission_integral_matches_bessel_route(self):
        # integral of 1 - exp(-alpha/(1+x^2)) over the line equals
        # pi alpha e^{-alpha/2} (I0 + I1)(alpha/2), twice the half-line's;
        # checked at alpha = 1
        alpha = 1.0
        res = integrate_adaptive(lambda x: [-np.expm1(-alpha / (1.0 + x * x))], tol=1e-10)
        closed = math.pi * alpha * I0E_PLUS_I1E_AT_HALF
        assert res.value == pytest.approx(closed / 2.0, abs=1e-8)

    def test_non_convergence_carries_best_estimate(self, monkeypatch):
        monkeypatch.setattr(specfun, "PANEL_LIMIT", 3)
        with pytest.raises(QuadratureConvergenceError) as err:
            integrate_adaptive(lambda x: [np.sin(1.0 / x) / (1.0 + x * x)], tol=1e-14)
        assert isinstance(err.value.best, QuadratureResult)
        assert math.isfinite(err.value.best.value)

    def test_first_pass_counts_every_node(self):
        first = INITIAL_PANELS * (2 * PANEL_NODES + 1)  # one Kronrod rule a panel
        assert integrate_adaptive(lambda x: [(1.0 + x) ** -2], tol=1e-12).evaluations == first

    def test_estimate_is_the_embedded_gauss_rule_error(self):
        # on 1 / (c^2 + x^2), c = 0.01, the Kronrod values are exact to
        # ~3e-13 and the first pass's 16-point Gauss values miss by ~2e-6,
        # so the estimate is the Gauss rule's summed error on the panels
        c = 0.01
        res = integrate_adaptive(lambda x: [1.0 / (c * c + x * x)], tol=1e-3)
        assert res.evaluations == INITIAL_PANELS * (2 * PANEL_NODES + 1)
        assert res.value == pytest.approx(math.pi / (2.0 * c), abs=1e-12)
        edges = np.linspace(0.0, 1.0, INITIAL_PANELS + 1)
        t, _, w = kronrod_panels(edges[:-1], edges[1:])
        t = t[:, 1::2]  # the Gauss nodes
        u = 1.0 - t
        gauss = (w / (u * u) / (c * c + (t / u) ** 2)).sum(axis=-1)
        with np.errstate(divide="ignore"):  # the last edge maps to x = inf
            exact = np.diff(np.arctan(edges / (1.0 - edges) / c)) / c
        assert res.error_estimate == pytest.approx(np.abs(gauss - exact).sum(), rel=1e-6)

    def test_refines_where_the_integrand_is_sharp(self):
        eps = 1e-6
        res = integrate_adaptive(lambda x: [1.0 / (eps + x * x)], tol=1e-7)
        assert res.value == pytest.approx(math.pi / (2.0 * math.sqrt(eps)), abs=1e-7)
        assert res.error_estimate <= 1e-7
        assert res.evaluations > INITIAL_PANELS * (2 * PANEL_NODES + 1)

    def test_parts_bisect_the_union_of_their_requests(self):
        # two parts sharp at x = 0 and at x = 100: each asks for its own
        # panels, and one iteration bisects both sets, so the stacked pass
        # calls f no more often than the longer of two scalar passes
        eps = 1e-6
        parts = (lambda x: 1.0 / (eps + x * x), lambda x: 1.0 / (eps + (x - 100.0) ** 2))

        def calls(f, rule):
            sizes = []
            result = rule(lambda x: sizes.append(x.size) or f(x), 1e-7)
            return result, sizes

        res, stacked = calls(lambda x: np.stack([part(x) for part in parts]), integrate_adaptive)
        scalar = [len(calls(part, spectral_reference.integrate_adaptive)[1]) for part in parts]
        assert min(scalar) < max(scalar)
        assert len(stacked) <= max(scalar)
        assert res.evaluations == sum(stacked)
        assert all(e <= 1e-7 for e in res.errors)
        assert res.values[0] == pytest.approx(math.pi / (2.0 * math.sqrt(eps)), abs=1e-7)

    def test_round_off_floor_scales_with_the_magnitude(self):
        # no rule meets 1e-300; the estimate stops at the round-off floor
        # of the integral of |f|, here 1e6 int_0^inf e^{-x} |cos x| dx
        res = integrate_adaptive(lambda x: [1e6 * np.exp(-x) * np.cos(x)], tol=1e-300)
        assert res.value == pytest.approx(1e6 / 2.0, abs=1e-8)
        e, e2 = math.exp(-math.pi / 2.0), math.exp(-math.pi)
        magnitude = (1.0 + e) / 2.0 + e * (1.0 + e2) / (2.0 * (1.0 - e2))
        assert res.error_estimate <= ROUND_OFF * 1e6 * magnitude

    def test_nan_integrand_exhausts_the_panel_budget(self, monkeypatch):
        # the message gives every part's estimate against its budget
        monkeypatch.setattr(specfun, "PANEL_LIMIT", 40)
        with pytest.raises(QuadratureConvergenceError,
                           match=r"estimates \(nan, [^)]+\) against budgets \(1e-10, 1e-10\) "
                                 r"at the limit of 40 panels"):
            integrate_adaptive(lambda x: [np.where(x > 0.5, np.nan, 1.0) * np.exp(-x),
                                          np.exp(-x)], tol=1e-10)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            integrate_adaptive(lambda x: [np.exp(-x)], tol=0.0)
        # a bare integrand is not a stack of parts
        with pytest.raises(ValueError, match="stacked along a new first axis"):
            integrate_adaptive(lambda x: np.exp(-x), tol=1e-10)

    def test_result_invariants(self):
        with pytest.raises(ValueError):
            QuadratureResult(values=(1.0,), errors=(-1e-3,), magnitudes=(1.0,), evaluations=5)
        with pytest.raises(ValueError):
            QuadratureResult(values=(1.0,), errors=(0.0,), magnitudes=(1.0,), evaluations=0)
        with pytest.raises(ValueError):
            QuadratureResult(values=(1.0, 2.0), errors=(0.0,), magnitudes=(1.0, 2.0), evaluations=1)
        result = QuadratureResult(values=(1.0, 2.0), errors=(1e-3, 2e-3), magnitudes=(1.0, 2.0),
                                  evaluations=1)
        assert (result.value, result.error_estimate) == (3.0, 3e-3)


class TestIntegratePanels:
    """The pieces of a composite panel pass: the Kronrod panel rule on any
    panels (``kronrod_panels``), its reduction (``panel_sums``, shared with
    the adaptive rule) and the budget its estimate must meet
    (``within_budget``, shared with the adaptive rule)."""

    def test_nodes_broadcast_and_weights_sum_to_width(self):
        lo = np.array([[0.0], [1.0]])
        hi = np.array([[0.5, 1.0, 2.0], [1.5, 3.0, 4.0]])
        t, w, w_gauss = kronrod_panels(lo, hi)
        assert t.shape == w.shape == (2, 3, 2 * PANEL_NODES + 1)
        assert w_gauss.shape == (2, 3, PANEL_NODES)
        for weights in (w, w_gauss):
            np.testing.assert_allclose(weights.sum(axis=-1), hi - lo, rtol=1e-14)
        assert np.all((t > lo[..., None]) & (t < hi[..., None]))

    def test_polynomials_exact_with_zero_estimate(self):
        # degree 2n - 1 is the embedded Gauss rule's exactness limit; there
        # the Kronrod and Gauss values agree, so the estimate vanishes, and
        # |x^degree| integrates to the magnitude
        degree = 2 * PANEL_NODES - 1
        exact = (2.0 ** (degree + 1) - 1.0) / (degree + 1)
        t, w, w_gauss = kronrod_panels([-1.0, 0.5], [0.5, 2.0])
        value, estimate, magnitude = panel_sums((t ** degree)[None], w, w_gauss).sum(axis=-1)[:, 0]
        assert value == pytest.approx(exact, rel=1e-13)
        assert estimate <= 1e-13 * exact
        assert magnitude == pytest.approx((2.0 ** (degree + 1) + 1.0) / (degree + 1), rel=1e-13)

    def test_named_integrals_share_the_nodes(self):
        # one set of nodes serves several integrands, each exact to round-off
        t, w, _ = kronrod_panels(np.arange(3.0), np.arange(1.0, 4.0))
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
            # Kronrod and Gauss values differ by ``shift``; |f| integrates to ``magnitude``
            result = QuadratureResult(values=(1.0 + shift,), errors=(abs(shift),),
                                      magnitudes=(magnitude,), evaluations=1)
            (part_met,) = within_budget(result, tol)
            return part_met
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
        assert within_budget(QuadratureResult((math.nan,), (0.0,), (1.0,), 1), 1.0) == (False,)
        assert within_budget(QuadratureResult((1.0,), (math.nan,), (1.0,), 1), 1.0) == (False,)

    def test_each_part_meets_its_own_budget(self):
        # one tol for every part, each part with the round-off floor of its
        # own magnitude: a part's slack is not lent to another
        result = QuadratureResult(values=(1.0, 1e6), errors=(2e-12, 2e-12),
                                  magnitudes=(1.0, 1e6), evaluations=1)
        assert result.error_estimate > 1e-12
        assert within_budget(result, 1e-12) == (False, True)
        assert within_budget(result, 1e-11) == (True, True)
