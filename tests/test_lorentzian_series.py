"""The lorentzian steady state in closed form (``mapping.eta_lorentzian``)
against 40-digit mpmath, its limits, and the spectral engine."""

import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinmap.mapping import (DEFAULT_SPECTRAL_TOL, LORENTZIAN_SERIES_FROM, SqueezingModel,
                             efficiency_curve, eta_closed, eta_lorentzian, variance_spectral)

BANDWIDTHS = (0.3, 0.84, 1.0, 1.2, 3.0, 10.0, 50.0, 1e4)
ALPHAS = [10.0 ** (k / 2.0) for k in range(-6, 13)] + [
    0.01,  # the bracket as written cancels to O(alpha^2): 2.7e-11 lost here
    899.0,  # at b = 0.84, rho^n underflows long before the orders that matter
    LORENTZIAN_SERIES_FROM * (1.0 - 1e-15), LORENTZIAN_SERIES_FROM,  # either side of the switch
]


def _scaled_bessel_i_mp(alpha):
    """e^{-alpha} I_n(alpha) in mpmath, from Miller's recurrence started far
    past where any order matters, normalized by sum_n I_n = e^alpha."""
    a = mp.mpf(alpha)
    top = 40 + int(1.5 * math.sqrt(80.0 * alpha))
    later, value, values, scale = mp.mpf(0), mp.mpf(1), [], 2 / a
    for n in range(top, 0, -1):
        values.append(value)
        later, value = value, n * scale * value + later
    values.append(value)
    values.reverse()
    norm = 2 * mp.fsum(values) - values[0]
    return [v / norm for v in values]


def _series_mp(alpha, scaled, b):
    """K(alpha, b) = (b / 2 alpha) [1 - 2 e^{-alpha/(1+b)} + e^{-alpha} I0
    + 2 sum_{n>=1} rho^n e^{-alpha} I_n], as written."""
    a, b = mp.mpf(alpha), mp.mpf(b)
    rho = (b - 1) / (b + 1)
    weighted = mp.mpf(0)  # sum_{n>=1} rho^(n-1) e^{-alpha} I_n, by Horner's rule
    for e in reversed(scaled[1:]):
        weighted = e + rho * weighted
    return b / (2 * a) * (1 - 2 * mp.exp(-a / (1 + b)) + scaled[0] + 2 * rho * weighted)


def test_mpmath_reference_uses_mpmaths_own_bessel_i():
    with mp.workdps(50):
        for alpha in (1e-3, 0.7, 30.0):
            scaled = _scaled_bessel_i_mp(alpha)
            for n in (0, 1, 7):
                exact = mp.besseli(n, alpha) * mp.exp(-alpha)
                assert abs(scaled[n] / exact - 1) < mp.mpf(10) ** -40


@pytest.mark.parametrize("alpha", ALPHAS, ids=lambda a: f"{a:.4g}")
def test_series_matches_mpmath(alpha):
    with mp.workdps(40):
        scaled = _scaled_bessel_i_mp(alpha)
        for b in BANDWIDTHS:
            exact = _series_mp(alpha, scaled, b)
            value = eta_lorentzian(alpha, b)
            assert abs(value / exact - 1) <= 1e-15, (alpha, b, value, float(exact))


def test_high_bandwidth_limit_is_the_flat_closed_form():
    # K -> 1 - e^{-alpha}(I0 + I1) as b -> inf; eta_closed subtracts from 1,
    # so it carries an absolute error of a few 1e-16
    for k in range(-12, 25):
        alpha = 10.0 ** (k / 4.0)
        assert eta_lorentzian(alpha, 1e30) == pytest.approx(eta_closed(alpha), rel=1e-15,
                                                              abs=5e-16)


def test_zero_depth_and_invalid_arguments():
    assert eta_lorentzian(0.0, 3.0) == 0.0
    for alpha, b in ((-1.0, 3.0), (math.nan, 3.0), (1.0, 0.0), (1.0, math.nan), (1.0, -2.0)):
        with pytest.raises(ValueError):
            eta_lorentzian(alpha, b)


def test_efficiency_does_not_depend_on_squeezing_degree():
    grid = [0.0, 0.01, 1.0, 2.0, 17.0, 300.0]
    curves = [[eta for _, eta in efficiency_curve(grid, SqueezingModel.lorentzian(7.0, s=s))]
              for s in (1.0, 0.6, 1e-3)]
    assert curves[0] == curves[1] == curves[2] == [eta_lorentzian(a, 7.0) for a in grid]
    # s = 0 is vacuum input: eta is 0/0
    vacuum = efficiency_curve(grid, SqueezingModel.lorentzian(7.0, s=0.0))
    assert all(math.isnan(eta) for _, eta in vacuum)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.floats(-3.0, 4.0), st.floats(-1.0, 3.0), st.floats(0.0, 1.0))
def test_series_is_the_spectral_steady_state(log_alpha, log_b, s):
    # the spectral engine holds each of its two parts to DEFAULT_SPECTRAL_TOL
    alpha, b = 10.0 ** log_alpha, 10.0 ** log_b
    report = variance_spectral(alpha, SqueezingModel.lorentzian(b, s=s))
    assert abs(report.variance_norm - (1.0 - s * eta_lorentzian(alpha, b))) \
        <= 2.0 * DEFAULT_SPECTRAL_TOL
