"""Nested adaptive-quadrature reference of the transient engine.

This is the implementation ``dynamics.transient_variance`` replaced: every
integral is an adaptive ``scipy.integrate.quad`` split at the drive
breakpoints, and the lorentzian correlator is a double integral, an inner
adaptive quadrature per outer node with an explicit split at the
correlator's kink.  It uses scipy's scalar Bessel functions and
``PulseArea.value`` one point at a time, and shares no quadrature rule,
node, filter or Bessel evaluation with the panel engine.
"""

import math

from scipy.integrate import quad
from scipy.special import j0 as bessel_j0
from scipy.special import j1 as bessel_j1

from spinmap.mapping import NoiseReport, eta_from_variance


def _phi2(y):
    """J0^2 + J1^2 at argument 2 sqrt(y); the z-integrated squared J0 kernel / L."""
    r = 2.0 * math.sqrt(y)
    return bessel_j0(r) ** 2 + bessel_j1(r) ** 2


def _j1_over_sqrt(y):
    """sqrt(1/y) J1(2 sqrt(y)) with its removable singularity."""
    if y < 1e-8:
        return 1.0 - y / 2.0 + y * y / 12.0
    root = math.sqrt(y)
    return bessel_j1(2.0 * root) / root


def _integrate_with_knots(f, lo, hi, knots, tol):
    """Adaptive quadrature split at interior drive-profile breakpoints."""
    points = sorted({lo, hi, *(k for k in knots if lo < k < hi)})
    total = 0.0
    for a, b in zip(points, points[1:]):
        total += quad(f, a, b, epsabs=tol / max(1, len(points) - 1), epsrel=1e-12, limit=500)[0]
    return total


def transient_variance(area, length, gamma, model, tau, tol=1e-10) -> NoiseReport:
    a_tau = area.value(tau)
    knots = [t for t in area.breakpoints if t < tau]

    var_init = math.exp(-2.0 * gamma * tau) * _phi2(a_tau * length)
    if tau == 0.0:
        return NoiseReport(variance_norm=var_init,
                           eta=eta_from_variance(var_init, model.noise_floor),
                           atom_langevin_part=var_init, light_part=0.0)

    def lang_integrand(tp):
        u = a_tau - area.value(tp)
        return 2.0 * gamma * math.exp(-2.0 * gamma * (tau - tp)) * _phi2(u * length)

    var_lang = _integrate_with_knots(lang_integrand, 0.0, tau, knots, tol)

    def light_amplitude(tp):
        u = a_tau - area.value(tp)
        return (math.exp(-gamma * (tau - tp)) * math.sqrt(area.rate(tp) * length)
                * _j1_over_sqrt(u * length))

    var_white = _integrate_with_knots(lambda tp: light_amplitude(tp) ** 2, 0.0, tau, knots, tol)

    if model.kind == "flat":
        var_light = model.x0_sq * var_white
    else:
        gq = model.gamma_q
        inner_tol = max(tol, 1e-8)

        def inner(tp):
            def f(ts):
                return light_amplitude(ts) * math.exp(-gq * abs(tp - ts))
            return light_amplitude(tp) * _integrate_with_knots(f, 0.0, tau, [*knots, tp],
                                                               inner_tol)
        corr = _integrate_with_knots(inner, 0.0, tau, knots, inner_tol)
        var_light = var_white - model.s * (gq / 2.0) * corr

    variance = var_init + var_lang + var_light
    return NoiseReport(variance_norm=variance,
                       eta=eta_from_variance(variance, model.noise_floor),
                       atom_langevin_part=var_init + var_lang, light_part=var_light)
