"""References of the transient engine.

``transient_variance`` is the nested adaptive quadrature the panel engine
replaced: every integral is an adaptive ``scipy.integrate.quad`` split at
the drive breakpoints, and the lorentzian correlator is a double integral,
an inner adaptive quadrature per outer node with an explicit split at the
correlator's kink.  It uses scipy's scalar Bessel functions,
``PulseArea.value`` and ``drive_rate`` one point at a time, and shares no
quadrature rule, node, filter or Bessel evaluation with the panel engine.

``panel_pass`` is the panel engine as it stood before its fixed cost per
call was cut and before it moved onto Gauss-Kronrod panels: the same panel
edges, the PANEL_NODES-point Gauss rule on every panel and again on its
halves, whose change is the estimate, reached through public
``PulseArea`` calls, ``drive_rate`` and plain numpy layouts, with the
lorentzian filter it had then, a GAP_NODES-point Gauss rule in every gap
between a panel's nodes.  The library's pass must reach the same outcome, and the same
report to round-off.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import j0 as bessel_j0
from scipy.special import j1 as bessel_j1

from spinmap.dynamics import PANEL_DECAY, PANEL_PHASE, TRANSIENT_PANEL_LIMIT, PulseArea
from spinmap.mapping import NoiseReport, SqueezingModel, eta_from_variance
from spinmap.specfun import (PANEL_NODES, QuadratureConvergenceError, QuadratureResult,
                             bessel_kernels, gauss_rule, within_budget)

GAP_NODES = 6  # Gauss-Legendre nodes per gap between a panel's nodes (the filter)

# the lorentzian filter's geometry bounds: b = Gq / Gamma up to 200 puts up to
# ~50 panels on [0, tau] (PANEL_DECAY e-folds of 2 Gamma + Gq each), with
# breakpoints and a dark segment; (area, model, tau)
HIGH_BANDWIDTH = [
    (PulseArea.constant(5.0), SqueezingModel.lorentzian(200.0, s=1.0), 3.0),
    (PulseArea((0.7, 1.9), (40.0, 12.0), 25.0), SqueezingModel.lorentzian(120.0, s=0.9), 2.5),
    (PulseArea((0.4, 1.1, 2.0), (10.0, 0.0, 30.0), 0.0), SqueezingModel.lorentzian(60.0, s=0.6),
     3.0),
]


def drive_rate(area, t):
    """The drive rate a'(t), right-continuous, from the drive's public
    ``breakpoints``, ``rates`` and ``final_rate``: the rate of the segment
    that t lies in.  A float gives a float, an array of times an array."""
    rate = np.array((*area.rates, area.final_rate))[np.searchsorted(area.breakpoints, t, "right")]
    return float(rate) if rate.ndim == 0 else rate


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
        return (math.exp(-gamma * (tau - tp)) * math.sqrt(drive_rate(area, tp) * length)
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


def _panel_edges(area, length: float, rate: float, tau: float) -> np.ndarray:
    """Panel edges on [0, tau] for integrands smooth between breakpoints.

    The edges hold every drive breakpoint before tau, a uniform grid that
    spans at most PANEL_DECAY e-folds of the exponential rate ``rate`` per
    step, and the times where the Bessel phase 2 sqrt(u L),
    u = a(tau) - a(t), crosses a multiple of its step (at most PANEL_PHASE),
    so no panel spans more of either.  Raises OverflowError, before any
    edge is placed, where that takes more than TRANSIENT_PANEL_LIMIT panels.
    """
    ends = np.array([0.0, *(t for t in area.breakpoints if t < tau), tau])
    a = area.value(ends)
    ul = (a[-1] - a) * length  # nonincreasing
    phase = 2.0 * math.sqrt(ul[0])
    n_phase = max(math.ceil(phase / PANEL_PHASE), 1)
    n_decay = max(math.ceil(tau * rate / PANEL_DECAY), 1)
    panels = len(ends) + n_phase + n_decay - 3
    if panels > TRANSIENT_PANEL_LIMIT:
        raise OverflowError(
            f"the transient pass on [0, {tau:.6g}] needs {panels:.6g} panels, more than "
            f"TRANSIENT_PANEL_LIMIT = {TRANSIENT_PANEL_LIMIT}: (2 Gamma + Gq) tau = "
            f"{tau * rate:.6g} e-folds and {phase:.6g} rad of Bessel phase")
    crossings = (np.arange(1, n_phase) * (phase / n_phase / 2.0)) ** 2
    return np.sort(np.concatenate([
        ends,
        np.arange(1, n_decay) * (tau / n_decay),
        np.interp(crossings, ul[::-1], ends[::-1]),
    ]))


def panel_pass(
    area,
    length: float,
    gamma: float,
    model,
    tau: float,
    tol: float = 1e-10,
) -> NoiseReport:
    """The panel pass as ``dynamics.transient_variance`` ran it before its
    panel geometry came from one segment lookup: a(tau), the areas of the
    ends and of every panel start, and every panel's rate each from their
    own ``PulseArea.value`` or ``rate`` call; the lorentzian filter's gap
    rule, its gap nodes along the last axis; the carry from panel to panel
    in numpy scalars; the kernels of every node and of the initial
    coherence joined by ``np.append``; the PANEL_NODES-point Gauss rule on
    every panel and on its halves."""
    for name, value in (("length", length), ("gamma", gamma), ("tau", tau)):
        if not 0.0 <= value < math.inf:  # rejects NaN too
            raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    a_tau = area.value(tau)
    # the initial coherence decays through J0^2 + J1^2 at 2 sqrt(a(tau) L),
    # with J0 and sqrt(1/y) J1 at y = a(tau) L the exchange kernels
    y_init = a_tau * length
    gq = model.gamma_q if model.kind == "lorentzian" else 0.0

    # the panels whole (n of them), then halved, each pass in time order
    edges = _panel_edges(area, length, 2.0 * gamma + gq, tau)
    n = len(edges) - 1
    halved = np.empty(2 * n + 1)
    halved[::2] = edges
    halved[1::2] = (edges[1:] + edges[:-1]) / 2.0
    lo = np.concatenate([edges[:-1], halved[:-1]])
    hi = np.concatenate([edges[1:], halved[1:]])
    x, w = gauss_rule(PANEL_NODES)
    width = (hi - lo)[:, None]
    t, w = lo[:, None] + width * x, width * w
    # the edges hold every breakpoint, so inside a panel the rate a' is
    # constant and u L falls linearly from its value at the panel's start
    a, b = lo[:, None], hi[:, None]
    ul_start = ((a_tau - area.value(lo)) * length)[:, None]
    slope = drive_rate(area, (lo + hi) / 2.0)[:, None] * length
    weight = np.sqrt(slope)  # the drive weight sqrt(a' L) of the light kernel
    ul = ul_start - slope * (t - a)
    # J0 and j = sqrt(1/(u L)) J1 at 2 sqrt(u L) for every node and, last,
    # for the initial coherence: one evaluation
    j0, j = bessel_kernels(np.append(ul, y_init))
    atom_init = math.exp(-2.0 * gamma * tau) * float(j0[-1] ** 2 + y_init * j[-1] ** 2)
    j0, j = j0[:-1].reshape(t.shape), j[:-1].reshape(t.shape)
    damp = np.exp(-gamma * (tau - t))
    # the light kernel on the white input, sqrt(a'(t) L) j, decayed
    amp = weight * j * damp
    # the Langevin kernel J0^2 + J1^2 at 2 sqrt(u L); it and white are nonnegative
    lang = 2.0 * gamma * (w * damp * damp * (j0 * j0 + ul * j * j)).sum(axis=1)
    white = (w * amp * amp).sum(axis=1)
    if model.kind == "flat":
        light = light_abs = model.x0_sq * white
        evaluations = t.size
    else:
        # e^{-Gq |t - t'|} = e^{-Gq (t - t')} for t' < t, so the correlator's
        # double integral is 2 int A(t) y(t) dt with the causal filter
        # y(t) = int_0^t A(t') e^{-Gq (t - t')} dt'.  The nodes of a panel
        # [a, b] cut it into gaps [a, t_1], [t_1, t_2], ..., [t_16, b] with
        # right ends t_k (t_17 = b); a GAP_NODES-point rule gives each gap's
        # increment inc_k = int A(t') e^{-Gq (t_k - t')} dt' over the gap, and
        # y(t_i) = e^{-Gq (t_i - a)} (y(a) + sum_{k <= i} e^{Gq (t_k - a)} inc_k),
        # whose factors stay below e^{PANEL_DECAY}.  y(b) carries over to the
        # next panel as one scalar.
        ends = np.concatenate([t, b], axis=1)
        xg, wg = gauss_rule(GAP_NODES)
        starts = np.concatenate([a, t], axis=1)[..., None]
        width = ends[..., None] - starts
        tg, wg = starts + width * xg, width * wg
        ulg = ul_start[:, :, None] - slope[:, :, None] * (tg - a[:, :, None])
        inc = (wg * weight[:, :, None] * bessel_kernels(ulg, (1,))[0] * np.exp(
            -gamma * (tau - tg) - gq * (ends[:, :, None] - tg))).sum(axis=-1)
        rise = gq * (ends - a)
        fade = np.exp(-rise)
        sums = np.cumsum(np.exp(rise) * inc, axis=1)
        y_start = np.zeros(len(lo))
        for p in range(1, len(lo)):
            if p != n:  # y(0) = 0 where the halved pass starts again
                y_start[p] = fade[p - 1, -1] * (y_start[p - 1] + sums[p - 1, -1])
        corr = 2.0 * w * amp * fade[:, :-1] * (y_start[:, None] + sums[:, :-1])
        light = white - model.s * (gq / 2.0) * corr.sum(axis=1)
        light_abs = white + model.s * (gq / 2.0) * np.abs(corr).sum(axis=1)
        evaluations = t.size + tg.size

    # each part whole and halved, and the integral of its |integrand| halved
    # (the same where the integrand is nonnegative); the halved values are
    # kept and their change under halving is each part's error estimate
    (whole_lang, lang), (whole_light, light), (_, light_abs) = (
        np.add.reduceat(v, [0, n]).tolist() for v in (lang, light, light_abs))
    result = QuadratureResult(values=(lang, light),
                              errors=(abs(lang - whole_lang), abs(light - whole_light)),
                              magnitudes=(lang, light_abs), evaluations=evaluations)
    met = within_budget(result, tol)
    if not all(met):
        part = met.index(False)
        raise QuadratureConvergenceError(
            f"panel quadrature of the {('Langevin part', 'light part')[part]} did not converge on "
            f"[{edges[0]}, {edges[-1]}]: it changed by {result.errors[part]:.3g} when {n} panels "
            f"were halved", result)
    return NoiseReport.from_parts(atom_init + lang, light, model.noise_floor)
