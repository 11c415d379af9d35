"""Time-domain machinery: Bessel Green-function kernels, transient variance,
and an independent discretized propagation oracle.

Analytic route
--------------
For a drive with accumulated area a(tau) the collective spin responds to the
initial coherence through a J0 kernel, to the Langevin force through the same
J0 kernel integrated over the sample, and to the input light through the
collective J1 kernel.  Squaring those kernels against delta-correlated inputs
gives the variance in nL units as three one-dimensional time integrals; the
spatial integrals collapse through

    int_0^L J0^2(2 sqrt(u w)) dw = L [J0^2(2 sqrt(uL)) + J1^2(2 sqrt(uL))].

For constant drive and Gamma tau >> 1 these reproduce the closed-form
steady state exactly.

Grid oracle
-----------
``simulate_grid`` discretizes the coupled first-order system directly in
retarded time: coherence samples live on z nodes with trapezoidal collective
weights, the field is eliminated per step through the cumulative trapezoid
of the coherence, and every unknown is propagated as influence coefficients
on the discretized inputs (initial coherence, input-field cells, Langevin
increments).  Second moments are therefore exact for the discretization; no
noise is ever sampled.  Per step the update applies the exact decay factor
e^{-Gamma dt} together with the one-step flow of the discrete coupling
operator (a lower-triangular matrix exponential in closed form), and injected
noise enters at its exponentially weighted mean arrival time inside the
step.  Smooth variance functionals converge at second order under joint
refinement (declared order 2); kernel tables are cell-averaged influence
coefficients labeled at the left grid node and converge at first order.

Every output is a contraction of the coefficients with the quadrature
weights w.  A step inside one drive segment uses that segment's exact rate,
so when the whole horizon has one rate every step applies the same operator
M and only the row vectors r_m = w M^m are propagated: r_K gives the
initial-coherence weights at step K, r_m v_inj the field weight of an input
cell m steps back (a Toeplitz table), and sum_{m<K} r_m lang r_m the
Langevin part.  That run builds three step exponentials, O(nz^2) each, and
costs O(ntau nz^2).  Only a drive with more than one rate in the horizon
steps the full coefficient matrices (``_propagate_dense``, O(ntau nz^3),
three exponentials per distinct rate); it is also the tests' reference for
the contracted path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.linalg import toeplitz

from .mapping import NoiseReport, SqueezingModel, eta_from_variance
from .model import DriveParams, MediumParams, total_dephasing
from .specfun import bessel_j0, bessel_j1, integrate_adaptive

STABILITY_EXCHANGE_BOUND = 0.1   # g * dt * dz
STABILITY_DECAY_BOUND = 0.5      # Gamma * dt
VARIANCE_CONVERGENCE_ORDER = 2   # declared order for smooth variance functionals
KERNEL_CONVERGENCE_ORDER = 1     # declared order for node-labeled kernel tables


class GridConfigError(ValueError):
    """Grid violates the declared stability/accuracy bounds."""


class GridGrowthError(RuntimeError):
    """Influence coefficients grew without bound during propagation."""


@dataclass(frozen=True)
class PulseArea:
    """Accumulated drive area a(tau) = integral of the coupling rate.

    Piecewise-linear by construction (the drive profile is piecewise
    constant), so the sampled representation is exact.  After the last
    breakpoint the rate is ``final_rate`` (zero for a pulse that ends).
    """

    breakpoints: tuple[float, ...]   # segment end times, strictly increasing
    rates: tuple[float, ...]         # coupling rate within each segment [1/(m s)]
    final_rate: float = 0.0

    def __post_init__(self):
        if len(self.breakpoints) != len(self.rates):
            raise ValueError("breakpoints and rates must have equal length")
        last = 0.0
        for t in self.breakpoints:
            if t <= last:
                raise ValueError("breakpoints must be strictly increasing and positive")
            last = t
        if any(r < 0 for r in self.rates) or self.final_rate < 0:
            raise ValueError("rates must be nonnegative")

    @classmethod
    def constant(cls, g: float) -> "PulseArea":
        """Constant drive of rate g for all times."""
        return cls(breakpoints=(), rates=(), final_rate=g)

    @classmethod
    def from_drive(cls, drive: DriveParams) -> "PulseArea":
        """Build from a drive's profile; empty profile means constant unit
        power over tau_pulse, drive off afterwards."""
        profile = drive.profile or ((drive.tau_pulse, 1.0),)
        breakpoints = []
        rates = []
        t = 0.0
        for duration, power in profile:
            t += duration
            breakpoints.append(t)
            rates.append(drive.g * power)
        return cls(breakpoints=tuple(breakpoints), rates=tuple(rates), final_rate=0.0)

    def value(self, tau: float) -> float:
        """a(tau); a(0) = 0, nondecreasing."""
        if tau < 0:
            raise ValueError(f"tau must be nonnegative, got {tau}")
        a = 0.0
        prev = 0.0
        for t, r in zip(self.breakpoints, self.rates):
            if tau <= t:
                return a + r * (tau - prev)
            a += r * (t - prev)
            prev = t
        return a + self.final_rate * (tau - prev)

    def rate(self, tau: float) -> float:
        """Instantaneous coupling rate a'(tau) (right-continuous)."""
        if tau < 0:
            raise ValueError(f"tau must be nonnegative, got {tau}")
        for t, r in zip(self.breakpoints, self.rates):
            if tau < t:
                return r
        return self.final_rate

    def step_rates(self, dt: float, n: int) -> np.ndarray:
        """Mean coupling rate over each step [k dt, (k+1) dt], k < n.

        A step inside one segment gets that segment's rate exactly, so a grid
        aligned to the profile sees one value per segment (a breakpoint
        within 1e-9 dt of a node counts as on it).  Only a step straddling a
        breakpoint gets its area increment over dt.
        """
        lo = np.arange(n) * dt
        hi = np.arange(1, n + 1) * dt
        slack = 1e-9 * dt
        knots = np.asarray(self.breakpoints, dtype=float)
        segment_rates = np.array([*self.rates, self.final_rate])
        rates = segment_rates[np.searchsorted(knots, (lo + hi) / 2.0, side="right")]
        straddle = (np.searchsorted(knots, hi - slack)
                    > np.searchsorted(knots, lo + slack, side="right"))
        for k in np.flatnonzero(straddle):
            rates[k] = (self.value(hi[k]) - self.value(lo[k])) / dt
        return rates

    def knots_up_to(self, tau: float) -> list[float]:
        return [t for t in self.breakpoints if t < tau]

    def max_rate(self) -> float:
        return max((*self.rates, self.final_rate), default=self.final_rate)


def collective_initial_kernel(zp: float, tau: float, area: PulseArea, length: float,
                              gamma: float) -> float:
    """Weight of the initial coherence at z' in the collective spin at time tau:

        e^{-Gamma tau} J0(2 sqrt(a(tau) (L - z'))).
    """
    if not 0.0 <= zp <= length:
        raise ValueError(f"zp must lie in [0, {length}], got {zp}")
    return math.exp(-gamma * tau) * bessel_j0(2.0 * math.sqrt(area.value(tau) * (length - zp)))


def _j1_over_sqrt(y: float) -> float:
    """sqrt(1/y) J1(2 sqrt(y)) with its removable singularity; equals the
    series 1 - y/2 + y^2/12 - ... near zero."""
    if y < 1e-8:
        return 1.0 - y / 2.0 + y * y / 12.0
    root = math.sqrt(y)
    return bessel_j1(2.0 * root) / root


def collective_light_kernel(tau: float, tau_p: float, area: PulseArea, length: float,
                            gamma: float) -> float:
    """Weight of the input light at tau' < tau in the collective spin:

        e^{-Gamma (tau - tau')} sqrt(L/u) J1(2 sqrt(u L)),  u = a(tau) - a(tau'),

    with the u -> 0 limit L.  The classical-field factor E_s(tau') is not
    included; callers weight by the drive where needed.
    """
    if tau_p >= tau:
        raise ValueError(f"tau_p must precede tau, got tau_p={tau_p} tau={tau}")
    u = area.value(tau) - area.value(tau_p)
    return math.exp(-gamma * (tau - tau_p)) * length * _j1_over_sqrt(u * length)


def _phi2(y: float) -> float:
    """J0^2 + J1^2 at argument 2 sqrt(y); the z-integrated squared J0 kernel / L."""
    r = 2.0 * math.sqrt(y)
    return bessel_j0(r) ** 2 + bessel_j1(r) ** 2


def _integrate_with_knots(f, lo: float, hi: float, knots, tol: float) -> float:
    """Adaptive quadrature split at interior drive-profile breakpoints."""
    points = sorted({lo, hi, *(k for k in knots if lo < k < hi)})
    total = 0.0
    for a, b in zip(points, points[1:]):
        total += integrate_adaptive(f, a, b, tol=tol / max(1, len(points) - 1)).value
    return total


def transient_variance(
    area: PulseArea,
    length: float,
    gamma: float,
    model: SqueezingModel,
    tau: float,
    tol: float = 1e-10,
) -> NoiseReport:
    """Collective-spin variance at finite time, in nL units.

    Sums the decayed initial coherence, the Langevin restoration and the
    absorbed-light contribution.  Flat input reduces every piece to a single
    time integral; lorentzian input needs the double time integral over the
    exponential part of its correlator.
    """
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    a_tau = area.value(tau)
    knots = area.knots_up_to(tau)

    var_init = math.exp(-2.0 * gamma * tau) * _phi2(a_tau * length)

    if tau == 0.0:
        return NoiseReport(
            variance_norm=var_init,
            eta=eta_from_variance(var_init, model.noise_floor),
            atom_langevin_part=var_init,
            light_part=0.0,
        )

    def lang_integrand(tp: float) -> float:
        u = a_tau - area.value(tp)
        return 2.0 * gamma * math.exp(-2.0 * gamma * (tau - tp)) * _phi2(u * length)

    var_lang = _integrate_with_knots(lang_integrand, 0.0, tau, knots, tol)

    def light_amplitude(tp: float) -> float:
        # kernel on the white input, including the drive weight sqrt(a'(tau'))
        u = a_tau - area.value(tp)
        return (
            math.exp(-gamma * (tau - tp))
            * math.sqrt(area.rate(tp) * length)
            * _j1_over_sqrt(u * length)
        )

    var_white = _integrate_with_knots(lambda tp: light_amplitude(tp) ** 2, 0.0, tau, knots, tol)

    if model.kind == "flat":
        var_light = model.x0_sq * var_white
    else:
        gq = model.gamma_q
        inner_tol = max(tol, 1e-8)
        def inner(tp: float) -> float:
            def f(ts: float) -> float:
                return light_amplitude(ts) * math.exp(-gq * abs(tp - ts))
            # the correlator kink at ts = tp needs an explicit split
            return light_amplitude(tp) * _integrate_with_knots(
                f, 0.0, tau, [*knots, tp], inner_tol
            )
        corr = _integrate_with_knots(inner, 0.0, tau, knots, inner_tol)
        var_light = var_white - model.s * (gq / 2.0) * corr

    variance = var_init + var_lang + var_light
    return NoiseReport(
        variance_norm=variance,
        eta=eta_from_variance(variance, model.noise_floor),
        atom_langevin_part=var_init + var_lang,
        light_part=var_light,
    )


@dataclass(frozen=True)
class GridSpec:
    """Discretization of (z, tau) for the grid oracle.

    nz cells in z (nz + 1 nodes), ntau steps in retarded time up to tau_max.
    """

    nz: int
    ntau: int
    tau_max: float

    def __post_init__(self):
        if self.nz < 2 or self.ntau < 2:
            raise ValueError("nz and ntau must be at least 2")
        if not self.tau_max > 0:
            raise ValueError("tau_max must be positive")


@dataclass
class KernelTable:
    """Discretized Green-function tables and the variance trace.

    init_kernel[k, j] : collective weight of the initial coherence at z_j at
        time tau_k (converges to the J0 kernel).
    light_kernel[k, kp] : collective weight of the input-field cell starting
        at tau_kp, per unit time and unit drive amplitude (converges to the
        collective J1 kernel); zero columns where the drive is off.
    field_pass[k, kp] : transmitted-field coefficient of E(L, tau_k) on the
        input cell at tau_kp (identity when the coupling vanishes).
    """

    z: np.ndarray
    tau: np.ndarray
    init_kernel: np.ndarray
    light_kernel: np.ndarray
    field_pass: np.ndarray
    variance_trace: np.ndarray
    atom_part_trace: np.ndarray
    light_part_trace: np.ndarray


def expm(x: float, nz: int, dz: float) -> np.ndarray:
    """exp(-x T) for the cumulative-trapezoid matrix T on nz + 1 nodes,
    (T f)_i = trapezoid integral of f from node 0 to node i.

    T / dz = [[0, 0], [1/2, A]] with A lower-triangular Toeplitz of symbol
    (1 + y) / (2 (1 - y)).  So the exponential has first row (1, 0, ..., 0),
    a lower-right block that is lower-triangular Toeplitz of symbol
    E(y) = e^{-t/2} exp(-t y / (1 - y)) = e^{-t/2} sum_k L_k^{(-1)}(t) y^k,
    t = x dz (generalized Laguerre polynomials, by their three-term
    recurrence), and the series (E(y) - 1) / (1 + y) below it in the first
    column.  A closed form, O(nz^2) to fill where a general matrix
    exponential is O(nz^3), and closer to the exact entries than scipy's
    Pade approximant.
    """
    t = x * dz
    lag = [1.0, -t]
    for k in range(1, nz - 1):
        lag.append(((2 * k - t) * lag[k] - (k - 1) * lag[k - 1]) / (k + 1))
    symbol = math.exp(-t / 2.0) * np.array(lag[:nz])
    shifted = symbol.copy()
    shifted[0] = math.expm1(-t / 2.0)
    sign = (-1.0) ** np.arange(nz)
    out = np.zeros((nz + 1, nz + 1))
    out[0, 0] = 1.0
    out[1:, 0] = sign * np.cumsum(sign * shifted)  # series division by 1 + y
    out[1:, 1:] = toeplitz(symbol, np.zeros(nz))
    return out


def _mean_arrival(rate: float, dt: float) -> float:
    """Mean of sigma in [0, dt] under weight e^{-rate sigma}."""
    x = rate * dt
    if x < 1e-6:
        return dt / 2.0 * (1.0 - x / 6.0)
    return (1.0 - (1.0 + x) * math.exp(-x)) / (rate * (1.0 - math.exp(-x)))


def _cell_correlator(model: SqueezingModel, ntau: int, dt: float) -> np.ndarray:
    """Covariance matrix of cell-averaged input quadratures (Toeplitz)."""
    if model.kind == "flat":
        return (model.x0_sq / dt) * np.eye(ntau)
    gq, s = model.gamma_q, model.s
    x = gq * dt
    # exact cell-cell integrals of (Gq/2) e^{-Gq |t - t'|} / dt^2
    diag = (gq / 2.0) * 2.0 * (x - 1.0 + math.exp(-x)) / (gq * gq * dt * dt)
    m = np.arange(1, ntau)
    off = (gq / 2.0) * np.exp(-x * (m - 1)) * (1.0 - math.exp(-x)) ** 2 / (gq * gq * dt * dt)
    first_row = np.empty(ntau)
    first_row[0] = 1.0 / dt - s * diag
    if ntau > 1:
        first_row[1:] = -s * off
    return toeplitz(first_row)


class _Discretization:
    """What both propagators share: nodes, quadrature weights, per-step
    rates, the input correlator and the step operators of each rate."""

    def __init__(self, medium: MediumParams, drive: DriveParams, grid: GridSpec,
                 model: SqueezingModel):
        self.length = length = medium.length
        gamma = total_dephasing(medium, drive, drive_on=True)
        area = PulseArea.from_drive(drive)

        nz, ntau = grid.nz, grid.ntau
        dz = length / nz
        self.dt = dt = grid.tau_max / ntau

        g_max = area.max_rate()
        if g_max * dt * dz > STABILITY_EXCHANGE_BOUND:
            raise GridConfigError(
                f"exchange bound violated: g*dt*dz = {g_max * dt * dz:.3g} > {STABILITY_EXCHANGE_BOUND}"
            )
        if gamma * dt > STABILITY_DECAY_BOUND:
            raise GridConfigError(
                f"decay bound violated: Gamma*dt = {gamma * dt:.3g} > {STABILITY_DECAY_BOUND}"
            )

        self.z = np.linspace(0.0, length, nz + 1)
        self.tau = np.arange(ntau + 1) * dt
        self.w = w = np.full(nz + 1, dz)
        w[0] = w[-1] = dz / 2.0
        self.corr = _cell_correlator(model, ntau, dt)
        self.rates = area.step_rates(dt, ntau)

        d = math.exp(-gamma * dt)
        phi = (1.0 - d) / gamma if gamma > 0 else dt
        s_field = _mean_arrival(gamma, dt)
        s_lang = _mean_arrival(2.0 * gamma, dt)
        self.lang_amp = 1.0 - d * d  # vanishes with the dephasing, as the noise must
        self.coeff_bound = 4.0 * max(1.0, phi * math.sqrt(g_max))

        # (M, v_inj, Hl) per distinct rate: the one-step flow, the injection
        # vector of an input cell, and the flow over the Langevin noise's mean
        # arrival time (one step adds lang_amp Hl diag(1/w) Hl^T to sig)
        self.ops: dict[float, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for rate in dict.fromkeys(self.rates.tolist()):
            self.ops[rate] = (
                d * expm(rate * dt, nz, dz),
                phi * math.sqrt(rate) * expm(rate * s_field, nz, dz).sum(axis=1),
                expm(rate * s_lang, nz, dz),
            )

    def table(self, init_weights, lang_part, light_part, light_kernel,
              field_pass) -> KernelTable:
        """Assemble the tables from w c_init (init_weights), w sig w
        (lang_part) and the light variance of every step."""
        w, length = self.w, self.length
        atom = (np.sum(init_weights * init_weights / w, axis=1) + lang_part) / length
        light = light_part / length
        return KernelTable(
            z=self.z,
            tau=self.tau,
            init_kernel=init_weights / w,
            light_kernel=light_kernel,
            field_pass=field_pass,
            variance_trace=atom + light,
            atom_part_trace=atom,
            light_part_trace=light,
        )


def _propagate_single_rate(disc: _Discretization) -> KernelTable:
    """All steps share one operator M, so only r_m = w M^m is propagated.

    At step K the initial-coherence weights are r_K, the field weight of the
    input cell j < K is s_{K-1-j} with s_m = r_m v_inj, and the Langevin part
    is sum_{m<K} r_m lang r_m.  O(ntau nz^2) against the dense O(ntau nz^3).
    """
    w, rate = disc.w, float(disc.rates[0])
    M, v_inj, Hl = disc.ops[rate]
    ntau = len(disc.rates)

    r = np.empty((ntau + 1, len(w)))
    r[0] = w
    for m in range(ntau):
        r[m + 1] = r[m] @ M
    s = r[:-1] @ v_inj

    # the dense guard bounds the coefficients; their contractions keep that
    # scale as r_K / w (per coherence sample) and s_m / L.  Row i is step
    # i + 1.  "not <=" counts a NaN left by overflow as growth.
    bound = disc.coeff_bound
    bad = ~np.all(np.abs(r[1:] / w) <= bound, axis=1) | ~(np.abs(s) / disc.length <= bound)
    if bad.any():
        raise GridGrowthError(f"influence coefficients diverged at step {np.argmax(bad) + 1}")

    lang_part = np.zeros(ntau + 1)
    rh = r[:-1] @ Hl
    lang_part[1:] = np.cumsum(disc.lang_amp * np.sum(rh * rh / w, axis=1))
    # the correlator is Toeplitz, so the light variance at step K is the
    # quadratic form of s_0..s_{K-1} with its leading K x K block, and each
    # step adds one row and column
    light_part = np.zeros(ntau + 1)
    cross = np.tril(disc.corr, -1) @ s
    light_part[1:] = np.cumsum(s * (2.0 * cross + disc.corr[0, 0] * s))

    field_weights = toeplitz(s, np.zeros(ntau))  # row K - 1 holds w c_field at step K
    sqrt_rate = math.sqrt(rate)
    light_kernel = np.zeros((ntau + 1, ntau))
    if rate > 0:
        light_kernel[1:] = field_weights / (disc.dt * sqrt_rate)
    field_pass = np.eye(ntau)
    field_pass[1:] -= sqrt_rate * field_weights[:-1]
    return disc.table(r, lang_part, light_part, light_kernel, field_pass)


def _propagate_dense(disc: _Discretization) -> KernelTable:
    """Step the full influence-coefficient matrices; needed when the step
    operators differ (more than one drive rate in the horizon)."""
    w, rates, dt, corr = disc.w, disc.rates, disc.dt, disc.corr
    nz1, ntau = len(w), len(rates)
    sqrt_rates = np.sqrt(rates)
    langs = {rate: disc.lang_amp * (Hl * (1.0 / w)) @ Hl.T
             for rate, (_, _, Hl) in disc.ops.items()}

    c_init = np.eye(nz1)
    c_field = np.zeros((nz1, ntau))
    sig = np.zeros((nz1, nz1))

    init_weights = np.zeros((ntau + 1, nz1))
    lang_part = np.zeros(ntau + 1)
    light_part = np.zeros(ntau + 1)
    light_kernel = np.zeros((ntau + 1, ntau))
    field_pass = np.zeros((ntau, ntau))
    init_weights[0] = w

    for k in range(ntau):
        rate = float(rates[k])
        M, v_inj, _ = disc.ops[rate]
        # transmitted field at the current step, before injecting input k
        field_pass[k] = -sqrt_rates[k] * (w @ c_field)
        field_pass[k, k] += 1.0

        c_init = M @ c_init
        c_field = M @ c_field
        c_field[:, k] += v_inj
        sig = M @ (M @ sig).T + langs[rate]

        wf = w @ c_field
        with np.errstate(invalid="ignore", divide="ignore"):
            light_kernel[k + 1] = np.where(rates > 0, wf / (dt * sqrt_rates), 0.0)
        init_weights[k + 1] = w @ c_init
        lang_part[k + 1] = w @ sig @ w
        light_part[k + 1] = wf @ corr @ wf

        if np.max(np.abs(c_init)) > disc.coeff_bound or np.max(np.abs(c_field)) > disc.coeff_bound:
            raise GridGrowthError(f"influence coefficients diverged at step {k + 1}")

    return disc.table(init_weights, lang_part, light_part, light_kernel, field_pass)


def simulate_grid(
    medium: MediumParams,
    drive: DriveParams,
    grid: GridSpec,
    model: SqueezingModel,
) -> tuple[KernelTable, NoiseReport]:
    """Propagate the discretized atom-field system and return exact second
    moments of the discretization together with its Green-function tables.

    Raises GridConfigError when the declared stability bounds are violated
    and GridGrowthError if any influence coefficient grows without bound.
    """
    disc = _Discretization(medium, drive, grid, model)
    single_rate = bool(np.all(disc.rates == disc.rates[0]))
    table = _propagate_single_rate(disc) if single_rate else _propagate_dense(disc)
    variance = float(table.variance_trace[-1])
    report = NoiseReport(
        variance_norm=variance,
        eta=eta_from_variance(variance, model.noise_floor),
        atom_langevin_part=float(table.atom_part_trace[-1]),
        light_part=float(table.light_part_trace[-1]),
    )
    return table, report


def _j1_over_sqrt_vec(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    small = y < 1e-8
    ys = y[small]
    out[small] = 1.0 - ys / 2.0 + ys * ys / 12.0
    root = np.sqrt(y[~small])
    out[~small] = special.j1(2.0 * root) / root
    return out


def light_kernel_reference(area: PulseArea, length: float, gamma: float,
                           tau_nodes) -> np.ndarray:
    """Continuum collective light kernel sampled at the grid nodes.

    Row k holds e^{-Gamma (tau_k - tau_kp)} sqrt(L/u) J1(2 sqrt(uL)) for
    every earlier node tau_kp; the layout matches KernelTable.light_kernel.
    """
    t = np.asarray(tau_nodes, dtype=float)
    avals = np.array([area.value(x) for x in t])
    ntau = len(t) - 1
    kernel = np.zeros((ntau + 1, ntau))
    k, kp = np.tril_indices(ntau + 1, -1, ntau)
    u = avals[k] - avals[kp]
    kernel[k, kp] = np.exp(-gamma * (t[k] - t[kp])) * length * _j1_over_sqrt_vec(u * length)
    return kernel


@dataclass(frozen=True)
class ConvergenceStudy:
    sizes: tuple[tuple[int, int], ...]
    errors: tuple[float, ...]
    orders: tuple[float, ...]

    @property
    def monotone(self) -> bool:
        return all(a > b for a, b in zip(self.errors, self.errors[1:]))


def light_kernel_convergence(
    medium: MediumParams,
    drive: DriveParams,
    grid: GridSpec,
    levels: int = 3,
) -> ConvergenceStudy:
    """Refinement study of the discretized light kernel against the analytic one.

    Runs the oracle on ``levels`` grids obtained by halving the given grid,
    coarsest first, and measures the relative L2 error of the kernel table.
    """
    factor = 2 ** (levels - 1)
    if grid.nz % factor or grid.ntau % factor:
        raise GridConfigError(f"grid sizes must be divisible by {factor} for {levels} levels")
    gamma = total_dephasing(medium, drive, drive_on=True)
    area = PulseArea.from_drive(drive)
    sizes = []
    errors = []
    for level in range(levels):
        shrink = 2 ** (levels - 1 - level)
        sub = GridSpec(nz=grid.nz // shrink, ntau=grid.ntau // shrink, tau_max=grid.tau_max)
        table, _ = simulate_grid(medium, drive, sub, SqueezingModel.flat(1.0))
        reference = light_kernel_reference(area, medium.length, gamma, table.tau)
        err = float(np.linalg.norm(table.light_kernel - reference) / np.linalg.norm(reference))
        sizes.append((sub.nz, sub.ntau))
        errors.append(err)
    orders = tuple(
        float(np.log2(errors[i] / errors[i + 1])) for i in range(levels - 1)
    )
    return ConvergenceStudy(sizes=tuple(sizes), errors=tuple(errors), orders=orders)
