"""Time-domain machinery: Bessel Green-function kernels, transient variance,
and an independent discretized propagation oracle.

Analytic route
--------------
For a drive with accumulated area a(tau) the collective spin responds to the
initial coherence through a J0 kernel, to the Langevin force through the same
J0 kernel integrated over the sample, and to the input light through the
collective J1 kernel A(t).  Squaring those kernels against delta-correlated
inputs gives the variance in nL units as one-dimensional time integrals; the
spatial integrals collapse through

    int_0^L J0^2(2 sqrt(u w)) dw = L [J0^2(2 sqrt(uL)) + J1^2(2 sqrt(uL))].

Lorentzian input adds the correlator's double integral over
e^{-Gq |t - t'|}.  For t' < t that is e^{-Gq (t - t')}, so the double
integral is 2 int_0^tau A(t) y(t) dt with the causal first-order filter
y(t) = int_0^t A(t') e^{-Gq (t - t')} dt', y' = -Gq y + A.

``transient_variance`` evaluates every integral in one vectorized pass of
composite Gauss-Legendre panels (``specfun.gauss_panels``, 16 nodes a
panel).  The panels split at the drive breakpoints, where the integrands
kink, and are cut so that none spans more than PANEL_DECAY e-folds of the
fastest exponential (2 Gamma + Gq) or PANEL_PHASE radians of the Bessel
phase 2 sqrt(uL), spaced uniformly in that phase.  The 16 nodes of a panel
[a, b] cut it into 17 gaps [a, t_1], [t_1, t_2], ..., [t_16, b], and one
composite pass of GAP_NODES-point Gauss rules over the gaps gives the
filter at every node and at b: its value at a, damped by e^{-Gq (t - a)},
plus the gaps' increments, each damped from its end, as one cumulative sum
(Gq (b - a) <= PANEL_DECAY keeps the factors below e^12).  The widest gap
is about a tenth of the panel, 1.2 e-folds and 1 rad of Bessel phase at
most, where 6 nodes are good to ~1e-14 relative.  From panel to panel the
filter carries over by one scalar recursion.  One evaluation of the
exchange kernels covers the panels, then the panels halved (the filter
restarts from y(0) = 0 where the halved pass begins), and the initial
coherence.  The halved values are returned and their change is the error
estimate, which must meet the budget the adaptive rule accepts
(``specfun.within_budget``: ``tol`` or the round-off floor), else
QuadratureConvergenceError (exit 3).  Cost: flat input evaluates the
kernels at 16 nodes a panel, lorentzian input 17 x 6 more for the gaps
(118 a panel), on the panels and on their halves; 1-25 panels cover the
parameter ranges the CLI and the benchmark use.  The nested adaptive
quadrature this replaces is kept in the tests as the reference.  For
constant drive and Gamma tau >> 1 these reproduce the closed-form and
spectral steady states.

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
coefficients labeled at the left grid node and converge at first order.  A
step that straddles a drive breakpoint takes its mean rate, which is all
white input needs; the correlated part of lorentzian input enters through
the step's mean drive amplitude, so ``_cell_correlator`` weights it by
mean(sqrt r) / sqrt(mean r), which keeps the order at 2 wherever the
breakpoints fall.

Every output is a contraction of the coefficients with the quadrature
weights w, and every step operator M_k = e^{-Gamma dt} exp(-x_k T) is a
function of the same cumulative-trapezoid matrix T.  So the operators
commute and a product of steps depends only on the summed area.  A step
inside one drive segment takes that segment's exact rate, so the steps form
runs of equal rate (one run for a constant drive).  Inside a run the field
weights of its own input cells form a Toeplitz table and its Langevin terms
a cumulative sum; a later node sees the run only through the row
w exp(-(area since the run's end) T), against the run's field columns and,
for the Langevin part, its Gramian, which the Toeplitz structure gives as
outer products of the symbols summed along diagonals.  Rows and columns
are O(nz) closed forms at any area (sums of the Laguerre symbol of
``expm``), all evaluated from one table per call; no matrix exponential
and no O(nz^3) product is formed.  Cost under one rate: O(ntau nz) for the
table and the rows, O(ntau^2) for the kernel tables; each further run adds
O(ntau nz^2) for its columns and Gramian, and the light variance of every
node against the input correlator is one BLAS product, O(ntau^3).  The
dense loop that steps the full coefficient matrices is kept in the tests as
the reference.

``light_kernel_convergence`` runs the oracle on a ladder of grids halved
from the given one and compares each light-kernel table with the continuum
kernel (``light_kernel_reference``).  The reference is evaluated once, on
the finest grid's nodes, and sliced for every coarser rung: halving scales
dt by a power of two exactly, so a coarser rung's nodes are every 2nd, 4th,
... fine node.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .mapping import NoiseReport, SqueezingModel
from .model import DriveParams, MediumParams, total_dephasing
from .specfun import (QuadratureConvergenceError, QuadratureResult, bessel_kernels, gauss_panels,
                      within_budget)
# the benchmark's span binding spinmap.dynamics.integrate_adaptive (bench/spans.py)
from .specfun import integrate_adaptive  # noqa: F401

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
            if not t > last:  # "not >" rejects NaN too
                raise ValueError("breakpoints must be strictly increasing and positive")
            last = t
        if not all(r >= 0 for r in (*self.rates, self.final_rate)):
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

    @functools.cached_property
    def _segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Start, rate and area at the start of every segment, the open
        last one included."""
        starts = np.array([0.0, *self.breakpoints])
        rates = np.array([*self.rates, self.final_rate])
        return starts, rates, np.concatenate(([0.0], np.cumsum(rates[:-1] * np.diff(starts))))

    def _locate(self, tau, side: str):
        t = np.asarray(tau, dtype=float)
        if not (t >= 0).all():  # "not >=" rejects NaN too
            raise ValueError(f"tau must be nonnegative, got {tau}")
        return t, self._segments[0][1:].searchsorted(t, side=side)

    def value(self, tau):
        """a(tau); a(0) = 0, nondecreasing.  A float gives a float, an array
        of times an array."""
        t, k = self._locate(tau, "left")  # the first segment ending at or after tau
        starts, rates, areas = self._segments
        a = areas[k] + rates[k] * (t - starts[k])
        return float(a) if a.ndim == 0 else a

    def rate(self, tau):
        """Instantaneous coupling rate a'(tau) (right-continuous); a float
        gives a float, an array of times an array."""
        _, k = self._locate(tau, "right")
        r = self._segments[1][k]
        return float(r) if r.ndim == 0 else r

    def step_rates(self, dt: float, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Mean coupling rate r over each step [k dt, (k+1) dt], k < n, and
        rho = mean(sqrt r) / sqrt(mean r), by which the step's mean drive
        amplitude differs from the square root of its mean rate.

        A step inside one segment gets that segment's rate exactly and rho = 1
        exactly, so a grid aligned to the profile sees one value per segment
        (a breakpoint within 1e-9 dt of a node counts as on it).  Only a step
        straddling a breakpoint gets its area increment over dt, and its rho
        from the increment of the area of sqrt(r) (1 where the step is dark).
        """
        lo = np.arange(n) * dt
        hi = np.arange(1, n + 1) * dt
        slack = 1e-9 * dt
        rates = self.rate((lo + hi) / 2.0)
        straddle = self._locate(hi - slack, "left")[1] > self._locate(lo + slack, "right")[1]
        rho = np.ones(n)
        if straddle.any():
            lo, hi = lo[straddle], hi[straddle]
            mean = rates[straddle] = (self.value(hi) - self.value(lo)) / dt
            roots = self._root_area
            rho[straddle] = np.divide((roots.value(hi) - roots.value(lo)) / dt, np.sqrt(mean),
                                      out=np.ones_like(mean), where=mean > 0)
        return rates, rho

    @functools.cached_property
    def _root_area(self) -> "PulseArea":
        """The area of sqrt(a'), the drive amplitude, on the same segments."""
        return PulseArea(self.breakpoints, tuple(map(math.sqrt, self.rates)),
                         math.sqrt(self.final_rate))

    def max_rate(self) -> float:
        return max((*self.rates, self.final_rate), default=self.final_rate)


PANEL_PHASE = 10.0   # most Bessel phase 2 sqrt(u L) a transient panel spans [rad]
PANEL_DECAY = 12.0   # most e-folds of the fastest exponential a transient panel spans
GAP_NODES = 6        # Gauss-Legendre nodes per gap between a panel's nodes (the filter)


def _panel_edges(area: PulseArea, length: float, rate: float, tau: float) -> np.ndarray:
    """Panel edges on [0, tau] for integrands smooth between breakpoints.

    The edges hold every drive breakpoint before tau, a uniform grid that
    spans at most PANEL_DECAY e-folds of the exponential rate ``rate`` per
    step, and the times where the Bessel phase 2 sqrt(u L),
    u = a(tau) - a(t), crosses a multiple of its step (at most PANEL_PHASE),
    so no panel spans more of either.
    """
    ends = np.array([0.0, *(t for t in area.breakpoints if t < tau), tau])
    a = area.value(ends)
    ul = (a[-1] - a) * length  # nonincreasing
    phase = 2.0 * math.sqrt(ul[0])
    n_phase = max(math.ceil(phase / PANEL_PHASE), 1)
    n_decay = max(math.ceil(tau * rate / PANEL_DECAY), 1)
    crossings = (np.arange(1, n_phase) * (phase / n_phase / 2.0)) ** 2
    return np.sort(np.concatenate([
        ends,
        np.arange(1, n_decay) * (tau / n_decay),
        np.interp(crossings, ul[::-1], ends[::-1]),
    ]))


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
    absorbed-light contribution, all in one composite Gauss-Legendre pass
    whose panels split at the drive breakpoints.  Lorentzian input adds the
    correlator's double integral through a causal filter at the same nodes.

    Raises QuadratureConvergenceError when halving the panels moves the
    Langevin or the light part by more than the budget: ``tol``, or the
    round-off floor where that is larger.
    """
    if not tau >= 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
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
    t, w = gauss_panels(lo, hi)
    # the edges hold every breakpoint, so inside a panel the rate a' is
    # constant and u L falls linearly from its value at the panel's start
    a, b = lo[:, None], hi[:, None]
    ul_start = ((a_tau - area.value(lo)) * length)[:, None]
    slope = area.rate((lo + hi) / 2.0)[:, None] * length
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
        tg, wg = gauss_panels(np.concatenate([a, t], axis=1), ends, GAP_NODES)
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
    # (the same where the integrand is nonnegative); the halved value is
    # kept and its change under halving is the error estimate
    parts = {}
    for name, value, magnitude in (("Langevin part", lang, lang),
                                   ("light part", light, light_abs)):
        whole, fine = np.add.reduceat(value, [0, n])
        result = QuadratureResult(value=float(fine), error_estimate=abs(float(fine - whole)),
                                  evaluations=evaluations)
        if not within_budget(result, float(np.add.reduceat(magnitude, [0, n])[1]), tol):
            raise QuadratureConvergenceError(
                f"panel quadrature of the {name} did not converge on [{edges[0]}, {edges[-1]}]: "
                f"it changed by {result.error_estimate:.3g} when {n} panels were halved", result)
        parts[name] = result.value
    return NoiseReport.from_parts(atom_init + parts["Langevin part"], parts["light part"],
                                  model.noise_floor)


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


def _symbols(t: np.ndarray, nz: int) -> np.ndarray:
    """Symbol coefficients e_k = e^{-t/2} L_k^{(-1)}(t), k < nz, of exp(-x T)
    at t = x dz, one column per entry of t.

    The generalized Laguerre polynomials follow their three-term recurrence
    (k + 1) e_{k+1} = (2k - t) e_k - (k - 1) e_{k-1}.  With e_k = mu_k f_k,
    mu_k = 1/k for odd k and 2/k for even k, it reads
    f_{k+1} = v_k f_k - f_{k-1}, v_k = 1 - t/(2k) (k odd), 4 - 2t/k (k even),
    for k >= 2: two vector operations per k, vectorized over t, with v_k
    held in the row the recurrence is about to fill.
    """
    e = np.empty((nz, t.size))
    e[0] = np.exp(-t / 2.0)
    np.multiply(-t, e[0], out=e[1])
    if nz > 2:
        np.multiply(1.0 - t / 2.0, e[1], out=e[2])
        k = np.arange(2.0, nz - 1.0)
        odd = k % 2 == 1
        np.multiply.outer(np.where(odd, -0.5, -2.0) / k, t, out=e[3:])
        e[3:] += np.where(odd, 1.0, 4.0)[:, None]
        f = list(e)
        for i in range(2, nz - 1):
            np.multiply(f[i + 1], f[i], out=f[i + 1])
            np.subtract(f[i + 1], f[i - 1], out=f[i + 1])
        k = np.arange(3.0, nz)
        e[3:] *= (np.where(k % 2 == 1, 1.0, 2.0) / k)[:, None]
    return e


def _running_sums(a: np.ndarray, sign: float = 1.0) -> np.ndarray:
    """a_i + sign a_{i-1} + sign^2 a_{i-2} + ... down the rows, in place.
    One vector operation per row (numpy's cumulative sum down the rows is
    several times slower on these tables)."""
    step = np.add if sign > 0 else np.subtract
    rows = list(a) if a.size else []
    for i in range(1, len(rows)):
        step(rows[i], rows[i - 1], out=rows[i])
    return a


def _first_column(e: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Nodes 1..nz of the first column of exp(-x T), one column per column
    of the symbol table e: the series (E(y) - 1) / (1 + y), c_i = e_i -
    c_{i-1} from c_0 = expm1(-t/2)."""
    c = e.copy()
    c[:1] = np.expm1(-t / 2.0)
    return _running_sums(c, -1.0)


def _toeplitz(column: np.ndarray, row: np.ndarray | None = None) -> np.ndarray:
    """The Toeplitz matrix with this first column and first row (row[0] is
    ignored; symmetric when row is omitted): a strided view of its diagonals,
    copied."""
    row = column if row is None else row
    # entry (i, j) is diagonals[len(row) - 1 + i - j]
    diagonals = np.concatenate((row[:0:-1], column))
    step = diagonals.strides[0]
    return np.lib.stride_tricks.as_strided(diagonals[len(row) - 1:], shape=(len(column), len(row)),
                                           strides=(step, -step)).copy()


def expm(x: float, nz: int, dz: float) -> np.ndarray:
    """exp(-x T) for the cumulative-trapezoid matrix T on nz + 1 nodes,
    (T f)_i = trapezoid integral of f from node 0 to node i.

    T / dz = [[0, 0], [1/2, A]] with A lower-triangular Toeplitz of symbol
    (1 + y) / (2 (1 - y)).  So the exponential has first row (1, 0, ..., 0),
    a lower-right block that is lower-triangular Toeplitz of symbol
    E(y) = e^{-t/2} exp(-t y / (1 - y)) = e^{-t/2} sum_k L_k^{(-1)}(t) y^k,
    t = x dz (``_symbols``), and the series (E(y) - 1) / (1 + y) below it in
    the first column.  A closed form, O(nz^2) to fill where a general matrix
    exponential is O(nz^3), and closer to the exact entries than scipy's
    Pade approximant.  The propagator never builds it: it needs only the
    contractions ``_rows`` and ``_cols`` and, for Gramians, the symbol and
    the first column.
    """
    t = np.array([x * dz])
    symbol = _symbols(t, nz)
    out = np.zeros((nz + 1, nz + 1))
    out[0, 0] = 1.0
    out[1:, 0] = _first_column(symbol, t)[:, 0]
    out[1:, 1:] = _toeplitz(symbol[:, 0], np.zeros(nz))
    return out


def _rows(h: np.ndarray, dz: float) -> np.ndarray:
    """w exp(-x T) for the trapezoid weights w, one row per column of the
    symbol's running sums h (h_{-1} = 0): node nz - i holds
    dz (h_i - e_i / 2) = dz/2 (h_i + h_{i-1}), and node 0, through the first
    column, telescopes to dz/2 h_{nz-1}.  O(nz) per area where a row-matrix
    product is O(nz^2)."""
    out = np.empty((len(h) + 1, h.shape[1]))
    out[0] = h[-1]
    out[-1] = h[0]
    np.add(h[1:], h[:-1], out=out[-2:0:-1])
    out *= dz / 2.0
    return out.T


def _cols(e: np.ndarray, h: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(-x T) 1, one column per column of the symbol table e (running
    sums h): node 0 holds 1 and node i + 1 the first column plus the
    Toeplitz row sum, c_i + h_i.  O(nz) per area."""
    out = np.empty((len(e) + 1, e.shape[1]))
    out[0] = 1.0
    np.add(_first_column(e, t), h, out=out[1:])
    return out


def _diagonal_cumsum(p: np.ndarray) -> np.ndarray:
    """q[i, l] = sum_{m <= min(i, l)} p[i - m, l - m] for symmetric p: each
    diagonal summed from the top-left corner.  Laid out with row stride
    n + 1, the diagonals of p become columns."""
    n = len(p)
    skew = np.zeros(n * (n + 1))
    skew[:n * n] = p.ravel()
    skew = np.cumsum(skew.reshape(n, n + 1), axis=0).ravel()[:n * n].reshape(n, n)
    upper = np.triu(skew)
    return upper + np.triu(upper, 1).T


def _mean_arrival(rate: float, dt: float) -> float:
    """Mean of sigma in [0, dt] under weight e^{-rate sigma}."""
    x = rate * dt
    if x < 1e-6:
        return dt / 2.0 * (1.0 - x / 6.0)
    return (1.0 - (1.0 + x) * math.exp(-x)) / (rate * (1.0 - math.exp(-x)))


def _cell_correlator(model: SqueezingModel, dt: float, rho: np.ndarray) -> np.ndarray:
    """Covariance matrix of cell-averaged lorentzian input quadratures as the
    drive weights them, one cell per entry of rho (``PulseArea.step_rates``).

    The white part enters through the cell's mean rate, which the field
    weights carry; the correlated part through its mean amplitude, so its
    entries at cells k, k' take the factor rho_k rho_k'.  Toeplitz where every
    rho is 1, as on a grid aligned to the drive profile.
    """
    gq, s, ntau = model.gamma_q, model.s, len(rho)
    x = gq * dt
    # exact cell-cell integrals of (Gq/2) e^{-Gq |t - t'|} / dt^2
    diag = (gq / 2.0) * 2.0 * (x - 1.0 + math.exp(-x)) / (gq * gq * dt * dt)
    m = np.arange(1, ntau)
    off = (gq / 2.0) * np.exp(-x * (m - 1)) * (1.0 - math.exp(-x)) ** 2 / (gq * gq * dt * dt)
    first_row = np.empty(ntau)
    first_row[0] = 1.0 / dt - s * diag
    if ntau > 1:
        first_row[1:] = -s * off
    corr = _toeplitz(first_row)
    # rho C rho, with the white diagonal 1/dt put back on the straddling cells
    straddle = np.flatnonzero(rho != 1.0)
    if straddle.size:  # none on an aligned grid, where the empty updates cost ~10 us
        corr[straddle] *= rho[straddle, None]
        corr[:, straddle] *= rho[straddle]
        corr[straddle, straddle] += (1.0 - rho[straddle] ** 2) / dt
    return corr


class _Discretization:
    """Nodes, quadrature weights, per-step rates grouped into runs of equal
    rate, the constants of one step, and the flows they make.

    Step k applies M_k = d exp(-x_k T), x_k = rate_k dt, injects the input
    cell k through v_k = phi sqrt(rate_k) exp(-rate_k s_field T) 1, and adds
    lang_amp H_k diag(1/w) H_k^T, H_k = exp(-rate_k s_lang T), to the
    Langevin covariance.  Every operator is a function of T, so a product of
    steps is d^n exp(-(summed area) T).
    """

    def __init__(self, medium: MediumParams, drive: DriveParams, grid: GridSpec):
        self.length = length = medium.length
        gamma = total_dephasing(medium, drive)
        area = PulseArea.from_drive(drive)

        self.nz, self.ntau = nz, ntau = grid.nz, grid.ntau
        self.dz = dz = length / nz
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
        self.rates, self.rho = area.step_rates(dt, ntau)
        rates = self.rates
        edges = [0, *(np.flatnonzero(np.diff(rates)) + 1).tolist(), ntau]
        self.runs = [(a, b, float(rates[a])) for a, b in zip(edges, edges[1:])]
        # t = x dz of the area summed up to each node
        self.node_t = np.concatenate(([0.0], np.cumsum(rates))) * (dt * dz)

        self.d = d = math.exp(-gamma * dt)
        self.phi = (1.0 - d) / gamma if gamma > 0 else dt
        self.s_field = _mean_arrival(gamma, dt)
        self.s_lang = _mean_arrival(2.0 * gamma, dt)
        self.lang_amp = 1.0 - d * d  # vanishes with the dephasing, as the noise must
        self.coeff_bound = 4.0 * max(1.0, self.phi * math.sqrt(g_max))

    @property
    def run_ends(self) -> list[int]:
        """Nodes where one run ends and the next begins."""
        return [stop for _, stop, _ in self.runs[:-1]]

    def flows(self, origins, langevin: bool):
        """Every contraction of exp(-x T) the tables need, from one symbol
        table.  Run a covers steps start..stop-1 at rate r; q counts steps
        back from its end, and a later node sees it only through the row
        from node stop.

        rows[o][K - o] = d^{K-o} w exp(-x T), x the area from node o to K.
        field[a] (None where r = 0, which injects nothing) = (s, cols):
          s[q] = (phi / dt) d^q w exp(-y_q T) 1, y_q = r (q dt + s_field),
          the light kernel of a cell q steps back inside the run, and
          cols[:, q] the vectors (phi / dt) d^q exp(-y_q T) 1 behind it,
          only where a later node needs them.
        lang[a] = (g, e, c), with ``langevin``: g[q] = d^{2q}
          |w exp(-y'_q T)|^2_{1/w}, y'_q = r (q dt + s_lang), and, where a
          later node needs them, the symbols and first columns of
          exp(-y'_q T), each scaled by d^q.
        """
        dt, dz, d, nz, w = self.dt, self.dz, self.d, self.nz, self.w
        steps = [np.arange(stop - start) * dt for start, stop, _ in self.runs]
        parts = [self.node_t[o:] - self.node_t[o] for o in origins]
        if langevin:
            parts += [rate * (q + self.s_lang) * dz for q, (_, _, rate) in zip(steps, self.runs)]
        parts += [rate * (q + self.s_field) * dz if rate > 0 else q[:0]
                  for q, (_, _, rate) in zip(steps, self.runs)]
        t = np.concatenate(parts)
        e = _symbols(t, nz)
        edges = np.cumsum([0, *map(len, parts)])
        blocks = [slice(a, b) for a, b in itertools.pairwise(edges)]
        n_rows = len(origins) + (len(self.runs) if langevin else 0)

        def powers(b):  # d^q for the q-th area of part b
            return d ** np.arange(b.stop - b.start)

        def part(table, b, group):  # part b's columns in a table of a group of parts
            return table[:, b.start - group.start:b.stop - group.start]

        # running sums serve the rows and the full columns; full and first
        # columns serve only the runs a later node follows: all but the last,
        # whose field and Langevin parts come last in their groups
        h = _running_sums(e[:, :edges[-2]].copy())
        r_all = _rows(h[:, :edges[n_rows]], dz)
        r_all *= np.concatenate([np.empty(0), *map(powers, blocks[:n_rows])])[:, None]
        followed = slice(edges[n_rows], edges[-2])
        cols_all = _cols(e[:, followed], h[:, followed], t[followed])
        lang_followed = slice(edges[len(origins)], edges[n_rows - 1] if langevin else 0)
        c_all = _first_column(e[:, lang_followed], t[lang_followed])

        rows = {o: r_all[b] for o, b in zip(origins, blocks)}
        field = []
        for (_, stop, rate), b in zip(self.runs, blocks[n_rows:]):
            scale = (self.phi / dt) * powers(b)
            field.append(None if rate == 0 else (
                (dz * np.arange(nz, 0, -1.0)) @ e[:, b] * scale,  # w exp(-y T) 1
                part(cols_all, b, followed) * scale if stop < self.ntau else None))
        lang = []
        for (_, stop, _), b in zip(self.runs, blocks[len(origins):n_rows]):
            scale = powers(b)
            g = r_all[b] ** 2 @ (1.0 / w)
            if stop == self.ntau:
                lang.append((g, None, None))
                continue
            c = np.vstack([np.ones(len(scale)), part(c_all, b, lang_followed)])
            lang.append((g, e[:, b] * scale, c * scale))
        return rows, field, lang

    def table(self, init_weights, lang_part, light_part, light_kernel,
              field_pass) -> KernelTable:
        """Assemble the tables from w c_init (init_weights), w sig w
        (lang_part) and the light variance of every step."""
        length = self.length
        init_kernel = init_weights / self.w
        atom = (np.einsum("ij,ij->i", init_weights, init_kernel) + lang_part) / length
        light = light_part / length
        return KernelTable(
            z=self.z,
            tau=self.tau,
            init_kernel=init_kernel,
            light_kernel=light_kernel,
            field_pass=field_pass,
            variance_trace=atom + light,
            atom_part_trace=atom,
            light_part_trace=light,
        )


def _light_kernel(disc: _Discretization, rows, field) -> tuple[np.ndarray, np.ndarray]:
    """The light-kernel table and the field weights w c_field of every node.

    The cells of a run see the run's own nodes through a Toeplitz table,
    and every later node through the row from the run's end times the
    run's columns.  Raises GridGrowthError at the first node where a row
    (per coherence sample, r / w) or a field weight (per unit length)
    leaves the coefficient bound; "not <=" counts a NaN left by overflow as
    growth.
    """
    ntau = disc.ntau
    kernel = np.zeros((ntau + 1, ntau))
    for (start, stop, _), run in zip(disc.runs, field):
        if run is None:
            continue
        s, cols = run
        kernel[start + 1:stop + 1, start:stop] = _toeplitz(s, np.zeros(stop - start))
        if cols is not None:
            kernel[stop + 1:, start:stop] = rows[stop][1:] @ cols[:, ::-1]
    field_weights = kernel * (disc.dt * np.sqrt(disc.rates))

    bound = disc.coeff_bound
    bad = ~np.all(np.abs(field_weights) <= bound * disc.length, axis=1)
    for o, r in rows.items():
        bad[o:] |= ~np.all(np.abs(r) <= bound * disc.w, axis=1)
    if bad.any():
        raise GridGrowthError(f"influence coefficients diverged at step {np.argmax(bad)}")
    return kernel, field_weights


def _langevin_part(disc: _Discretization, rows, lang) -> np.ndarray:
    """w sig w at every node.  A run adds the cumulative sum of its own
    terms g at its nodes, and at every later node the quadratic form of the
    row from its end with the run's Gramian sum_q H_q diag(1/w) H_q^T.
    Node 0 of each H_q gives the outer products of its first column; its
    Toeplitz block gives those of its symbol summed along diagonals.
    O(nz^2) per run and later node."""
    w, dz = disc.w, disc.dz
    part = np.zeros(disc.ntau + 1)
    for (start, stop, _), (g, e, c) in zip(disc.runs, lang):
        part[start + 1:stop + 1] += np.cumsum(g)
        if c is not None:
            rho = rows[stop][1:]
            p = e @ e.T
            gram = _diagonal_cumsum(p) / dz
            gram[-1, -1] += p[0, 0] / dz  # the last node's half weight
            part[stop + 1:] += (np.sum((rho @ c) ** 2, axis=1) / w[0]
                                + np.einsum("ij,ij->i", rho[:, 1:] @ gram, rho[:, 1:]))
    return disc.lang_amp * part


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
    disc = _Discretization(medium, drive, grid)
    rows, field, lang = disc.flows([0, *disc.run_ends], langevin=True)
    light_kernel, field_weights = _light_kernel(disc, rows, field)
    if model.kind == "flat":
        weighted = (model.x0_sq / disc.dt) * field_weights
    else:
        weighted = field_weights @ _cell_correlator(model, disc.dt, disc.rho)
    light_part = np.einsum("ij,ij->i", weighted, field_weights)
    field_pass = -np.sqrt(disc.rates)[:, None] * field_weights[:-1]
    field_pass.flat[::disc.ntau + 1] += 1.0
    table = disc.table(rows[0], _langevin_part(disc, rows, lang), light_part,
                       light_kernel, field_pass)
    return table, NoiseReport.from_parts(float(table.atom_part_trace[-1]),
                                         float(table.light_part_trace[-1]), model.noise_floor)


def light_kernel_reference(area: PulseArea, length: float, gamma: float,
                           tau_nodes) -> np.ndarray:
    """Continuum collective light kernel sampled at the grid nodes.

    Row k holds e^{-Gamma (tau_k - tau_kp)} sqrt(L/u) J1(2 sqrt(uL)) for
    every earlier node tau_kp; the layout matches KernelTable.light_kernel.
    """
    t = np.asarray(tau_nodes, dtype=float)
    avals = area.value(t)
    ntau = len(t) - 1
    lower = np.tri(ntau + 1, ntau, -1, dtype=bool)  # kp < k
    u = (avals[:, None] - avals[:-1])[lower]
    kernel = np.zeros((ntau + 1, ntau))
    kernel[lower] = (np.exp(-gamma * (t[:, None] - t[:-1])[lower]) * length
                     * bessel_kernels(u * length, (1,))[0])
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
    The continuum kernel is evaluated once, on the finest grid's nodes, and
    a grid coarser by s takes every s-th row and column of it.
    """
    factor = 2 ** (levels - 1)
    if grid.nz % factor or grid.ntau % factor:
        raise GridConfigError(f"grid sizes must be divisible by {factor} for {levels} levels")
    fine = light_kernel_reference(PulseArea.from_drive(drive), medium.length,
                                  total_dephasing(medium, drive),
                                  np.arange(grid.ntau + 1) * (grid.tau_max / grid.ntau))
    sizes = []
    errors = []
    for level in range(levels):
        shrink = 2 ** (levels - 1 - level)
        sub = GridSpec(nz=grid.nz // shrink, ntau=grid.ntau // shrink, tau_max=grid.tau_max)
        disc = _Discretization(medium, drive, sub)
        rows, field, _ = disc.flows(disc.run_ends, langevin=False)
        kernel, _ = _light_kernel(disc, rows, field)
        reference = fine[::shrink, ::shrink]
        err = float(np.linalg.norm(kernel - reference) / np.linalg.norm(reference))
        sizes.append((sub.nz, sub.ntau))
        errors.append(err)
    orders = tuple(
        float(np.log2(errors[i] / errors[i + 1])) for i in range(levels - 1)
    )
    return ConvergenceStudy(sizes=tuple(sizes), errors=tuple(errors), orders=orders)
