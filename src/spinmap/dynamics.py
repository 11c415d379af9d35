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
coherence.  The halved values are returned, and the change of each part
(Langevin, light) is its error estimate.  Both parts form one
``QuadratureResult``, judged as the adaptive rule judges its own
(``specfun.within_budget``: each part within ``tol`` or its round-off
floor), else QuadratureConvergenceError (exit 3).  Cost: flat input
evaluates the kernels at 16 nodes a panel, lorentzian input 17 x 6 more for
the gaps (118 a panel), on the panels and on their halves; 1-25 panels
cover the parameter ranges the CLI and the benchmark use.  On the
benchmark's points a flat call evaluates 85 nodes on average, a
three-segment drive 125 and a lorentzian call at Gamma tau = 10 about
4300, so a flat call is almost all fixed cost, about a hundred numpy
calls on small arrays: ~90 us on one core of a 2-vCPU Xeon for one panel
(48 nodes), against ~300 us for a lorentzian call of 12 panels.  To keep
that cost down the panel geometry takes one bisection and one search:
``PulseArea.pieces`` gives the cuts and a at each, the panel starts are
searched among the cuts, and ``PulseArea.on_segments`` gives a and a' of
every panel from its piece.  The gap nodes run along the first axis, so
no operation runs six-element inner loops, and the filter's carry runs on
Python floats.  A lorentzian panel holds ~16 KB of temporaries, so a call
that needs more than TRANSIENT_PANEL_LIMIT panels raises OverflowError
(exit 3) before building any.  The tests keep two references: the nested
adaptive quadrature this pass replaced, and the pass as it stood before
its fixed cost was cut, which this one matches float for float.  For
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
step (``_mean_arrival``).  Smooth variance functionals converge at second
order under joint refinement (declared order 2); kernel tables are
cell-averaged influence coefficients labeled at the left grid node and
converge at first order.  A step that straddles a drive breakpoint takes its mean rate, which is all
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
``expm``); no matrix exponential and no O(nz^3) product is formed.
``_Discretization.propagate`` is one pass over one symbol table, and the
table is the only table-sized array it allocates besides what it hands on:
the kernel table, the rows from every origin, and the columns and symbols
of the runs a later node follows (none under a constant drive).  The
table holds the areas of the rows, then the Langevin areas, the last
run's first, then the field areas, so the Langevin and field areas of the
followed runs sit side by side and one first-column pass covers both.  It
takes the field sums, those first columns and the followed runs' raw
Langevin symbols from the table, overwrites the rest with its running
sums in place, builds the rows from them and contracts each Langevin term
from them directly, and releases the table before it builds the kernel
table (building while the table was alive ran up to 1.6x slower at
n = 200 on one core of a 2-vCPU Xeon).  The growth check reads the
largest and smallest entry of each row, and only ``simulate_grid``, which
needs them for the light variance, forms the field weights.  At the sizes
the CLI and the benchmark run a call is bound by its fixed cost, the
number of numpy calls more than their arithmetic.  The recurrences down
the rows make them: 2 nz for the Laguerre symbols and nz for the running
sums, and where a later node follows a run, nz for the first columns and
nz for each followed run's Gramian; everything else makes about a
hundred.  On that core a call at n = 100 takes ~0.55 ms under a constant
drive and ~1.3 ms under three segments.  Cost under one rate: O(ntau nz)
for the table and the rows, O(ntau^2) for the kernel tables; each further
run adds O(ntau nz^2) for its columns and Gramian, and the light variance
of every node against the input correlator is one BLAS product,
O(ntau^3).  The tests keep two references: the dense loop that steps the
full coefficient matrices, and the pass as it stood before its fixed cost
was cut, which this one matches float for float.

``light_kernel_convergence`` makes the same pass, Langevin part off, on a
ladder of grids halved from the given one and compares each light-kernel
table with the continuum kernel (``light_kernel_reference``).  Every rung
runs first, so the reference is never held beside a rung's symbol table;
it is evaluated after them, once, from the finest rung's discretization
(area, dephasing, nodes), and sliced for every coarser rung: halving
scales dt by a power of two exactly, so a coarser rung's nodes are every
2nd, 4th, ... fine node, and every lag (k - kp) dt is the same float on
both rungs.  On the uniform nodes the decay e^{-Gamma (k - kp) dt} depends
on the lag alone, and so does the area r (k - kp) dt between two nodes of
one drive segment.  The reference therefore goes one segment's columns at
a time, as ``propagate`` builds the kernel one run at a time: a
lower-triangular Toeplitz block
from one Bessel evaluation per lag for the rows up to the segment's end,
and a dense block, one evaluation per node pair at u = a(tau_k) -
a(tau_kp), for the rows past it; every entry takes its decay from one lag
table.  A constant drive costs ntau evaluations where every pair cost
ntau (ntau + 1) / 2; under a profile the dense blocks cost the pairs that
straddle a breakpoint.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .mapping import NoiseReport, SqueezingModel
from .model import DriveParams, MediumParams, total_dephasing
from .specfun import (QuadratureConvergenceError, QuadratureResult, bessel_kernels, gauss_panels,
                      gauss_rule, within_budget)
# the benchmark's span binding spinmap.dynamics.integrate_adaptive (bench/spans.py)
from .specfun import integrate_adaptive  # noqa: F401

STABILITY_EXCHANGE_BOUND = 0.1   # g * dt * dz
STABILITY_DECAY_BOUND = 0.5      # Gamma * dt
VARIANCE_CONVERGENCE_ORDER = 2   # declared order for smooth variance functionals
KERNEL_CONVERGENCE_ORDER = 1     # declared order for node-labeled kernel tables


class GridConfigError(ValueError):
    """Grid violates the declared stability/accuracy bounds."""


class GridGrowthError(RuntimeError, ArithmeticError):
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
            if not last < t < math.inf:  # rejects NaN too
                raise ValueError("breakpoints must be finite, strictly increasing and positive")
            last = t
        if not all(0.0 <= r < math.inf for r in (*self.rates, self.final_rate)):
            raise ValueError(f"rates must be finite and nonnegative, got "
                             f"{(*self.rates, self.final_rate)}")

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
    def _segments(self) -> np.ndarray:
        """Start, rate and area at the start of every segment, the open last
        one included, as the rows of one array.  The areas are summed in
        plain floats, left to right, so a fresh drive costs one array."""
        starts = (0.0, *self.breakpoints)
        rates = (*self.rates, self.final_rate)
        areas = [0.0]
        for rate, start, end in zip(rates, starts, self.breakpoints):
            areas.append(areas[-1] + rate * (end - start))
        return np.array((starts, rates, areas))

    def _locate(self, tau, side: str):
        t = np.asarray(tau, dtype=float)
        if not (t >= 0).all():  # "not >=" rejects NaN too
            raise ValueError(f"tau must be nonnegative, got {tau}")
        return t, self._segments[0, 1:].searchsorted(t, side=side)

    def on_segments(self, t, k) -> tuple[np.ndarray, np.ndarray]:
        """a(t) and the rate a'(t) for times t that lie in segments k, ends
        included (0 for the first segment, len(breakpoints) for the open
        last one): the one formula of the area, with no lookup.  At a
        breakpoint either segment gives the same float, since the next
        segment's area at its start is this sum at its end."""
        start, rate, area = self._segments.take(k, axis=1)
        return area + rate * (t - start), rate

    def value(self, tau):
        """a(tau); a(0) = 0, nondecreasing.  A float gives a float, an array
        of times an array."""
        a = self.on_segments(*self._locate(tau, "right"))[0]
        return float(a) if a.ndim == 0 else a

    def rate(self, tau):
        """Instantaneous coupling rate a'(tau) (right-continuous); a float
        gives a float, an array of times an array."""
        _, k = self._locate(tau, "right")
        r = self._segments[1, k]
        return float(r) if r.ndim == 0 else r

    def pieces(self, tau: float) -> tuple[np.ndarray, np.ndarray]:
        """The cuts 0, the breakpoints before tau, and tau, and a(t) at each:
        the ends of the pieces of [0, tau] that lie in one segment each,
        piece i in segment i.  Only tau is looked up, by bisection; a cut
        before it starts a segment, whose area there is in the table."""
        m = bisect.bisect_left(self.breakpoints, tau)
        cuts = np.array((0.0, *self.breakpoints[:m], tau))
        a = np.empty(m + 2)
        a[:-1] = self._segments[2, :m + 1]
        a[-1] = self.on_segments(tau, m)[0]
        return cuts, a

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
TRANSIENT_PANEL_LIMIT = 10_000  # most panels on [0, tau]; a lorentzian call at the limit
                                # holds ~160 MB of temporaries (~16 KB a panel)


def _panel_edges(cuts: np.ndarray, ul: np.ndarray, rate: float) -> np.ndarray:
    """Panel edges on [0, tau] for integrands smooth between the cuts
    0, the drive breakpoints before tau, and tau, given u L at each cut,
    u = a(tau) - a(t) (nonincreasing).

    The edges hold every cut, a uniform grid that spans at most PANEL_DECAY
    e-folds of the exponential rate ``rate`` per step, and the times where
    the Bessel phase 2 sqrt(u L) crosses a multiple of its step (at most
    PANEL_PHASE), so no panel spans more of either.  Raises OverflowError,
    before any edge is placed, where that takes more than
    TRANSIENT_PANEL_LIMIT panels.
    """
    tau = cuts[-1]
    phase = 2.0 * math.sqrt(ul[0])
    n_phase = max(math.ceil(phase / PANEL_PHASE), 1)
    n_decay = max(math.ceil(tau * rate / PANEL_DECAY), 1)
    panels = len(cuts) + n_phase + n_decay - 3
    if panels > TRANSIENT_PANEL_LIMIT:
        raise OverflowError(
            f"the transient pass on [0, {tau:.6g}] needs {panels:.6g} panels, more than "
            f"TRANSIENT_PANEL_LIMIT = {TRANSIENT_PANEL_LIMIT}: (2 Gamma + Gq) tau = "
            f"{tau * rate:.6g} e-folds and {phase:.6g} rad of Bessel phase")
    crossings = (np.arange(1.0, n_phase) * (phase / n_phase / 2.0)) ** 2
    return np.sort(np.concatenate([
        cuts,
        np.arange(1.0, n_decay) * (tau / n_decay),
        np.interp(crossings, ul[::-1], cuts[::-1]),
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

    ``model.gamma_q`` is a rate in the time unit of ``area``, ``gamma``
    and ``tau``: at Gamma = 1, as the CLI runs, it is b = Gamma_q / Gamma.

    Raises QuadratureConvergenceError when halving the panels moves the
    Langevin or the light part by more than the budget: ``tol``, or the
    round-off floor where that is larger.
    """
    for name, value in (("length", length), ("gamma", gamma), ("tau", tau)):
        if not 0.0 <= value < math.inf:  # rejects NaN too
            raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    cuts, a_cuts = area.pieces(tau)
    a_tau = float(a_cuts[-1])
    # the initial coherence decays through J0^2 + J1^2 at 2 sqrt(a(tau) L),
    # with J0 and sqrt(1/y) J1 at y = a(tau) L the exchange kernels
    y_init = a_tau * length
    gq = model.gamma_q if model.kind == "lorentzian" else 0.0

    # the panels whole (n of them), then halved, each pass in time order
    edges = _panel_edges(cuts, (a_tau - a_cuts) * length, 2.0 * gamma + gq)
    n = len(edges) - 1
    halved = np.empty(2 * n + 1)
    halved[::2] = edges
    halved[1::2] = (edges[1:] + edges[:-1]) / 2.0
    lo = np.concatenate([edges[:-1], halved[:-1]])
    hi = np.concatenate([edges[1:], halved[1:]])
    t, w = gauss_panels(lo, hi)
    # the edges hold every cut, so each panel lies in the piece, and so the
    # drive segment, its start falls in: inside it the rate a' is constant
    # and u L falls linearly from its value at the start
    a_lo, rate = area.on_segments(lo, cuts[1:-1].searchsorted(lo, "right"))
    a, b = lo[:, None], hi[:, None]
    ul_start = ((a_tau - a_lo) * length)[:, None]
    slope = rate[:, None] * length
    weight = np.sqrt(slope)  # the drive weight sqrt(a' L) of the light kernel
    # J0 and j = sqrt(1/(u L)) J1 at 2 sqrt(u L) for every node and, last,
    # for the initial coherence: one evaluation
    y = np.empty(t.size + 1)
    ul = y[:-1].reshape(t.shape)
    np.subtract(ul_start, slope * (t - a), out=ul)
    y[-1] = y_init
    j0, j = bessel_kernels(y)
    atom_init = math.exp(-2.0 * gamma * tau) * float(j0[-1] ** 2 + y_init * j[-1] ** 2)
    j0, j = j0[:-1].reshape(t.shape), j[:-1].reshape(t.shape)
    damp = np.exp(-gamma * (tau - t))
    # the light kernel on the white input, sqrt(a'(t) L) j, decayed
    amp = weight * j * damp
    # per panel: the Langevin part, the light part and the integral of its
    # |integrand|; the Langevin kernel J0^2 + J1^2 at 2 sqrt(u L) and the
    # white light kernel are nonnegative
    parts = np.empty((3, len(lo)))
    lang, light, light_abs = parts
    (w * damp * damp * (j0 * j0 + ul * j * j)).sum(axis=1, out=lang)
    lang *= 2.0 * gamma
    white = (w * amp * amp).sum(axis=1)
    if model.kind == "flat":
        np.multiply(white, model.x0_sq, out=light)
        light_abs[:] = light
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
        # next panel as one scalar.  The gap nodes run along the first axis,
        # so every operation below runs over whole [panel, gap] planes.
        ends = np.concatenate([t, b], axis=1)
        starts = np.concatenate([a, t], axis=1)
        width = ends - starts
        x, wx = gauss_rule(GAP_NODES)
        tg = starts + width * x[:, None, None]
        wg = width * wx[:, None, None]
        ulg = ul_start - slope * (tg - a)
        inc = (wg * weight * bessel_kernels(ulg, (1,))[0] * np.exp(
            -gamma * (tau - tg) - gq * (ends - tg))).sum(axis=0)
        rise = gq * (ends - a)
        fade = np.exp(-rise)
        sums = np.cumsum(np.exp(rise) * inc, axis=1)
        # the carry from panel to panel, in floats; y(0) = 0 where the
        # halved pass starts again
        y_end = [0.0] * len(lo)
        for p, (f, s) in enumerate(zip(fade[:-1, -1].tolist(), sums[:-1, -1].tolist()), 1):
            if p != n:
                y_end[p] = f * (y_end[p - 1] + s)
        corr = 2.0 * w * amp * fade[:, :-1] * (np.array(y_end)[:, None] + sums[:, :-1])
        np.subtract(white, model.s * (gq / 2.0) * corr.sum(axis=1), out=light)
        np.add(white, model.s * (gq / 2.0) * np.abs(corr).sum(axis=1), out=light_abs)
        evaluations = t.size + tg.size

    # each part whole and halved, and the integral of its |integrand| halved
    # (the same where the integrand is nonnegative); the halved values are
    # kept and their change under halving is each part's error estimate
    (whole_lang, lang), (whole_light, light), (_, light_abs) = (
        np.add.reduceat(parts, [0, n], axis=1).tolist())
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


@dataclass(frozen=True)
class GridSpec:
    """Discretization of (z, tau) for the grid oracle.

    nz cells in z (nz + 1 nodes), ntau steps in retarded time up to tau_max.
    """

    nz: int
    ntau: int
    tau_max: float

    def __post_init__(self):
        for name in ("nz", "ntau"):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
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
    """

    z: np.ndarray
    tau: np.ndarray
    init_kernel: np.ndarray
    light_kernel: np.ndarray
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
        for prev, cur, nxt in zip(f[1:], f[2:], f[3:]):
            np.multiply(nxt, cur, nxt)
            np.subtract(nxt, prev, nxt)
        k = np.arange(3.0, nz)
        e[3:] *= (np.where(k % 2 == 1, 1.0, 2.0) / k)[:, None]
    return e


def _running_sums(a: np.ndarray, sign: float = 1.0) -> np.ndarray:
    """a_i + sign a_{i-1} + sign^2 a_{i-2} + ... down the rows, in place.
    One vector operation per row (numpy's cumulative sum down the rows is
    several times slower on these tables)."""
    step = np.add if sign > 0 else np.subtract
    rows = list(a) if a.size else []
    for prev, row in zip(rows, rows[1:]):
        step(row, prev, row)
    return a


def _first_column(e: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The first column of exp(-x T), one column per column of the symbol
    table e: 1 at node 0, then at nodes 1..nz the series (E(y) - 1) / (1 + y),
    c_i = e_i - c_{i-1} from c_0 = expm1(-t/2)."""
    out = np.empty((len(e) + 1, e.shape[1]))
    out[0] = 1.0
    out[2:] = e[1:]
    out[1] = np.expm1(-t / 2.0)
    _running_sums(out[1:], -1.0)
    return out


def _toeplitz(column: np.ndarray, row: np.ndarray | None = None) -> np.ndarray:
    """The Toeplitz matrix with this first column and first row (row[0] is
    ignored; symmetric when row is omitted): a read-only strided view of its
    diagonals, for the caller to copy or assign from.  The ndarray
    constructor builds the view: a call takes ~2 us on one core of a 2-vCPU
    Xeon, ~5.5 us through ``as_strided``."""
    row = column if row is None else row
    # entry (i, j) is diagonals[len(row) - 1 + i - j]
    diagonals = np.concatenate((row[:0:-1], column))
    step = diagonals.strides[0]
    view = np.ndarray((len(column), len(row)), diagonals.dtype, diagonals, (len(row) - 1) * step,
                      (step, -step))
    view.flags.writeable = False
    return view


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
    row contraction ``_rows``, the columns exp(-x T) 1 (first column plus
    running sums) and, for Gramians, the symbol and the first column.
    """
    t = np.array([x * dz])
    symbol = _symbols(t, nz)
    out = np.zeros((nz + 1, nz + 1))
    out[:, 0] = _first_column(symbol, t)[:, 0]
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


def _row_norms(h: np.ndarray, dz: float) -> np.ndarray:
    """|w exp(-x T)|^2_{1/w}, the squares of ``_rows`` over the weights w,
    one per column of the running sums h, from h itself: dz/4 (h_0^2 +
    h_{nz-1}^2) + dz/2 (sum_i h_i^2 + sum_{i>=1} h_i h_{i-1}).  Two
    column-wise dot products, no row table."""
    ends = h[0] * h[0] + h[-1] * h[-1]
    inner = np.einsum("ij,ij->j", h, h) + np.einsum("ij,ij->j", h[1:], h[:-1])
    return (dz / 4.0) * ends + (dz / 2.0) * inner


def _outside(high: np.ndarray, low: np.ndarray, bound: float) -> np.ndarray:
    """Where a row whose largest entry is high and smallest low leaves
    [-bound, bound]; "not <=" counts a NaN as outside."""
    return ~((high <= bound) & (-low <= bound))


def _diagonal_cumsum(p: np.ndarray) -> np.ndarray:
    """q[i, l] = sum_{m <= min(i, l)} p[i - m, l - m]: each diagonal summed
    from the top-left corner, in place, by q[i, l] = p[i, l] + q[i-1, l-1].
    One vector operation per row, as in ``_running_sums``."""
    for prev, row in zip(p[:-1, :-1], p[1:, 1:]):
        np.add(row, prev, row)
    return p


def _mean_arrival(rate: float, dt: float) -> float:
    """Mean of sigma in [0, dt] under weight e^{-rate sigma}: dt (1/x -
    1/expm1(x)), x = rate dt.  Below x = 1/2, where that cancels, the series
    1/2 - sum_k B_2k x^(2k-1) / (2k)! to x^15 (~1e-19 relative at 1/2)."""
    x = rate * dt
    if x >= 0.5:
        return dt * (1.0 / x - 1.0 / math.expm1(x))
    series = 0.0
    for b in (-3617 / 10670622842880000, 1 / 74724249600, -691 / 1307674368000,
              1 / 47900160, -1 / 1209600, 1 / 30240, -1 / 720, 1 / 12):  # B_2k / (2k)!
        series = series * (x * x) + b
    return dt * (0.5 - x * series)


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
    corr = _toeplitz(first_row).copy()
    # rho C rho, with the white diagonal 1/dt put back on the straddling cells
    straddle = np.flatnonzero(rho != 1.0)
    if straddle.size:  # none on an aligned grid, where the empty updates cost ~10 us
        corr[straddle] *= rho[straddle, None]
        corr[:, straddle] *= rho[straddle]
        corr[straddle, straddle] += (1.0 - rho[straddle] ** 2) / dt
    return corr


class _Discretization:
    """Nodes, quadrature weights, per-step rates grouped into runs of equal
    rate, and the constants of one step.

    Step k applies M_k = d exp(-x_k T), x_k = rate_k dt, injects the input
    cell k through v_k = phi sqrt(rate_k) exp(-rate_k s_field T) 1, and adds
    lang_amp H_k diag(1/w) H_k^T, H_k = exp(-rate_k s_lang T), to the
    Langevin covariance.  Every operator is a function of T, so a product of
    steps is d^n exp(-(summed area) T).
    """

    def __init__(self, medium: MediumParams, drive: DriveParams, grid: GridSpec):
        self.length = length = medium.length
        self.gamma = gamma = total_dephasing(medium, drive)
        self.area = area = PulseArea.from_drive(drive)

        self.nz, self.ntau = nz, ntau = grid.nz, grid.ntau
        self.dz = dz = length / nz
        self.dt = dt = grid.tau_max / ntau

        g_max = area.max_rate()
        if g_max * dt * dz > STABILITY_EXCHANGE_BOUND:
            raise GridConfigError(f"exchange bound violated at nz={nz} ntau={ntau}: "
                                  f"g*dt*dz = {g_max * dt * dz:.3g} > {STABILITY_EXCHANGE_BOUND}")
        if gamma * dt > STABILITY_DECAY_BOUND:
            raise GridConfigError(f"decay bound violated at nz={nz} ntau={ntau}: "
                                  f"Gamma*dt = {gamma * dt:.3g} > {STABILITY_DECAY_BOUND}")

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
        self.phi = (1.0 - d) / gamma
        self.s_field = _mean_arrival(gamma, dt)
        self.s_lang = _mean_arrival(2.0 * gamma, dt)
        self.lang_amp = 1.0 - d * d  # vanishes with the dephasing, as the noise must
        # dimensionless: phi is a time, g_max L Gamma a squared rate
        self.coeff_bound = 4.0 * max(1.0, self.phi * math.sqrt(g_max * length * gamma))

    def propagate(self, langevin: bool = True):
        """The light-kernel table and, with ``langevin``, the initial weights
        w c_init and the Langevin part w sig w of every node (None without),
        from one symbol table.

        Run (start, stop, r) covers steps start..stop-1, q counts steps back
        from its end, and a later node K sees the run only through the row
        from its end; the row from node o is d^{K-o} w exp(-x T), x the area
        from o to K (from node 0, w c_init).  The run's own nodes see its
        field cells through the Toeplitz table of s[q] = (phi / dt) d^q
        w exp(-y_q T) 1, y_q = r (q dt + s_field), and add up its Langevin
        terms g[q] = d^{2q} |w exp(-y'_q T)|^2_{1/w}, y'_q = r (q dt + s_lang),
        contracted from the running sums (``_row_norms``).  A later node
        takes the row times the field columns (phi / dt) d^q exp(-y_q T) 1,
        and the row's quadratic form with the Gramian sum_q H_q diag(1/w)
        H_q^T, H_q = d^q exp(-y'_q T): outer products of the first columns,
        and of the symbols summed along diagonals.

        The symbol table is the pass's one working table.  Its columns are
        the areas of the rows from every origin, then the Langevin areas of
        the last run and of the runs a later node follows, in run order,
        then the field areas of every run; so the followed runs' Langevin
        and field areas form one slice, which ends where the last run's
        field areas, the ones the running sums leave raw, begin.  From the
        raw table come, in order: every run's field sums s; the first
        columns of that slice, in one pass; the followed runs' Langevin
        symbols (nothing of the two under a constant drive); then the
        running sums, in place over every column but the last run's field
        areas, from which come the field columns, the rows and the Langevin
        terms.  The table is released before anything is scaled by d^q,
        whose powers are slices of one table, and before the kernel table
        is built.  Raises GridGrowthError at the first node where a row
        (per coherence sample, r / w) or a field weight, the kernel times
        dt sqrt(r) (per unit length), leaves the coefficient bound.  The
        check reads the largest and smallest entry of each row of every
        run's kernel block and, in one reduction, of every origin's rows,
        which decides it exactly: the field weights scale a run's block by
        one positive factor, under which rounding is monotone, and
        "not <=" counts a NaN left by overflow as growth.
        """
        dt, dz, d, nz, ntau, w = self.dt, self.dz, self.d, self.nz, self.ntau, self.w
        runs = self.runs
        origins = ([0] if langevin else []) + [stop for _, stop, _ in runs[:-1]]
        steps = [self.tau[:stop - start] for start, stop, _ in runs]  # q dt
        parts = [self.node_t[o:] - self.node_t[o] for o in origins]
        if langevin:  # the last run's Langevin part first, then the others in run order
            parts += [rate * (q + self.s_lang) * dz
                      for q, (_, _, rate) in zip(steps[-1:] + steps[:-1], runs[-1:] + runs[:-1])]
        parts += [rate * (q + self.s_field) * dz if rate > 0 else q[:0]
                  for q, (_, _, rate) in zip(steps, runs)]
        t = np.concatenate(parts)
        e = _symbols(t, nz)
        edges = list(itertools.accumulate(map(len, parts), initial=0))
        blocks = [slice(a, b) for a, b in itertools.pairwise(edges)]
        n_rows = len(origins)
        row_blocks = blocks[:n_rows]
        field_blocks = blocks[-len(runs):]
        # back in run order: the last run's Langevin part comes first in the table
        lang_blocks = [*blocks[n_rows + 1:-len(runs)], blocks[n_rows]] if langevin else []

        # the runs a later node follows are all but the last: their Langevin
        # and then their field parts, one slice of the table that ends where
        # the last run's field part, the one the running sums leave raw, begins
        followed = slice(edges[n_rows + langevin], edges[-2])
        lang_followed = slice(followed.start, field_blocks[0].start)
        field_followed = slice(field_blocks[0].start, followed.stop)
        lang_areas = slice(edges[n_rows], field_blocks[0].start)  # every run's Langevin areas

        def part(table, b, group):  # part b's columns in a table of a group of parts
            return table[:, b.start - group.start:b.stop - group.start]

        weights = dz * np.arange(nz, 0, -1.0)
        sums = [weights @ e[:, b] for b in field_blocks]  # w exp(-y T) 1
        firsts = _first_column(e[:, followed], t[followed])
        lang_symbols = e[:, lang_followed].copy()
        h = _running_sums(e[:, :edges[-2]])
        cols = part(firsts, field_followed, followed)
        cols[1:] += h[:, field_followed]  # exp(-y T) 1: the first column plus the Toeplitz row sums
        row_table = _rows(h[:, :edges[n_rows]], dz)
        norms = _row_norms(h[:, lang_areas], dz)
        del e, h, weights

        # numpy hands a product with one column to BLAS as a vector, and gemv
        # rounds a unit-stride vector differently from a strided one: a group
        # of one column is copied out, so each group's products round as on
        # a table of its own
        lang_firsts, cols = (group.copy() if group.shape[1] == 1 else group
                             for group in (part(firsts, lang_followed, followed), cols))
        powers = d ** np.arange(ntau + 1)  # d^q for the q-th area of a part
        scale = np.concatenate([powers[:0], *(powers[:ntau + 1 - o] for o in origins)])
        row_table *= scale[:, None]  # d^q on the q-th row from each origin
        rows = {o: row_table[b] for o, b in zip(origins, row_blocks)}
        lang = []
        for (_, stop, _), b in zip(runs, lang_blocks):
            scale = powers[:b.stop - b.start]
            g = norms[b.start - lang_areas.start:b.stop - lang_areas.start]
            g *= scale * scale
            if stop == ntau:
                lang.append((g, None, None))
                continue
            symbols = part(lang_symbols, b, lang_followed)
            first = part(lang_firsts, b, lang_followed)
            symbols *= scale
            first *= scale
            lang.append((g, symbols, first))
        field = []
        for (_, stop, _), b, s in zip(runs, field_blocks, sums):
            scale = (self.phi / dt) * powers[:b.stop - b.start]
            s *= scale
            c = None
            if stop < ntau:
                c = part(cols, b, field_followed)
                c *= scale
            field.append((s, c))

        kernel = np.zeros((ntau + 1, ntau))
        bad = np.zeros(ntau + 1, dtype=bool)
        bound = self.coeff_bound * self.length
        for (start, stop, rate), (s, c) in zip(runs, field):
            if rate == 0:
                continue
            factor = dt * math.sqrt(rate)  # from kernel entries to field weights
            kernel[start + 1:stop + 1, start:stop] = _toeplitz(s, np.zeros(stop - start))
            # row start + 1 + i of the Toeplitz block holds s[i], ..., s[0] and zeros
            bad[start + 1:stop + 1] |= _outside(np.maximum.accumulate(s) * factor,
                                                np.minimum.accumulate(s) * factor, bound)
            if stop < ntau:
                block = kernel[stop + 1:, start:stop]
                block[...] = rows[stop][1:] @ c[:, ::-1]
                bad[stop + 1:] |= _outside(block.max(axis=1) * factor,
                                           block.min(axis=1) * factor, bound)
        sample = self.coeff_bound * w  # the end nodes' half weights get half the bound
        inner = row_table[:, 1:-1]
        row_bad = (_outside(inner.max(axis=1), inner.min(axis=1), sample[1])
                   | _outside(row_table[:, 0], row_table[:, 0], sample[0])
                   | _outside(row_table[:, -1], row_table[:, -1], sample[-1]))
        for o, b in zip(origins, row_blocks):
            bad[o:] |= row_bad[b]
        if bad.any():
            raise GridGrowthError(f"influence coefficients diverged at step {np.argmax(bad)}")
        if not langevin:
            return kernel, None, None

        lang_part = np.zeros(ntau + 1)
        for (start, stop, _), (g, s, c) in zip(runs, lang):
            lang_part[start + 1:stop + 1] += np.cumsum(g)
            if stop < ntau:
                row = rows[stop][1:]
                gram = _diagonal_cumsum(s @ s.T)
                gram /= dz
                gram[-1, -1] += gram[0, 0]  # the last node's half weight
                first = row @ c
                first *= first
                lang_part[stop + 1:] += (np.sum(first, axis=1) / w[0]
                                         + np.einsum("ij,ij->i", row[:, 1:] @ gram, row[:, 1:]))
        return kernel, rows[0], self.lang_amp * lang_part

    def table(self, init_weights, lang_part, light_part, light_kernel) -> KernelTable:
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
            variance_trace=atom + light,
            atom_part_trace=atom,
            light_part_trace=light,
        )


def simulate_grid(
    medium: MediumParams,
    drive: DriveParams,
    grid: GridSpec,
    model: SqueezingModel,
) -> tuple[KernelTable, NoiseReport]:
    """Propagate the discretized atom-field system and return exact second
    moments of the discretization together with its Green-function tables.

    ``model.gamma_q`` is a rate in the time unit of the medium's and the
    drive's rates and of ``grid.tau_max``: 1/s beside SI records, and
    b = Gamma_q / Gamma beside the unit-Gamma stand-ins the CLI runs on.

    Raises GridConfigError when the declared stability bounds are violated
    and GridGrowthError if any influence coefficient grows without bound.
    """
    disc = _Discretization(medium, drive, grid)
    light_kernel, init_weights, lang_part = disc.propagate()
    field_weights = light_kernel * (disc.dt * np.sqrt(disc.rates))
    if model.kind == "flat":
        # white input: the correlator is x0^2 / dt on the diagonal, so no
        # second table of the field weights' size is formed
        light_part = (model.x0_sq / disc.dt) * np.einsum("ij,ij->i", field_weights, field_weights)
    else:
        weighted = field_weights @ _cell_correlator(model, disc.dt, disc.rho)
        light_part = np.einsum("ij,ij->i", weighted, field_weights)
    table = disc.table(init_weights, lang_part, light_part, light_kernel)
    return table, NoiseReport.from_parts(float(table.atom_part_trace[-1]),
                                         float(table.light_part_trace[-1]), model.noise_floor)


def light_kernel_reference(area: PulseArea, length: float, gamma: float,
                           tau_nodes) -> np.ndarray:
    """Continuum collective light kernel sampled at uniform grid nodes.

    Row k holds e^{-Gamma (k - kp) dt} L sqrt(1/(uL)) J1(2 sqrt(uL)) for
    every earlier node kp, dt = tau_1 - tau_0; the layout matches
    KernelTable.light_kernel.  u is the drive area from tau_kp to tau_k:
    r (k - kp) dt where no breakpoint lies strictly between the two nodes,
    r the rate just after tau_kp, else a(tau_k) - a(tau_kp).

    The decay comes from one table by lag.  Columns go one drive segment
    at a time: the rows up to the segment's end form a lower-triangular
    Toeplitz block from one kernel evaluation per lag, and only the rows
    past it, a dense block, take one evaluation per node pair.  So a
    constant drive costs ntau evaluations.
    """
    t = np.asarray(tau_nodes, dtype=float)
    ntau = len(t) - 1
    dt = t[1] - t[0]
    if not (dt > 0 and np.allclose(np.diff(t), dt, rtol=1e-9, atol=0.0)):
        raise ValueError("tau_nodes must be increasing and uniformly spaced")
    lags = np.arange(ntau + 1) * dt
    decay = np.exp(-gamma * lags) * length
    starts, rates, _ = area._segments
    segment = starts[1:].searchsorted(t[:-1], side="right")  # of every column's node
    cuts = [0, *(np.flatnonzero(np.diff(segment)) + 1).tolist(), ntau]
    avals = area.value(t)
    kernel = np.zeros((ntau + 1, ntau))
    for c0, c1 in itertools.pairwise(cuts):
        s = segment[c0]
        # rows c0 .. inside - 1 lie at or before the segment's end
        inside = t.searchsorted(starts[s + 1], side="right") if s + 1 < len(starts) else ntau + 1
        m = inside - c0  # lags 0 .. m - 1
        column = np.zeros(m)
        column[1:] = decay[1:m] * bessel_kernels(rates[s] * lags[1:m] * length, (1,))[0]
        kernel[c0:inside, c0:c1] = _toeplitz(column, np.zeros(c1 - c0))
        if inside <= ntau:  # the rows past the segment's end; lag m at the top left
            decays = _toeplitz(decay[m:ntau + 1 - c0], decay[m - (c1 - c0) + 1:m + 1][::-1])
            u = avals[inside:, None] - avals[c0:c1]
            kernel[inside:, c0:c1] = decays * bessel_kernels(u * length, (1,))[0]
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
    Every rung is discretized, and so checked against the stability bounds,
    before any runs.  The continuum kernel is evaluated once, on the finest
    grid's nodes, after every rung has run, and a grid coarser by s takes
    every s-th row and column.
    """
    factor = 2 ** (levels - 1)
    if grid.nz % factor or grid.ntau % factor:
        raise GridConfigError(f"grid sizes must be divisible by {factor} for {levels} levels")
    discs = [_Discretization(medium, drive, GridSpec(grid.nz // s, grid.ntau // s, grid.tau_max))
             for s in (2 ** k for k in range(levels - 1, -1, -1))]
    kernels = [disc.propagate(langevin=False)[0] for disc in discs]
    finest = discs[-1]
    fine = light_kernel_reference(finest.area, finest.length, finest.gamma, finest.tau)
    errors = []
    for disc, kernel in zip(discs, kernels):
        reference = fine[::grid.ntau // disc.ntau, ::grid.ntau // disc.ntau]
        kernel -= reference  # the table is the rung's own: no temporary of its size
        errors.append(float(np.linalg.norm(kernel) / np.linalg.norm(reference)))
    orders = tuple(float(np.log2(a / b)) for a, b in itertools.pairwise(errors))
    return ConvergenceStudy(sizes=tuple((disc.nz, disc.ntau) for disc in discs),
                            errors=tuple(errors), orders=orders)
