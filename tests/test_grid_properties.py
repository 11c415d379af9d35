"""Property tests of the grid oracle: the closed-form step exponential against
a general matrix exponential, and the contracted propagator against the dense
reference loop (``grid_reference``) on random small grids and drive
profiles, and on one long run at the exchange bound; the NoiseReport
decomposition on the same random runs; the oracle against the transient
engine at every node, at second order wherever the breakpoints fall; and the
continuum light kernel against mpmath."""

import math

import mpmath
import numpy as np
import scipy.linalg
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grid_reference import dense_table
from spinmap import dynamics
from spinmap.dynamics import (GridSpec, PulseArea, STABILITY_EXCHANGE_BOUND, light_kernel_reference,
                              transient_variance)
from spinmap.mapping import SqueezingModel
from spinmap.model import DriveParams, MediumParams

TABLE_ARRAYS = ("init_kernel", "light_kernel", "variance_trace", "atom_part_trace",
                "light_part_trace")


def cumtrapz_matrix(nz, dz):
    """(T f)_i: trapezoid integral of node values f from node 0 to node i."""
    T = np.zeros((nz + 1, nz + 1))
    for i in range(1, nz + 1):
        T[i, 0] = dz / 2.0
        T[i, 1:i] = dz
        T[i, i] = dz / 2.0
    return T


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(2, 60), st.floats(0.1, 5.0), st.floats(0.0, 1.0))
def test_closed_form_exponential_matches_expm(nz, length, t):
    # t = x dz reaches 0.1 at the exchange stability bound; go ten times past it
    dz = length / nz
    x = t / dz
    np.testing.assert_allclose(dynamics.expm(x, nz, dz),
                               scipy.linalg.expm(-x * cumtrapz_matrix(nz, dz)),
                               rtol=0.0, atol=1e-13)


models = st.one_of(
    st.just(SqueezingModel.flat(1.0)),
    st.floats(0.0, 1.0).map(SqueezingModel.flat),
    st.builds(SqueezingModel.lorentzian, st.floats(0.5, 50.0), s=st.floats(0.0, 1.0)),
)


def assert_matches_dense(medium, drive, grid, model):
    table, report = dynamics.simulate_grid(medium, drive, grid, model)
    dense = dense_table(medium, drive, grid, model)
    for name in TABLE_ARRAYS:
        np.testing.assert_allclose(getattr(table, name), getattr(dense, name),
                                   rtol=0.0, atol=1e-12, err_msg=name)
    assert report.variance_norm == table.variance_trace[-1]
    return table


def within_exchange_bound(g, nz, ntau, length, tau_max):
    """g stepped down, an ulp at a time, until g dt dz, formed as
    ``_Discretization`` forms it, is at most STABILITY_EXCHANGE_BOUND."""
    while g * (tau_max / ntau) * (length / nz) > STABILITY_EXCHANGE_BOUND:
        g = math.nextafter(g, 0.0)
    return g


def grid_run(nz, ntau, length, tau_max, g, profile, model):
    medium = MediumParams(density=1.0, length=length, area=1.0, gamma0=1.0, wavelength=1.0)
    drive = DriveParams(g=g, gamma_s=0.0, tau_pulse=2.0 * tau_max, profile=profile)
    return medium, drive, GridSpec(nz=nz, ntau=ntau, tau_max=tau_max), model


@st.composite
def grid_runs(draw):
    nz = draw(st.integers(2, 40))
    ntau = draw(st.integers(2, 40))
    length = draw(st.floats(0.5, 2.0))
    tau_max = draw(st.floats(0.05, 1.0))  # Gamma dt <= 0.5 for every ntau >= 2
    # alpha from 0 up to the exchange stability bound g dt dz <= 0.1, which
    # the rounded product g_max dt dz can pass by an ulp
    g_max = STABILITY_EXCHANGE_BOUND * nz * ntau / (length * tau_max)
    # (g = 0 is one case in five)
    g = draw(st.sampled_from([0.0, 1.0, 1.0, 1.0, 1.0])) * draw(st.floats(0.0, 1.0)) * g_max
    g = within_exchange_bound(g, nz, ntau, length, tau_max)
    # no segments: one rate past the horizon.  Otherwise 1-4 segments whose
    # breakpoints lie on grid nodes (whole steps) or between them, with zero,
    # full or any power, ending inside the horizon or past it
    n_segments = draw(st.integers(0, 4))
    on_nodes = st.integers(1, ntau).map(lambda k: k * tau_max / ntau)
    between = st.floats(0.01, 1.0).map(lambda f: f * tau_max)
    durations = draw(st.lists(on_nodes | between, min_size=n_segments, max_size=n_segments))
    powers = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                           min_size=n_segments, max_size=n_segments))
    return grid_run(nz, ntau, length, tau_max, g, tuple(zip(durations, powers)), draw(models))


# g_max = 1.6000000000000003 at nz = 2, ntau = 3, L = 1, tau_max = 0.375, where
# g_max dt dz reads 0.10000000000000002; the strategy steps it down to 1.6
AT_EXCHANGE_BOUND = grid_run(
    2, 3, 1.0, 0.375,
    within_exchange_bound(STABILITY_EXCHANGE_BOUND * 2 * 3 / (1.0 * 0.375), 2, 3, 1.0, 0.375),
    (), SqueezingModel.flat(1.0))


@settings(derandomize=True, deadline=None, max_examples=120)
@given(grid_runs())
@example(AT_EXCHANGE_BOUND)
def test_contracted_path_matches_dense_reference(run):
    medium, drive, grid, model = run
    table = assert_matches_dense(medium, drive, grid, model)

    # causality holds exactly: no weight on input cells at or after the node
    for k in range(grid.ntau + 1):
        assert np.all(table.light_kernel[k, k:] == 0.0)
    if drive.g == 0.0:
        assert np.all(table.light_kernel == 0.0)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(grid_runs())
def test_noise_report_parts_sum_to_total(run):
    table, report = dynamics.simulate_grid(*run)
    assert report.variance_norm == report.atom_langevin_part + report.light_part
    assert np.array_equal(table.variance_trace, table.atom_part_trace + table.light_part_trace)


@pytest.mark.parametrize("profile", [(), ((0.4, 1.0), (0.3, 0.37), (0.2, 1.0))])
def test_exchange_bound_long_horizon_matches_dense_reference(profile):
    # g dt dz at the exchange bound for 1000 steps: the summed area reaches
    # x dz = 100 (71 under the profile), where the rows, columns and
    # Gramians are evaluated at e^{-t/2} L_k(t) for t up to that value
    nz, ntau, tau_max = 40, 1000, 1.0
    medium = MediumParams(density=1.0, length=1.0, area=1.0, gamma0=1.0, wavelength=1.0)
    g = STABILITY_EXCHANGE_BOUND * nz * ntau / tau_max
    drive = DriveParams(g=g, gamma_s=0.0, tau_pulse=2.0 * tau_max, profile=profile)
    grid = GridSpec(nz=nz, ntau=ntau, tau_max=tau_max)
    if not profile:
        assert dynamics._Discretization(medium, drive, grid).node_t[-1] == pytest.approx(100.0)
    assert_matches_dense(medium, drive, grid, SqueezingModel.lorentzian(5.0, s=0.7))


@st.composite
def unaligned_runs(draw):
    """A joint grid nz = ntau = n and a drive of 1-3 segments, each breakpoint
    inside a step, at 10-90 % of it; flat or lorentzian input, Gamma = L = 1."""
    n = draw(st.sampled_from([32, 48, 64]))
    tau_max = draw(st.floats(0.5, 1.5))
    g = draw(st.floats(0.5, 6.0))
    k = draw(st.integers(1, 3))
    steps = sorted(draw(st.lists(st.integers(1, n - 1), min_size=k, max_size=k, unique=True)))
    ends = [(m + draw(st.floats(0.1, 0.9))) * tau_max / n for m in steps]
    powers = draw(st.lists(st.floats(0.0, 2.0), min_size=k, max_size=k))
    model = draw(st.one_of(st.floats(0.0, 1.0).map(SqueezingModel.flat),
                           st.builds(SqueezingModel.lorentzian, st.floats(0.5, 5.0),
                                     s=st.floats(0.0, 1.0))))
    medium = MediumParams(density=1.0, length=1.0, area=1.0, gamma0=1.0, wavelength=1.0)
    drive = DriveParams(g=g, gamma_s=0.0, tau_pulse=2.0 * tau_max,
                        profile=tuple(zip(np.diff([0.0, *ends]).tolist(), powers)))
    return medium, drive, GridSpec(nz=n, ntau=n, tau_max=tau_max), model


# |grid - transient| <= K (1 + g_max)^2 dt^2 at every node, K = 0.15: 300
# random runs of this range gave K = 0.092 at most; a grid that weights a
# straddling step's correlated input by sqrt(mean rate), not by the mean of
# sqrt(rate), is first order there and reached K = 0.9-2.2 at n = 48-96
GRID_ORDER_CONSTANT = 0.15


@settings(derandomize=True, deadline=None, max_examples=40)
@given(unaligned_runs())
def test_grid_matches_transient_engine_at_every_node(run):
    medium, drive, grid, model = run
    table, _ = dynamics.simulate_grid(medium, drive, grid, model)
    area = PulseArea.from_drive(drive)
    engine = [transient_variance(area, 1.0, 1.0, model, float(t)).variance_norm
              for t in table.tau]
    g_max = max((*area.rates, area.final_rate))
    dt = grid.tau_max / grid.ntau
    bound = GRID_ORDER_CONSTANT * (1.0 + g_max) ** 2 * dt * dt
    assert np.max(np.abs(table.variance_trace - engine)) <= bound


@st.composite
def kernel_drives(draw):
    """Uniform nodes k dt, k <= ntau <= 64, and a drive of 0-3 breakpoints,
    each on a node or inside a step, past the horizon or not, with dark
    segments among any rates; any Gamma and L."""
    ntau = draw(st.integers(2, 64))
    dt = draw(st.floats(0.002, 0.1))
    cuts = draw(st.lists(st.tuples(st.integers(1, ntau), st.just(0.0) | st.floats(0.01, 0.99)),
                         max_size=3))
    breakpoints = sorted({(k + f) * dt for k, f in cuts})
    rates = draw(st.lists(st.just(0.0) | st.floats(0.0, 20.0),
                          min_size=len(breakpoints) + 1, max_size=len(breakpoints) + 1))
    area = PulseArea(tuple(breakpoints), tuple(rates[:-1]), rates[-1])
    return area, draw(st.floats(0.1, 5.0)), draw(st.floats(0.0, 3.0)), dt, ntau


def exact_light_kernel(area, length, gamma, dt, ntau):
    """The continuum kernel at the nodes k dt, in mpmath at 30 digits, and
    the largest exchange a(ntau dt) L."""
    with mpmath.workdps(30):
        starts = [mpmath.mpf(0), *map(mpmath.mpf, area.breakpoints)]
        ends = [*starts[1:], mpmath.inf]
        rates = [*area.rates, area.final_rate]
        nodes = [k * mpmath.mpf(dt) for k in range(ntau + 1)]
        a = [sum((r * (min(t, e) - s) for s, e, r in zip(starts, ends, rates) if t > s),
                 mpmath.mpf(0)) for t in nodes]
        kernel = np.zeros((ntau + 1, ntau))
        for k in range(1, ntau + 1):
            for kp in range(k):
                y = (a[k] - a[kp]) * length
                j = mpmath.besselj(1, 2 * mpmath.sqrt(y)) / mpmath.sqrt(y) if y else 1
                kernel[k, kp] = mpmath.exp(-gamma * (nodes[k] - nodes[kp])) * length * j
        return kernel, float(a[-1] * length)


# |reference - mpmath| <= KERNEL_MPMATH_BOUND L (1 + a(tau_max) L + Gamma
# tau_max): the exchange's and the decay's conditions.  Over 2500 examples
# of this strategy the evaluation of every pair from a(tau_k) - a(tau_kp)
# and tau_k - tau_kp reached 9.1e-16 of that, the evaluation by lag 8.6e-16
KERNEL_MPMATH_BOUND = 1e-15


@settings(derandomize=True, deadline=None, max_examples=60)
@given(kernel_drives())
def test_light_kernel_reference_matches_mpmath(case):
    area, length, gamma, dt, ntau = case
    exact, exchange = exact_light_kernel(area, length, gamma, dt, ntau)
    kernel = light_kernel_reference(area, length, gamma, np.arange(ntau + 1) * dt)
    scale = length * (1.0 + exchange + gamma * ntau * dt)
    assert np.max(np.abs(kernel - exact)) <= KERNEL_MPMATH_BOUND * scale
