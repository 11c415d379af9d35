"""Property tests of the grid oracle: the closed-form step exponential against
a general matrix exponential, and the contracted propagator against the dense
reference loop (``grid_reference``) on random small grids and drive
profiles, and on one long run at the exchange bound; the NoiseReport
decomposition on the same random runs; and the oracle against the transient
engine at every node, at second order wherever the breakpoints fall."""

import numpy as np
import scipy.linalg
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grid_reference import dense_table
from spinmap import dynamics
from spinmap.dynamics import GridSpec, PulseArea, STABILITY_EXCHANGE_BOUND, transient_variance
from spinmap.mapping import SqueezingModel
from spinmap.model import DriveParams, MediumParams

TABLE_ARRAYS = ("init_kernel", "light_kernel", "field_pass",
                "variance_trace", "atom_part_trace", "light_part_trace")


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


@st.composite
def grid_runs(draw):
    nz = draw(st.integers(2, 40))
    ntau = draw(st.integers(2, 40))
    length = draw(st.floats(0.5, 2.0))
    tau_max = draw(st.floats(0.05, 1.0))  # Gamma dt <= 0.5 for every ntau >= 2
    # alpha from 0 up to the exchange stability bound g dt dz <= 0.1
    g_max = STABILITY_EXCHANGE_BOUND * nz * ntau / (length * tau_max)
    # (g = 0 is one case in five)
    g = draw(st.sampled_from([0.0, 1.0, 1.0, 1.0, 1.0])) * draw(st.floats(0.0, 1.0)) * g_max
    # no segments: one rate past the horizon.  Otherwise 1-4 segments whose
    # breakpoints lie on grid nodes (whole steps) or between them, with zero,
    # full or any power, ending inside the horizon or past it
    n_segments = draw(st.integers(0, 4))
    on_nodes = st.integers(1, ntau).map(lambda k: k * tau_max / ntau)
    between = st.floats(0.01, 1.0).map(lambda f: f * tau_max)
    durations = draw(st.lists(on_nodes | between, min_size=n_segments, max_size=n_segments))
    powers = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                           min_size=n_segments, max_size=n_segments))
    medium = MediumParams(density=1.0, length=length, area=1.0, gamma0=1.0, wavelength=1.0)
    drive = DriveParams(g=g, gamma_s=0.0, tau_pulse=2.0 * tau_max,
                        profile=tuple(zip(durations, powers)))
    return medium, drive, GridSpec(nz=nz, ntau=ntau, tau_max=tau_max), draw(models)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(grid_runs())
def test_contracted_path_matches_dense_reference(run):
    medium, drive, grid, model = run
    table = assert_matches_dense(medium, drive, grid, model)

    # causality holds exactly: no weight on input cells at or after the node
    for k in range(grid.ntau + 1):
        assert np.all(table.light_kernel[k, k:] == 0.0)
    assert np.all(np.triu(table.field_pass, k=1) == 0.0)
    if drive.g == 0.0:
        assert np.all(table.field_pass == np.eye(grid.ntau))
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
    g_max = area.max_rate()
    dt = grid.tau_max / grid.ntau
    bound = GRID_ORDER_CONSTANT * (1.0 + g_max) ** 2 * dt * dt
    assert np.max(np.abs(table.variance_trace - engine)) <= bound
