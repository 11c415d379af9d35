"""Property tests of the grid oracle: the closed-form step exponential against
a general matrix exponential, and the single-rate contracted path against the
dense reference loop, on random small grids."""

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from spinmap import dynamics
from spinmap.dynamics import GridSpec, STABILITY_EXCHANGE_BOUND
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


@st.composite
def single_rate_runs(draw):
    nz = draw(st.integers(2, 40))
    ntau = draw(st.integers(2, 40))
    length = draw(st.floats(0.5, 2.0))
    tau_max = draw(st.floats(0.05, 1.0))  # Gamma dt <= 0.5 for every ntau >= 2
    # alpha from 0 up to the exchange stability bound g dt dz <= 0.1
    g_max = STABILITY_EXCHANGE_BOUND * nz * ntau / (length * tau_max)
    g = draw(st.just(0.0) | st.floats(0.0, 1.0).map(lambda f: f * g_max))
    medium = MediumParams(density=1.0, length=length, area=1.0, gamma0=1.0, wavelength=1.0)
    drive = DriveParams(g=g, gamma_s=0.0, tau_pulse=2.0 * tau_max)
    return medium, drive, GridSpec(nz=nz, ntau=ntau, tau_max=tau_max), draw(models)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(single_rate_runs())
def test_contracted_path_matches_dense_reference(run):
    medium, drive, grid, model = run
    table, report = dynamics.simulate_grid(medium, drive, grid, model)
    dense = dynamics._propagate_dense(dynamics._Discretization(medium, drive, grid, model))
    for name in TABLE_ARRAYS:
        np.testing.assert_allclose(getattr(table, name), getattr(dense, name),
                                   rtol=0.0, atol=1e-12, err_msg=name)
    assert report.variance_norm == table.variance_trace[-1]

    # causality holds exactly: no weight on input cells at or after the node
    for k in range(grid.ntau + 1):
        assert np.all(table.light_kernel[k, k:] == 0.0)
    assert np.all(np.triu(table.field_pass, k=1) == 0.0)
    if drive.g == 0.0:
        assert np.all(table.field_pass == np.eye(grid.ntau))
        assert np.all(table.light_kernel == 0.0)
