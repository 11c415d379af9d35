"""Properties every steady-state engine and the grid oracle share: the vacuum
fixed point, each engine at its own tolerance, and the efficiency rising
with the optical depth (hypothesis, derandomized)."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinmap.dynamics import GridSpec, simulate_grid
from spinmap.mapping import (
    DEFAULT_SPECTRAL_TOL,
    SqueezingModel,
    eta_closed,
    variance_closed,
    variance_spectral,
)
from spinmap.model import DriveParams, MediumParams

GRID_N = 200            # verify's default grid, nz = ntau
GRID_VACUUM_TOL = 5e-3  # verify's grid_vacuum tolerance, which acceptance criterion 2 reads

# input at the vacuum level: flat at 1, or a lorentzian without squeezing
vacuum_inputs = st.one_of(
    st.just(SqueezingModel.flat(1.0)),
    st.builds(SqueezingModel.lorentzian, st.floats(0.5, 50.0), s=st.just(0.0)),
)


@st.composite
def vacuum_runs(draw):
    """Optical depth alpha = g L up to 50 at L = 1 and Gamma = 1, a horizon of
    up to 1/Gamma and 0-4 drive segments of any power, zero included, that
    may end inside the horizon: on the 200 x 200 grid, g dt dz <= 1.25e-3,
    far inside the exchange bound, and Gamma dt <= 5e-3."""
    alpha = draw(st.one_of(st.just(50.0), st.floats(0.0, 50.0)))
    tau_max = draw(st.floats(0.1, 1.0))
    n = draw(st.integers(0, 4))
    durations = draw(st.lists(st.floats(0.01, 1.0).map(lambda f: f * tau_max),
                              min_size=n, max_size=n))
    powers = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                           min_size=n, max_size=n))
    drive = DriveParams(g=alpha, gamma_s=0.0, tau_pulse=2.0 * tau_max,
                        profile=tuple(zip(durations, powers)))
    return alpha, drive, tau_max, draw(vacuum_inputs)


def constant_run(alpha):
    """Flat vacuum input under constant drive up to tau = 1/Gamma."""
    return alpha, DriveParams(g=alpha, gamma_s=0.0, tau_pulse=2.0), 1.0, SqueezingModel.flat(1.0)


# the depths verify's rows leave out: the spectral engine at alpha = 0, and
# the grid on its default 200 x 200 grid at alpha = 0 and 50
@settings(derandomize=True, deadline=None, max_examples=40)
@given(vacuum_runs())
@example(constant_run(0.0))
@example(constant_run(50.0))
def test_vacuum_input_gives_unit_variance_from_every_engine(run):
    alpha, drive, tau_max, model = run
    if model.kind == "flat":
        assert abs(variance_closed(alpha, model.x0_sq).variance_norm - 1.0) <= 1e-12
    assert abs(variance_spectral(alpha, model).variance_norm - 1.0) <= DEFAULT_SPECTRAL_TOL
    medium = MediumParams(density=1.0, length=1.0, area=1.0, gamma0=1.0, wavelength=1.0)
    table, _ = simulate_grid(medium, drive, GridSpec(nz=GRID_N, ntau=GRID_N, tau_max=tau_max),
                             model)
    assert np.max(np.abs(table.variance_trace - 1.0)) <= GRID_VACUUM_TOL


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.floats(1e-6, 1e6), st.floats(1.001, 10.0))
def test_eta_closed_rises_with_alpha(alpha, ratio):
    assert 0.0 == eta_closed(0.0) < eta_closed(alpha) < eta_closed(ratio * alpha) < 1.0


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.floats(-3.0, 6.0).map(lambda e: 10.0 ** e))
def test_flat_spectral_matches_closed_form(alpha):
    # log-uniform optical depths in [1e-3, 1e6]: the deep end needs the
    # adaptive rule to bisect past its first pass
    closed = variance_closed(alpha, 0.0).variance_norm
    spectral = variance_spectral(alpha, SqueezingModel.flat(0.0)).variance_norm
    assert abs(spectral - closed) <= 1e-6 * closed
