"""Property tests of the grid oracle's contracted pass, float for float
against the pass it was optimized from (``grid_reference.propagate``): the
light-kernel table, the initial rows and the Langevin part, or the step of
the GridGrowthError, of ``_Discretization.propagate``, and every array of
``simulate_grid``'s tables under flat and lorentzian input, on random
grids and drives with breakpoints on nodes and inside steps."""

import dataclasses
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import grid_reference
from spinmap import dynamics
from spinmap.dynamics import GridGrowthError, GridSpec, STABILITY_EXCHANGE_BOUND, simulate_grid
from spinmap.mapping import SqueezingModel
from spinmap.model import DriveParams, MediumParams

TABLE_ARRAYS = ("z", "tau", "init_kernel", "light_kernel", "variance_trace", "atom_part_trace",
                "light_part_trace")


@st.composite
def grid_drives(draw):
    """nz and ntau from 2 to 60, and a drive of 0-3 breakpoints before the
    horizon, each on a node or inside a step (the first step included, which
    leaves a run of one step), with dark segments among any powers, off
    after the last breakpoint or on past the horizon; g up to the exchange
    bound."""
    nz, ntau = draw(st.integers(2, 60)), draw(st.integers(2, 60))
    length = draw(st.floats(0.5, 2.0))
    tau_max = draw(st.floats(0.05, 1.0))  # Gamma dt <= 0.5 for every ntau >= 2
    dt = tau_max / ntau
    n = draw(st.integers(0, 3))
    cuts = draw(st.lists(st.tuples(st.integers(0, ntau - 1), st.just(0.0) | st.floats(0.01, 0.99)),
                         min_size=n, max_size=n))
    breakpoints = sorted({(k + f) * dt for k, f in cuts if k + f > 0})
    powers = draw(st.lists(st.just(0.0) | st.just(1.0) | st.floats(0.0, 1.0),
                           min_size=len(breakpoints), max_size=len(breakpoints)))
    if breakpoints and draw(st.booleans()):  # on past the horizon
        breakpoints.append(2.0 * tau_max)
        powers.append(draw(st.floats(0.0, 1.0)))
    # g dt dz, as _Discretization forms it, may not pass the exchange bound
    g = draw(st.floats(0.05, 1.0)) * STABILITY_EXCHANGE_BOUND * nz * ntau / (length * tau_max)
    while g * dt * (length / nz) > STABILITY_EXCHANGE_BOUND:
        g *= 1.0 - 1e-15
    return grid_run(nz, ntau, length, tau_max, g, breakpoints, powers)


def grid_run(nz, ntau, length, tau_max, g, breakpoints, powers):
    """Medium, drive and grid: relative power powers[i] up to breakpoints[i]
    and the drive off after the last; with no breakpoints, g throughout."""
    medium = MediumParams(density=1.0, length=length, area=1.0, gamma0=1.0, wavelength=1.0)
    profile = tuple(zip(np.diff([0.0, *breakpoints]).tolist(), powers))
    drive = DriveParams(g=g, gamma_s=0.0, tau_pulse=breakpoints[-1] if profile else 2.0 * tau_max,
                        profile=profile)
    return medium, drive, GridSpec(nz=nz, ntau=ntau, tau_max=tau_max)


# runs of one step that a later node follows, whose columns reach BLAS as a
# single vector: the first step straddles a breakpoint, so it is a run of its
# own, the only one followed; and a dark run, then one step of drive, then
# the rest at half power, so the field columns of the followed runs are one
FIRST_STEP_ALONE = grid_run(50, 10, 1.0, 0.3, 60.0, [0.3 * 0.03, 0.3], [0.4, 1.0])
ONE_DRIVEN_STEP = grid_run(20, 12, 1.0, 0.6, 30.0, [0.25, 0.3, 1.2], [0.0, 1.0, 0.5])


def outcome(propagate, *args):
    """The pass's arrays, or the GridGrowthError's message, which names the step."""
    try:
        return propagate(*args)
    except GridGrowthError as err:
        return str(err)


def assert_same(result, reference):
    if isinstance(reference, str) or isinstance(result, str):
        assert result == reference
        return
    for name, got, want in zip(("kernel", "rows", "Langevin part"), result, reference):
        assert (got is None and want is None) or np.array_equal(got, want), name


@settings(derandomize=True, deadline=None, max_examples=400)
@given(grid_drives(), st.booleans(), st.sampled_from([1.0, 1.0, 0.5, 0.1, 0.02]))
@example(FIRST_STEP_ALONE, True, 1.0)
@example(ONE_DRIVEN_STEP, True, 1.0)
def test_pass_is_float_for_float_the_reference_pass(run, langevin, bound_scale):
    # a lowered coefficient bound makes the growth check fail at some step
    disc = dynamics._Discretization(*run)
    disc.coeff_bound *= bound_scale
    assert_same(outcome(disc.propagate, langevin),
                outcome(grid_reference.propagate, disc, langevin))


models = st.one_of(
    st.floats(0.0, 1.0).map(SqueezingModel.flat),
    st.builds(SqueezingModel.lorentzian, st.floats(0.5, 50.0), s=st.floats(0.0, 1.0)),
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(grid_drives(), models)
@example(FIRST_STEP_ALONE, SqueezingModel.lorentzian(5.0, s=0.7))
@example(ONE_DRIVEN_STEP, SqueezingModel.flat(0.3))
def test_grid_tables_are_float_for_float_the_reference_pass(run, model):
    table, report = simulate_grid(*run, model)
    with mock.patch.object(dynamics._Discretization, "propagate", grid_reference.propagate):
        reference, reference_report = simulate_grid(*run, model)
    for name in TABLE_ARRAYS:
        assert np.array_equal(getattr(table, name), getattr(reference, name)), name
    # eta is NaN at the vacuum level, so the fields compare through repr
    assert repr(dataclasses.astuple(report)) == repr(dataclasses.astuple(reference_report))
