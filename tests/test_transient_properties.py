"""Property tests of the transient engine: the panel pass against the nested
adaptive-quadrature reference (``transient_reference``) and against the
Gauss panel pass it was optimized from (the same kind of outcome, and the
same report to round-off: it moved onto Gauss-Kronrod panels and computes
the lorentzian filter another way), the vacuum fixed point, the
lorentzian steady state at high bandwidth against its closed form and the
spectral engine, and the NoiseReport decomposition, on random drives and
inputs."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import transient_reference
from spinmap.dynamics import PulseArea, transient_variance
from spinmap.mapping import (DEFAULT_SPECTRAL_TOL, NoiseReport, SqueezingModel, eta_lorentzian,
                             variance_closed, variance_spectral)
from spinmap.specfun import QuadratureConvergenceError


@st.composite
def drives(draw, g_max):
    """A constant drive, or 1-4 segments of any power, zero included, that
    may end before or after the evaluation time; the drive is off after
    the last segment."""
    g = draw(st.floats(0.5, g_max))
    n = draw(st.integers(0, 4))
    if n == 0:
        return PulseArea.constant(g)
    durations = draw(st.lists(st.floats(0.05, 3.0), min_size=n, max_size=n))
    powers = draw(st.lists(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
                           min_size=n, max_size=n))
    return PulseArea(tuple(itertools.accumulate(durations)),
                     tuple(g * p for p in powers), 0.0)


inputs = st.one_of(
    st.builds(SqueezingModel.flat, st.floats(0.0, 1.0)),
    st.builds(SqueezingModel.lorentzian, st.floats(2.0, 20.0), s=st.floats(0.0, 1.0)),
)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(drives(g_max=10.0), inputs, st.floats(0.05, 3.0))
def test_panel_pass_matches_nested_reference(area, model, tau):
    rep = transient_variance(area, 1.0, 1.0, model, tau)
    ref = transient_reference.transient_variance(area, 1.0, 1.0, model, tau)
    for part in ("variance_norm", "atom_langevin_part", "light_part"):
        assert abs(getattr(rep, part) - getattr(ref, part)) <= 1e-9, part


@st.composite
def drives_and_times(draw):
    """A drive of 0-3 breakpoints, any of its segments dark, on or off after
    the last, and a time: 0, on a breakpoint, or anywhere before, between
    and after them."""
    g = draw(st.floats(0.5, 50.0))
    n = draw(st.integers(0, 3))
    durations = draw(st.lists(st.floats(0.05, 3.0), min_size=n, max_size=n))
    powers = draw(st.lists(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
                           min_size=n, max_size=n))
    area = PulseArea(tuple(itertools.accumulate(durations)), tuple(g * p for p in powers),
                     g * draw(st.sampled_from((0.0, 1.0))))
    on_breakpoint = st.sampled_from(area.breakpoints) if n else st.just(0.0)
    return area, draw(st.one_of(st.just(0.0), on_breakpoint, st.floats(0.0, 8.0)))


def report_or_error(engine, *args):
    try:
        return engine(*args)
    except (QuadratureConvergenceError, OverflowError) as err:
        return err


@settings(derandomize=True, deadline=None, max_examples=150)
@given(drives_and_times(), st.one_of(
    st.builds(SqueezingModel.flat, st.floats(0.0, 1.0)),
    st.builds(SqueezingModel.lorentzian, st.floats(0.5, 60.0), s=st.floats(0.0, 1.0))))
def test_panel_pass_matches_the_reference_pass_to_round_off(drive, model):
    """The library's Kronrod panels and the reference's Gauss panels, whole
    and halved, share their edges, and the library's piece filter and the
    reference's gap-rule filter are both exact to round-off: the same kind
    of outcome, and reports within 1e-13."""
    area, tau = drive
    args = (area, 1.0, 1.0, model, tau)
    rep, ref = (report_or_error(engine, *args)
                for engine in (transient_variance, transient_reference.panel_pass))
    assert type(rep) is type(ref)
    if isinstance(ref, NoiseReport):
        for part in ("variance_norm", "atom_langevin_part", "light_part"):
            assert abs(getattr(rep, part) - getattr(ref, part)) <= 1e-13, part


# high bandwidth, where the filter works hardest
@pytest.mark.parametrize("area, model, tau", transient_reference.HIGH_BANDWIDTH)
def test_high_bandwidth_matches_nested_reference(area, model, tau):
    rep = transient_variance(area, 1.0, 1.0, model, tau)
    ref = transient_reference.transient_variance(area, 1.0, 1.0, model, tau)
    for part in ("variance_norm", "atom_langevin_part", "light_part"):
        assert abs(getattr(rep, part) - getattr(ref, part)) <= 1e-9, part


# Gamma tau = 20 leaves e^{-2 Gamma tau} ~ 4e-18 of the transient, so each
# engine differs from the closed-form steady state 1 - s eta_lorentzian (exact
# to ~1e-15) by its own error: the transient engine's budget, 1e-10 on each of
# its two parts, and the spectral engine's, DEFAULT_SPECTRAL_TOL = 1e-9 on each
# of its two; 2 (1e-10 + 1e-9) = 2.2e-9 between the engines
TRANSIENT_BOUND = 2.0 * 1e-10
SPECTRAL_BOUND = 2.0 * DEFAULT_SPECTRAL_TOL
STEADY_BOUND = TRANSIENT_BOUND + SPECTRAL_BOUND


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.floats(0.5, 60.0), st.floats(0.5, 200.0), st.floats(0.0, 1.0))
def test_high_bandwidth_reaches_spectral_steady_state(alpha, b, s):
    # b up to 200 at Gamma tau = 20: up to ~340 panels, each carrying the filter
    model = SqueezingModel.lorentzian(b, s=s)
    rep = transient_variance(PulseArea.constant(alpha), 1.0, 1.0, model, 20.0, tol=1e-10)
    steady = variance_spectral(alpha, model, tol=DEFAULT_SPECTRAL_TOL)
    exact = 1.0 - s * eta_lorentzian(alpha, b)
    assert abs(rep.variance_norm - exact) <= TRANSIENT_BOUND, "transient engine"
    assert abs(steady.variance_norm - exact) <= SPECTRAL_BOUND, "spectral engine"
    assert abs(rep.variance_norm - steady.variance_norm) <= STEADY_BOUND


@settings(derandomize=True, deadline=None, max_examples=100)
@given(drives(g_max=500.0), st.floats(0.0, 10.0))
def test_vacuum_input_is_a_fixed_point(area, tau):
    rep = transient_variance(area, 1.0, 1.0, SqueezingModel.flat(1.0), tau)
    assert abs(rep.variance_norm - 1.0) <= 1e-8


@settings(derandomize=True, deadline=None, max_examples=60)
@given(drives(g_max=50.0), inputs, st.floats(0.0, 10.0))
def test_noise_report_parts_sum_to_total(area, model, tau):
    rate = transient_reference.drive_rate(area, 0.0)
    reports = [transient_variance(area, 1.0, 1.0, model, tau), variance_spectral(rate, model)]
    if model.kind == "flat":
        reports.append(variance_closed(rate, model.x0_sq))
    for rep in reports:
        assert rep.variance_norm == rep.atom_langevin_part + rep.light_part
