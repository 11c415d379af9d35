"""Property tests of the transient engine: the panel pass against the nested
adaptive-quadrature reference (``transient_reference``), the vacuum fixed
point, the lorentzian steady state at high bandwidth, and the NoiseReport
decomposition, on random drives and inputs."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import transient_reference
from spinmap.dynamics import PulseArea, transient_variance
from spinmap.mapping import (DEFAULT_SPECTRAL_TOL, SqueezingModel, variance_closed,
                             variance_spectral)


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


# high bandwidth, where the filter's gap rule works hardest: b = Gq / Gamma up
# to 200 puts up to ~50 panels on [0, tau] (PANEL_DECAY e-folds of 2 Gamma + Gq each)
@pytest.mark.parametrize("area, model, tau", [
    (PulseArea.constant(5.0), SqueezingModel.lorentzian(200.0, s=1.0), 3.0),
    (PulseArea((0.7, 1.9), (40.0, 12.0), 25.0), SqueezingModel.lorentzian(120.0, s=0.9), 2.5),
    (PulseArea((0.4, 1.1, 2.0), (10.0, 0.0, 30.0), 0.0), SqueezingModel.lorentzian(60.0, s=0.6),
     3.0),
])
def test_high_bandwidth_matches_nested_reference(area, model, tau):
    rep = transient_variance(area, 1.0, 1.0, model, tau)
    ref = transient_reference.transient_variance(area, 1.0, 1.0, model, tau)
    for part in ("variance_norm", "atom_langevin_part", "light_part"):
        assert abs(getattr(rep, part) - getattr(ref, part)) <= 1e-9, part


# Gamma tau = 20 leaves e^{-2 Gamma tau} ~ 4e-18 of the transient, so the two
# engines differ by their own errors: the transient engine's budget, 1e-10 on
# each of its two parts, and the spectral engine's, DEFAULT_SPECTRAL_TOL = 1e-9
# on each of its two; 2 (1e-10 + 1e-9) = 2.2e-9 in all
STEADY_BOUND = 2.0 * (1e-10 + DEFAULT_SPECTRAL_TOL)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.floats(0.5, 60.0), st.floats(0.5, 200.0), st.floats(0.0, 1.0))
def test_high_bandwidth_reaches_spectral_steady_state(alpha, b, s):
    # b up to 200 at Gamma tau = 20: up to ~340 panels, each carrying the filter
    model = SqueezingModel.lorentzian(b, s=s)
    rep = transient_variance(PulseArea.constant(alpha), 1.0, 1.0, model, 20.0, tol=1e-10)
    steady = variance_spectral(alpha, model, tol=DEFAULT_SPECTRAL_TOL)
    assert abs(rep.variance_norm - steady.variance_norm) <= STEADY_BOUND


@settings(derandomize=True, deadline=None, max_examples=100)
@given(drives(g_max=500.0), st.floats(0.0, 10.0))
def test_vacuum_input_is_a_fixed_point(area, tau):
    rep = transient_variance(area, 1.0, 1.0, SqueezingModel.flat(1.0), tau)
    assert abs(rep.variance_norm - 1.0) <= 1e-8


@settings(derandomize=True, deadline=None, max_examples=60)
@given(drives(g_max=50.0), inputs, st.floats(0.0, 10.0))
def test_noise_report_parts_sum_to_total(area, model, tau):
    reports = [transient_variance(area, 1.0, 1.0, model, tau),
               variance_spectral(area.rate(0.0), model)]
    if model.kind == "flat":
        reports.append(variance_closed(area.rate(0.0), model.x0_sq))
    for rep in reports:
        assert rep.variance_norm == rep.atom_langevin_part + rep.light_part
