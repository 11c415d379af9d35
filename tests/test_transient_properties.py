"""Property tests of the transient engine: the panel pass against the nested
adaptive-quadrature reference (``transient_reference``), the vacuum fixed
point, and the NoiseReport decomposition, on random drives and inputs."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

import transient_reference
from spinmap.dynamics import PulseArea, transient_variance
from spinmap.mapping import SqueezingModel, variance_closed, variance_spectral


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
