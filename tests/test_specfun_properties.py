"""Accuracy properties of the numpy special functions and quadrature, against
scipy as an independent reference (hypothesis, derandomized)."""

import cmath
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from spinmap.mapping import SqueezingModel, variance_spectral
from spinmap.specfun import bessel_kernels, scaled_bessel_i

PROPERTY = settings(derandomize=True, deadline=None, max_examples=300)

# the Taylor range, the asymptotic switch at 26 and the whole promised range
ARGUMENTS = st.one_of(st.floats(0.0, 30.0), st.floats(25.0, 27.0), st.floats(0.0, 1e6))


def _bessel_j(x):
    """J0(x) and J1(x) from the exchange kernels at y = x^2/4."""
    j0, j = bessel_kernels(x * x / 4.0)
    return float(j0), x / 2.0 * float(j)


@PROPERTY
@given(x=ARGUMENTS)
def test_bessel_j_matches_scipy(x):
    j0, j1 = _bessel_j(x)
    assert abs(j0 - special.j0(x)) <= 1e-14
    assert abs(j1 - special.j1(x)) <= 1e-14
    assert _bessel_j(-x) == (j0, -j1)


@PROPERTY
@given(x=st.one_of(st.floats(0.0, 30.0, allow_subnormal=False),
                   st.floats(0.0, 1e6, allow_subnormal=False)))
def test_scaled_bessel_i_matches_scipy(x):
    # a subnormal x leaves e^{-x} I1(x) ~ x/2 subnormal too, where relative
    # error means nothing: the exact value there is a rounding tie
    i0, i1 = scaled_bessel_i(x)
    assert math.isclose(i0, special.i0e(x), rel_tol=1e-13, abs_tol=0.0)
    assert math.isclose(i1, special.i1e(x), rel_tol=1e-13, abs_tol=0.0)


# the Taylor range to y = 169, the asymptotic switch there (x = 26), the
# range the engines use and the whole promised range, x <= 1e6
@PROPERTY
@given(y=st.lists(st.one_of(st.floats(0.0, 200.0), st.floats(156.25, 182.25), st.floats(0.0, 1e5),
                            st.floats(0.0, 2.5e11)), min_size=1, max_size=40))
def test_kernels_match_scipy_elementwise(y):
    y = np.array(y)
    j0, j = bessel_kernels(y)
    x = 2.0 * np.sqrt(y)
    np.testing.assert_allclose(j0, special.j0(x), rtol=0.0, atol=1e-14)
    # sqrt(1/y) J1(2 sqrt(y)) times sqrt(y) is J1 itself; 1 at y = 0
    np.testing.assert_allclose(j * np.sqrt(y), special.j1(x), rtol=0.0, atol=1e-14)
    assert np.all(j[y == 0.0] == 1.0)
    # one element at a time gives the same bits as the whole array
    assert np.array_equal(np.stack([bessel_kernels(v) for v in y], axis=1), np.stack([j0, j]))


def _quad_half_line(f):
    """int_0^inf f by scipy's adaptive quad on geometric pieces and a tail."""
    edges = [0.0, *np.geomspace(1e-2, 1e5, 36)]
    total = sum(integrate.quad(f, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
                for a, b in zip(edges, edges[1:]))
    return total + integrate.quad(f, edges[-1], math.inf, epsabs=1e-14, epsrel=1e-13)[0]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(alpha=st.one_of(st.floats(0.0, 1000.0), st.floats(0.0, 5.0)),
       b=st.floats(0.1, 100.0), s=st.floats(0.0, 1.0))
def test_spectral_parts_match_quad_reference(alpha, b, s):
    report = variance_spectral(alpha, SqueezingModel.lorentzian(b, s), tol=1e-10)
    if alpha == 0.0:
        assert (report.atom_langevin_part, report.light_part) == (1.0, 0.0)
        return

    def langevin(x):
        return -math.expm1(-2.0 * alpha / (1.0 + x * x)) / (2.0 * math.pi * alpha)

    def light(x):
        s0 = 1.0 - s * b * b / (b * b + x * x)
        return s0 * abs(1.0 - cmath.exp(-alpha / complex(1.0, -x))) ** 2 / (2.0 * math.pi * alpha)

    assert abs(report.atom_langevin_part - 2.0 * _quad_half_line(langevin)) <= 1e-10
    assert abs(report.light_part - 2.0 * _quad_half_line(light)) <= 1e-10
