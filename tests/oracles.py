"""Independent reference implementations used only by the tests.

The special functions are computed from power series in high-precision
arithmetic (mpmath), deliberately avoiding the scipy routes the library
itself uses, so frozen expected values in the tests stay independent of the
implementation.  The read-out map is built from the complex mode relations,
the only construction of it.
"""

import mpmath
import numpy as np

mpmath.mp.dps = 80


def j0_series(x: float) -> float:
    """J0 via its power series: sum (-1)^k (x/2)^{2k} / (k!)^2."""
    half = mpmath.mpf(x) / 2
    term = mpmath.mpf(1)
    total = mpmath.mpf(1)
    for k in range(1, 400):
        term *= -(half * half) / (k * k)
        total += term
        if abs(term) < mpmath.mpf(10) ** -70 * max(1, abs(total)):
            break
    return float(total)


def j1_series(x: float) -> float:
    """J1 via its power series: (x/2) sum (-1)^k (x/2)^{2k} / (k! (k+1)!)."""
    half = mpmath.mpf(x) / 2
    term = half
    total = half
    for k in range(1, 400):
        term *= -(half * half) / (k * (k + 1))
        total += term
        if abs(term) < mpmath.mpf(10) ** -70 * max(1, abs(total)):
            break
    return float(total)


def i0e_series(x: float) -> float:
    """e^{-x} I0(x) via the positive-term series of I0."""
    half = mpmath.mpf(x) / 2
    term = mpmath.mpf(1)
    total = mpmath.mpf(1)
    for k in range(1, 2000):
        term *= (half * half) / (k * k)
        total += term
        if term < mpmath.mpf(10) ** -70 * total:
            break
    return float(mpmath.exp(-mpmath.mpf(x)) * total)


def i1e_series(x: float) -> float:
    """e^{-x} I1(x) via the positive-term series of I1."""
    half = mpmath.mpf(x) / 2
    term = half
    total = half
    for k in range(1, 2000):
        term *= (half * half) / (k * (k + 1))
        total += term
        if term < mpmath.mpf(10) ** -70 * total:
            break
    return float(mpmath.exp(-mpmath.mpf(x)) * total)


def bisect_root(f, lo: float, hi: float, iterations: int = 200) -> float:
    """Plain bisection; f(lo) and f(hi) must bracket a sign change."""
    flo = f(lo)
    if flo == 0:
        return lo
    for _ in range(iterations):
        mid = (lo + hi) / 2
        fmid = f(mid)
        if fmid == 0:
            return mid
        if (flo > 0) == (fmid > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return (lo + hi) / 2


def complex_map_oracle(r: float) -> np.ndarray:
    """The beam-splitter read-out on the real quadratures (Xq, Pq, Xtheta,
    Ptheta), built from the complex mode relations q -> q - i r theta,
    theta -> theta - i r q with q = Xq + i Pq, theta = Xtheta + i Ptheta."""
    s = np.zeros((4, 4))
    for col, e in enumerate(np.eye(4)):
        q = e[0] + 1j * e[1]
        th = e[2] + 1j * e[3]
        q_out = q - 1j * r * th
        th_out = th - 1j * r * q
        s[:, col] = [q_out.real, q_out.imag, th_out.real, th_out.imag]
    return s
