"""Special functions and quadrature used by every engine.

The scalar functions (``scaled_bessel_i``, ``scaled_bessel_i_sequence``)
run on Python floats, so a command that needs no array never imports numpy;
the vectorized ones import numpy where they start.

Bessel functions of the first kind come from one vectorized evaluation of
the exchange kernels J0(2 sqrt(y)) and sqrt(1/y) J1(2 sqrt(y))
(``bessel_kernels``), which the engines call at y = u L.  Both kernels are
entire in y, so no square root and no removable singularity is handled at
run time.  Below y = TABLE_END (x = ASYMPTOTIC_FROM) they are Taylor
polynomials of degree 7 about every multiple of 1/4, each used within 1/8
of its center.  The values at the centers follow from the integral
representation

    J_n(x) = (1/pi) int_0^pi cos(n t - x sin t) dt,

whose integrand is even and periodic, so a midpoint rule of MIDPOINT_NODES
nodes is exact to round-off; the higher coefficients follow from the Bessel
equation.  The tables are built at first use (~2 ms).  Their coefficients
are at most 1/(m!)^2, so the truncation error is below (1/8)^8 / (8!)^2
~ 4e-17, and the evaluation is accurate to a few units of 1e-16 absolute.
Beyond ASYMPTOTIC_FROM Hankel's asymptotic series (Abramowitz & Stegun
9.2.5) takes over; its coefficients are one plain-Python table, which the
vectorized series wraps in an array.  The modified Bessel functions are only
ever exposed in exponentially scaled form e^{-x} I_n(x), so optical depths
up to 1e6 never overflow: orders 0 and 1 from one call of
``scaled_bessel_i``, from the positive-term power series times e^{-x} below
ASYMPTOTIC_FROM and the asymptotic series A&S 9.7.1 above (the
coefficients of 9.2.5 at -1/x^2); every order at once from
``scaled_bessel_i_sequence``, Miller's backward recurrence normalized by
e^x = I0 + 2 sum_{n>=1} I_n (A&S 9.6.34 at theta = 0).

``integrate_adaptive`` is a globally adaptive Gauss-Kronrod rule for
vectorized integrands over the half-line [0, inf), mapped onto the unit
interval with the rational substitution

    x = t / (1 - t),    dx = dt / (1 - t)^2,    t in [0, 1).

An integrand may have several parts, stacked along a first axis, which
share every node and every panel.  Every panel carries the 2 PANEL_NODES + 1
nodes of ``kronrod_rule``, the Kronrod extension of the PANEL_NODES-point
Gauss rule (Laurie, Math. Comp. 66, 1997); a part's value on it is the
Kronrod sum, and its error estimate the difference from the embedded Gauss
sum.  While some part's summed estimate misses its budget, that part asks
for every panel but those with its smallest estimates (which together
spend at most half its budget) to be bisected, and the union of what the
parts ask for is bisected.  A part that has met its budget keeps the
result of the pass where it first met it, so it reads as a pass of its own
that stopped there.

``kronrod_panels`` puts the same panel rule on any finite intervals, for
a caller that runs its own composite pass where it knows the integrand is
smooth (the transient engine), and ``panel_sums`` reduces the values on
the panels of either engine to each part's Kronrod value, estimate and
magnitude per panel.  Both engines judge their result
(``QuadratureResult``, one value, estimate and magnitude per part) by one
rule, ``within_budget``: each part meets ``tol``, or its round-off floor
ROUND_OFF times the integral of its |f| where that is larger.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    import numpy as np


class QuadratureConvergenceError(RuntimeError, ArithmeticError):
    """Adaptive quadrature failed to reach the requested tolerance.

    Carries the best estimate obtained, as ``best``.  An ArithmeticError
    too, so callers can catch every numerical failure without this module.
    """

    def __init__(self, message: str, best: "QuadratureResult"):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class QuadratureResult:
    """The integrals of an integrand's parts from one set of nodes.

    Per part: its value, its error estimate and its magnitude, the integral
    of its |f|, which sets its round-off floor.  ``value`` and
    ``error_estimate`` sum them over the parts; ``evaluations`` counts the
    nodes, each of which evaluates every part.
    """

    values: tuple[float, ...]
    errors: tuple[float, ...]
    magnitudes: tuple[float, ...]
    evaluations: int

    def __post_init__(self):
        if not len(self.values) == len(self.errors) == len(self.magnitudes) > 0:
            raise ValueError("every part needs one value, error estimate and magnitude")
        if any(e < 0 for e in self.errors):
            raise ValueError("error estimates must be nonnegative")
        if self.evaluations < 1:
            raise ValueError("evaluations must be at least 1")

    @property
    def value(self) -> float:
        return sum(self.values)

    @property
    def error_estimate(self) -> float:
        return sum(self.errors)


def _check_finite(x: float, name: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


ASYMPTOTIC_FROM = 26.0  # x where the asymptotic series take over
TABLE_END = (ASYMPTOTIC_FROM / 2.0) ** 2  # y = x^2 / 4 the Taylor tables cover
PIECES_PER_UNIT = 4     # Taylor pieces per unit of y, each about its center
TAYLOR_TERMS = 8        # terms of each Taylor piece (degree 7), a multiple of 4
MIDPOINT_NODES = 96     # midpoint-rule nodes on [0, pi] for the values at the centers
ASYMPTOTIC_TERMS = 24   # terms of the asymptotic series (P and Q together for J)
BESSEL_BLOCK = 8192     # arguments per block of a vectorized Bessel evaluation


@functools.lru_cache(maxsize=None)
def _taylor_coefficients() -> np.ndarray:
    """Taylor coefficients of J0(2 sqrt(y)) and J1(2 sqrt(y)) / sqrt(y) about
    every center c = k / PIECES_PER_UNIT <= TABLE_END, laid out [m, n, k].

    Both are 0F1(; b; -y), b = n + 1: entire in y and solutions of
    y f'' + b f' + f = 0.  Their values at c come from the midpoint rule for
    J_n(x) = (1/pi) int_0^pi cos(n t - x sin t) dt, x = 2 sqrt(c); the first
    derivatives are -J1/sqrt(y) for the first and (J0 - J1/sqrt(y)) / y for
    the second, and the equation gives every further coefficient:
    a_{m+2} = -((m + 1)(m + b) a_{m+1} + a_m) / (c (m + 1)(m + 2)).  About
    c = 0 they are the power series (-1)^m / (m! (b)_m).
    """
    import numpy as np

    theta = (np.arange(MIDPOINT_NODES) + 0.5) * (np.pi / MIDPOINT_NODES)
    centers = np.arange(TABLE_END * PIECES_PER_UNIT + 1.0) / PIECES_PER_UNIT
    c = centers[1:]
    phase = 2.0 * np.sqrt(c[:, None]) * np.sin(theta)  # x sin t
    b = np.array([[1.0], [2.0]])
    table = np.empty((TAYLOR_TERMS, 2, len(centers)))
    table[0, :, 1:] = np.cos(phase).mean(axis=1), np.cos(theta - phase).mean(axis=1) / np.sqrt(c)
    table[1, :, 1:] = -table[0, 1, 1:], (table[0, 0, 1:] - table[0, 1, 1:]) / c
    for m in range(TAYLOR_TERMS - 2):
        table[m + 2, :, 1:] = -((m + 1) * (m + b) * table[m + 1, :, 1:]
                                + table[m, :, 1:]) / (c * (m + 1) * (m + 2))
    m = np.arange(TAYLOR_TERMS)
    factorial = np.cumprod(np.maximum(m, 1.0))
    table[:, 0, 0] = (-1.0) ** m / factorial ** 2
    table[:, 1, 0] = (-1.0) ** m / (factorial ** 2 * (m + 1))
    return table


@functools.lru_cache(maxsize=None)
def _taylor_table(orders: tuple[int, ...]) -> np.ndarray:
    """The coefficients of the orders asked for, laid out [m // 4, m % 4, n, k]
    for evaluation in h^4."""
    import numpy as np

    table = _taylor_coefficients()[:, list(orders)]
    table = np.ascontiguousarray(table.reshape(TAYLOR_TERMS // 4, 4, *table.shape[1:]))
    table.flags.writeable = False
    return table


def _asymptotic_coefficients() -> tuple[tuple[tuple[float, float], ...], ...]:
    """Coefficients of P and Q in A&S 9.2.5 as polynomials in 1/x^2, highest
    power first, one (order 0, order 1) pair per power: a_k = prod_{j <= k}
    (mu - (2j - 1)^2) / (k! 8^k), mu = 4 n^2; P = sum (-1)^k a_{2k} / x^{2k},
    Q x = sum (-1)^k a_{2k+1} / x^{2k}.  A&S 9.7.1 for I_n sums the same a_k
    without the signs, so it is P - Q at -1/x^2 in place of 1/x^2."""
    a = [(1.0, 1.0)]
    for k in range(1, ASYMPTOTIC_TERMS):
        a.append(tuple(c * (mu - (2 * k - 1) ** 2) / (8.0 * k) for c, mu in zip(a[-1], (0.0, 4.0))))
    signed = [tuple((-1.0) ** (k // 2) * c for c in row) for k, row in enumerate(a)]
    return tuple(signed[0::2][::-1]), tuple(signed[1::2][::-1])


ASYMPTOTIC_COEFFICIENTS = _asymptotic_coefficients()  # (P, Q) of A&S 9.2.5


@functools.lru_cache(maxsize=None)
def _hankel_coefficients(orders: tuple[int, ...]) -> np.ndarray:
    """ASYMPTOTIC_COEFFICIENTS of the orders asked for, as one array laid out
    [power, P or Q, n, 1] for the vectorized series."""
    import numpy as np

    table = np.array(ASYMPTOTIC_COEFFICIENTS).transpose(1, 0, 2)[:, :, list(orders), None]
    table.flags.writeable = False
    return table


def _taylor(y: np.ndarray, orders: tuple[int, ...]) -> np.ndarray:
    """The Taylor piece about the nearest center c, in h = y - c:
    p_0 + h p_1 + h^2 p_2 + h^3 p_3 with p_r the terms m = r mod 4, each a
    polynomial in h^4, with every coefficient gathered by one ``take``."""
    h = y * PIECES_PER_UNIT
    centers = h.round()  # half to even, as rint
    h -= centers
    h *= 1.0 / PIECES_PER_UNIT
    centers = centers.astype("intp")
    h2 = h * h
    h4 = h2 * h2
    # every coefficient at once, [m // 4, m % 4, n, value]; clipped indices
    # keep a NaN argument a NaN value
    coeffs = _taylor_table(orders).take(centers, axis=-1, mode="clip")
    p = coeffs[-1]
    for row in coeffs[-2::-1]:
        p *= h4
        p += row
    # q = p_0,2 + h p_1,3 in place, then q_0 + h^2 q_1
    q = p[1::2]
    q *= h
    q += p[0::2]
    out = h2 * q[1]
    out += q[0]
    return out


def _hankel(x: np.ndarray, orders: tuple[int, ...]) -> np.ndarray:
    """A&S 9.2.5: J_n(x) = sqrt(2/(pi x)) (P cos chi - Q sin chi),
    chi = x - (n/2 + 1/4) pi.  chi is rounded to double as cephes rounds it,
    so at large x the absolute error grows like 1e-16 sqrt(x).  P and Q
    run through Horner's rule side by side, one array operation a step."""
    import numpy as np

    y = 1.0 / (x * x)
    pq = np.zeros((2, len(orders), len(x)))
    for coefficient in _hankel_coefficients(orders):
        pq *= y
        pq += coefficient
    p, q = pq
    chi = x - (np.array(orders)[:, None] / 2.0 + 0.25) * np.pi
    return np.sqrt(2.0 / (np.pi * x)) * (p * np.cos(chi) - q / x * np.sin(chi))


def _kernels(y: np.ndarray, orders: tuple[int, ...]) -> np.ndarray:
    if not y.size or y.max() < TABLE_END:
        return _taylor(y, orders)
    import numpy as np

    near = y < TABLE_END  # not at NaN: the Hankel series keeps a NaN a NaN
    far = ~near
    out = np.empty((len(orders), y.size))
    out[:, near] = _taylor(y[near], orders)
    x = 2.0 * np.sqrt(y[far])
    j = _hankel(x, orders)
    for row, order in zip(j, orders):
        if order == 1:
            row *= 2.0 / x  # J1 / sqrt(y)
    out[:, far] = j
    return out


def bessel_kernels(y, orders: tuple[int, ...] = (0, 1)) -> np.ndarray:
    """The exchange kernels J0(2 sqrt(y)) (order 0) and sqrt(1/y) J1(2 sqrt(y))
    (order 1, 1 at y = 0) for the orders asked for, in any order, stacked
    along a new first axis.  y is an array of finite nonnegative values,
    evaluated in blocks of BESSEL_BLOCK so the temporaries stay in cache.
    Raises ValueError for an order other than 0 and 1."""
    import numpy as np

    orders = _checked_orders(*orders)
    y = np.asarray(y, dtype=float)
    flat = y.reshape(-1)
    if flat.size <= BESSEL_BLOCK:
        out = _kernels(flat, orders)
    else:
        # each block's result is allocated after its temporaries, then joined:
        # filling an array allocated up front made lorentzian transient calls
        # fault ~200 heap pages back in per call in some processes
        out = np.concatenate([_kernels(flat[start:start + BESSEL_BLOCK], orders)
                              for start in range(0, flat.size, BESSEL_BLOCK)], axis=1)
    return out.reshape(out.shape[:1] + y.shape)


@functools.lru_cache(maxsize=64, typed=True)
def _checked_orders(*orders) -> tuple[int, ...]:
    """The orders as a tuple, once each is known to be 0 or 1.  Cached by
    value and type of every order, so 1.0 and True, equal to 1, are still
    checked (and rejected) on every call."""
    for order in orders:
        if type(order) is not int or order not in (0, 1):  # they index the tables
            raise ValueError(f"bessel_kernels evaluates orders 0 and 1, got order {order!r}")
    return orders


def scaled_bessel_i(x: float) -> tuple[float, float]:
    """Exponentially scaled modified Bessel functions e^{-x} I0(x) and
    e^{-x} I1(x), x >= 0, from one call."""
    x = _check_finite(x, "x")
    if x < 0:
        raise ValueError(f"scaled Bessel I requires x >= 0, got {x}")
    if x < ASYMPTOTIC_FROM:
        # I_n(x) = (x/2)^n sum_k (x^2/4)^k / (k! (k + n)!), every term positive
        q = x * x / 4.0
        scaled = []
        for n, term in ((0, 1.0), (1, x / 2.0)):
            total = term
            k = 0
            while term > 1e-17 * total:
                k += 1
                term *= q / (k * (k + n))
                total += term
            scaled.append(total * math.exp(-x))
        return scaled[0], scaled[1]
    # A&S 9.7.1: e^{-x} I_n(x) sqrt(2 pi x) ~ sum_k (-1)^k a_k / x^k with the
    # a_k of 9.2.5, that is P_n(-1/x^2) - Q_n(-1/x^2) / x
    y = -1.0 / (x * x)
    p0 = p1 = q0 = q1 = 0.0
    for (pc0, pc1), (qc0, qc1) in zip(*ASYMPTOTIC_COEFFICIENTS):
        p0, p1, q0, q1 = p0 * y + pc0, p1 * y + pc1, q0 * y + qc0, q1 * y + qc1
    scale = 1.0 / math.sqrt(2.0 * math.pi * x)
    return (p0 - q0 / x) * scale, (p1 - q1 / x) * scale


def scaled_bessel_i_sequence(x: float) -> list[float]:
    """e^{-x} I_n(x) for n = 0, 1, ..., N, x > 0, with N = 20 + floor(sqrt(80 x)).

    Miller's backward recurrence I_{n-1} = (2n/x) I_n + I_{n+1}, started at
    N from I_{N+1} = 0 and I_N = 1, normalized by e^x = I0 + 2 sum_{n>=1} I_n
    summed exactly (``math.fsum``).  For n << x, I_n / I_0 ~ e^{-n^2 / 2x},
    so the orders past N hold less than e^{-40} of the sum, and at small x
    the orders past 20 are below (x/2)^20 / 20!.  The start's error is large
    only on orders that small: every value is within 1e-15 of e^{-x} I_0,
    and within 4e-15 relative where it exceeds 1e-10 of it.
    """
    x = _check_finite(x, "x")
    if not x > 0:
        raise ValueError(f"the scaled Bessel I sequence requires x > 0, got {x}")
    top = 20 + int(math.sqrt(80.0 * x))
    values = [0.0] * (top + 1)
    later, value = 0.0, 1.0
    scale = 2.0 / x
    for n in range(top, 0, -1):
        values[n] = value
        later, value = value, n * scale * value + later
        if value > 1e200:  # only below x ~ 1e-13: rescale what the sum would overflow
            values = [v * 1e-200 for v in values]
            later, value = later * 1e-200, value * 1e-200
    values[0] = value
    norm = 2.0 * math.fsum(values) - value
    return [v / norm for v in values]


PANEL_NODES = 16     # Gauss-Legendre nodes per panel
INITIAL_PANELS = 16  # panels of the adaptive rule's first pass
PANEL_LIMIT = 500    # panels the adaptive rule may bisect to before giving up
ROUND_OFF = 64 * sys.float_info.epsilon  # round-off floor per unit of the integral of |f|


def budget(magnitude: float, tol: float) -> float:
    """The error a part may carry: the absolute target ``tol``, or the
    round-off floor ROUND_OFF times its magnitude (the integral of its |f|)
    where that is larger."""
    return max(tol, ROUND_OFF * magnitude)


def within_budget(result: QuadratureResult, tol: float) -> tuple[bool, ...]:
    """Whether each part's estimate meets its own ``budget``; a NaN value or
    estimate fails."""
    return tuple(math.isfinite(value) and error <= budget(magnitude, tol)
                 for value, error, magnitude in zip(result.values, result.errors,
                                                     result.magnitudes))


def _legendre_p(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) from the three-term recurrence."""
    import numpy as np

    p0, p1 = np.ones_like(x), x
    for m in range(2, n + 1):
        p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@functools.lru_cache(maxsize=None)
def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule moved to [0, 1]: nodes and weights,
    read-only.

    The nodes are the roots of P_n, found by Newton's method from the
    guesses cos(pi (k - 1/4) / (n + 1/2)); the weights are
    2 / ((1 - x^2) P_n'(x)^2).  Unlike numpy's eigenvalue-based rule this
    calls no LAPACK routine, whose first call costs the process about 1 MB
    of resident memory.
    """
    import numpy as np

    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(8):  # quadratic convergence from these guesses
        p, dp = _legendre_p(n, x)
        x = x - p / dp
    dp = _legendre_p(n, x)[1]
    x, w = (x + 1.0) / 2.0, 1.0 / ((1.0 - x * x) * dp * dp)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _laurie(n: int) -> tuple[list[float], list[float]]:
    """Recurrence coefficients a_0..a_2n, b_0..b_2n of the Jacobi-Kronrod
    matrix of the n-point Gauss-Legendre rule on [-1, 1] (Laurie, Math. Comp.
    66, 1997): monic pi_{k+1} = (x - a_k) pi_k - b_k pi_{k-1}, b_0 = 2.  The
    first 3n/2 of them are Legendre's, a_k = 0 and b_k = k^2 / (4 k^2 - 1);
    the rest follow from the mixed moments s and t."""
    a = [0.0] * (2 * n + 1)
    b = [2.0] + [k * k / (4.0 * k * k - 1.0) if k <= (3 * n + 1) // 2 else 0.0
                 for k in range(1, 2 * n + 1)]
    # s[j + 1] and t[j + 1] hold Laurie's s_j and t_j, j = -1 .. n // 2
    s, t = [0.0] * (n // 2 + 2), [0.0] * (n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        u = 0.0
        for k in range((m + 1) // 2, -1, -1):
            u += (a[k + n + 1] - a[m - k]) * t[k + 1] + b[k + n + 1] * s[k] - b[m - k] * s[k + 1]
            s[k + 1] = u
        s, t = t, s
    s[1:] = s[:-1]
    for m in range(n - 1, 2 * n - 2):
        u = 0.0
        for k in range(m + 1 - n, (m - 1) // 2 + 1):
            j = n - 1 - m + k
            u -= ((a[k + n + 1] - a[m - k]) * t[j + 1] + b[k + n + 1] * s[j + 1]
                  - b[m - k] * s[j + 2])
            s[j + 1] = u
        k = (m + 1) // 2
        if m % 2 == 0:
            a[k + n + 1] = a[k] + (s[j + 1] - b[k + n + 1] * s[j + 2]) / t[j + 2]
        else:
            b[k + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
    return a, b


@functools.lru_cache(maxsize=None)
def kronrod_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (2n + 1)-point Gauss-Kronrod extension of ``gauss_rule(n)`` on
    [0, 1]: nodes in ascending order and weights, read-only.

    The odd-indexed nodes, ``nodes[1::2]``, are ``gauss_rule(n)``'s bit for
    bit.  The nodes are the roots of pi_{2n+1}, the characteristic
    polynomial of Laurie's Jacobi-Kronrod matrix; the n + 1 others
    interlace the Gauss nodes, and Newton's method finds them from the
    angles halfway between those of the Gauss nodes.  The weights are the
    Christoffel numbers 1 / sum_k pi_k(x)^2 / (b_0 ... b_k), k < 2n + 1.
    Like ``gauss_rule``, this calls no LAPACK routine.
    """
    import numpy as np

    a, b = _laurie(n)
    gauss = gauss_rule(n)[0]
    angles = np.concatenate([[np.pi], np.arccos(2.0 * gauss - 1.0), [0.0]])
    extra = np.cos((angles[:-1] + angles[1:]) / 2.0)
    for _ in range(8):  # quadratic convergence from these guesses
        p0, p1, d0, d1 = 0.0, 1.0, 0.0, 0.0
        for ak, bk in zip(a, b):
            p0, p1, d0, d1 = p1, (extra - ak) * p1 - bk * p0, d1, p1 + (extra - ak) * d1 - bk * d0
        extra = extra - p1 / d1
    x = np.empty(2 * n + 1)  # on [-1, 1]
    x[0::2], x[1::2] = extra, 2.0 * gauss - 1.0
    nodes = (x + 1.0) / 2.0
    nodes[1::2] = gauss
    p0, p1, norm = 0.0, 1.0, b[0]
    christoffel = 1.0 / norm
    for ak, bk, bnext in zip(a, b, b[1:]):
        p0, p1 = p1, (x - ak) * p1 - bk * p0
        norm *= bnext
        christoffel = christoffel + p1 * p1 / norm
    weights = 0.5 / christoffel
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def kronrod_panels(lo, hi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``kronrod_rule(PANEL_NODES)`` nodes and weights on every interval
    [lo, hi], and the weights of the embedded Gauss rule at the odd-indexed
    nodes; lo and hi broadcast, and the nodes of each interval run along a
    new last axis."""
    import numpy as np

    x, w = kronrod_rule(PANEL_NODES)
    lo = np.asarray(lo, dtype=float)[..., None]
    width = np.asarray(hi, dtype=float)[..., None] - lo
    return lo + width * x, width * w, width * gauss_rule(PANEL_NODES)[1]


def panel_sums(values, weights, gauss_weights) -> np.ndarray:
    """Every part's Kronrod value, its estimate (the difference from the
    embedded Gauss value) and the Kronrod integral of its |f| on every
    panel, [3, part, panel], from the values [part, panel, node] and the
    weights of a ``kronrod_rule`` pass."""
    import numpy as np

    weighted = values * weights
    sums = np.empty((3, *weighted.shape[:-1]))
    weighted.sum(axis=-1, out=sums[0])
    np.multiply(values[..., 1::2], gauss_weights).sum(axis=-1, out=sums[1])
    np.subtract(sums[0], sums[1], out=sums[1])
    np.abs(sums[1], out=sums[1])
    np.abs(weighted, out=weighted).sum(axis=-1, out=sums[2])
    return sums


def _kronrod_panels(lo, hi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``kronrod_rule(PANEL_NODES)`` nodes and weights on the panels
    [lo, hi] of the unit interval, moved onto [0, inf) by x = t / (1 - t),
    and the weights of the embedded Gauss rule at the odd-indexed nodes:
    [panel, node]."""
    t, w = kronrod_rule(PANEL_NODES)
    lo = lo[:, None]
    width = hi[:, None] - lo
    t = lo + width * t
    u = 1.0 - t
    scale = width / (u * u)
    return t / u, scale * w, scale[:, 1::2] * gauss_rule(PANEL_NODES)[1]


@functools.lru_cache(maxsize=None)
def _initial_panels() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_kronrod_panels`` of the adaptive rule's first pass, INITIAL_PANELS
    equal panels of the unit interval."""
    import numpy as np

    edges = np.linspace(0.0, 1.0, INITIAL_PANELS + 1)
    tables = _kronrod_panels(edges[:-1], edges[1:])
    for table in tables:
        table.flags.writeable = False
    return tables


def integrate_adaptive(f: Callable[[np.ndarray], np.ndarray], tol: float) -> QuadratureResult:
    """Globally adaptive Gauss-Kronrod quadrature of ``f`` over [0, inf).

    Parameters
    ----------
    f : callable
        Vectorized integrand: takes an array of points and returns its parts
        at each, stacked along a new first axis (a single integrand is a
        stack of one).  Every part must be integrable on the half-line.
    tol : float
        Absolute tolerance target of every part.  A part's error estimate
        is the summed difference of every panel's Kronrod and embedded Gauss
        values; it meets ``tol``, or the part's round-off floor where that
        is larger.  Every part evaluates at every node; a part that has met
        its budget keeps the value and estimate of the pass where it first
        met it while another part still bisects.

    Raises
    ------
    ValueError
        When ``tol`` is not positive and finite, or ``f`` does not return
        its parts stacked along a new first axis.
    QuadratureConvergenceError
        When bisecting further would exceed ``PANEL_LIMIT`` panels before
        every part's estimate meets its budget.  The exception carries the
        best estimate obtained.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    import numpy as np

    # panels live on the unit interval, each with its nodes, Kronrod and
    # Gauss weights
    nodes, *weights = _initial_panels()
    sums = panel_sums(np.asarray(f(nodes)), *weights)
    if sums.ndim != 3:
        raise ValueError("the integrand must return its parts stacked along a new first axis, "
                         f"shape (parts, *x.shape); got shape {sums.shape[1:] + nodes.shape[-1:]} "
                         f"for x of shape {nodes.shape}")
    evaluations = nodes.size
    parts = sums.shape[1]
    panels = None  # [lo, hi] of every panel, from the first bisection on
    # (value, error, magnitude) of each part from the pass where it first met
    # its budget: a part that has met it keeps that result
    settled = [None] * parts
    while True:
        rows = [done or row for done, row in zip(settled, zip(*sums.sum(axis=-1).tolist()))]
        values, errs, magnitudes = zip(*rows)
        result = QuadratureResult(values=values, errors=errs, magnitudes=magnitudes,
                                  evaluations=evaluations)
        met = within_budget(result, tol)
        if all(met):
            return result
        settled = [row if ok else None for row, ok in zip(rows, met)]
        # a part that misses its budget keeps the panels with its smallest
        # estimates while together they spend at most half that budget, and
        # asks for the rest to be bisected (NaN sorts last)
        errors = sums[1]
        split = np.zeros(errors.shape[1], dtype=bool)
        for part in (p for p, ok in enumerate(met) if not ok):
            order = np.argsort(errors[part])
            kept = np.cumsum(errors[part, order]) <= budget(result.magnitudes[part], tol) / 2.0
            split[order[~kept]] = True
        if not split.any() or len(split) + np.count_nonzero(split) > PANEL_LIMIT:
            budgets = [budget(m, tol) for m in result.magnitudes]
            raise QuadratureConvergenceError(
                f"adaptive quadrature did not converge on [0.0, inf]: estimates "
                f"({', '.join(f'{e:.3g}' for e in result.errors)}) against budgets "
                f"({', '.join(f'{b:.3g}' for b in budgets)}) at the limit of {PANEL_LIMIT} panels",
                result)
        if panels is None:
            edges = np.linspace(0.0, 1.0, INITIAL_PANELS + 1)
            panels = np.stack([edges[:-1], edges[1:]])
        keep = ~split
        lo, hi = panels[:, split]
        mid = (lo + hi) / 2.0
        children = np.stack([np.concatenate([lo, mid]), np.concatenate([mid, hi])])
        nodes, *weights = _kronrod_panels(*children)
        panels = np.concatenate([panels[:, keep], children], axis=1)
        evaluations += nodes.size
        sums = np.concatenate([sums[:, :, keep], panel_sums(np.asarray(f(nodes)), *weights)],
                              axis=2)
