"""Special functions and quadrature used by every engine, in numpy alone.

Bessel functions of the first kind come from one vectorized evaluation of
the exchange kernels J0(2 sqrt(y)) and sqrt(1/y) J1(2 sqrt(y))
(``bessel_kernels``), which the engines call at y = u L and the scalar
``bessel_j0``/``bessel_j1`` call at y = x^2/4.  Both kernels are entire in
y, so no square root and no removable singularity is handled at run time.
Below y = TABLE_END (x = ASYMPTOTIC_FROM) they are Taylor polynomials of
degree 7 about every multiple of 1/4, each used within 1/8 of its center.
The values at the centers follow from the integral representation

    J_n(x) = (1/pi) int_0^pi cos(n t - x sin t) dt,

whose integrand is even and periodic, so a midpoint rule of MIDPOINT_NODES
nodes is exact to round-off; the higher coefficients follow from the Bessel
equation.  The tables are built at first use (~2 ms).  Their coefficients
are at most 1/(m!)^2, so the truncation error is below (1/8)^8 / (8!)^2
~ 4e-17, and the evaluation is accurate to a few units of 1e-16 absolute.
Beyond ASYMPTOTIC_FROM Hankel's asymptotic series (Abramowitz & Stegun
9.2.5) takes over.  The modified Bessel functions are only ever exposed in
exponentially scaled form e^{-x} I_n(x), from the positive-term power series
times e^{-x} below ASYMPTOTIC_FROM and the asymptotic series A&S 9.7.1
above (the coefficients of 9.2.5 at -1/x^2), so optical depths up to 1e6
never overflow.

``integrate_adaptive`` is a globally adaptive Gauss-Legendre rule for
vectorized integrands.  Semi-infinite integrals are mapped onto the unit
interval with the rational substitution

    x = lo + t / (1 - t),    dx = dt / (1 - t)^2,    t in [0, 1),

and doubly infinite integrals are folded onto the half-line, f(x) + f(-x).
Every panel carries ``PANEL_NODES`` nodes and its error is estimated by
halving it; while the summed estimate misses the budget, every panel but
those with the smallest estimates (which together spend at most half the
budget) is bisected.

``gauss_panels`` gives the nodes and weights of the panel rule on any
intervals, for callers that run their own composite pass where they know
the integrand is smooth (the transient engine).  Every rule accepts a
result under one budget (``within_budget``): ``tol``, or the round-off
floor ROUND_OFF times the integral of |f| where that is larger.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class QuadratureConvergenceError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance.

    Carries the best available estimate so callers can degrade gracefully.
    """

    def __init__(self, message: str, best: "QuadratureResult"):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be nonnegative")
        if self.evaluations < 1:
            raise ValueError("evaluations must be at least 1")


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
    table = _taylor_coefficients()[:, list(orders)]
    table = np.ascontiguousarray(table.reshape(TAYLOR_TERMS // 4, 4, *table.shape[1:]))
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def _asymptotic_coefficients() -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of P and Q in A&S 9.2.5 as polynomials in 1/x^2, highest
    power first, one column per order: a_k = prod_{j <= k} (mu - (2j - 1)^2)
    / (k! 8^k), mu = 4 n^2; P = sum (-1)^k a_{2k} / x^{2k}, Q x = sum (-1)^k
    a_{2k+1} / x^{2k}.  A&S 9.7.1 for I_n sums the same a_k without the signs,
    so it is P - Q at -1/x^2 in place of 1/x^2."""
    mu = 4.0 * np.arange(2.0) ** 2
    a = np.ones((ASYMPTOTIC_TERMS, 2))
    for k in range(1, ASYMPTOTIC_TERMS):
        a[k] = a[k - 1] * (mu - (2 * k - 1) ** 2) / (8.0 * k)
    signs = (-1.0) ** np.arange(ASYMPTOTIC_TERMS // 2)[:, None]
    return (signs * a[0::2])[::-1].copy(), (signs * a[1::2])[::-1].copy()


def _taylor(y: np.ndarray, orders: tuple[int, ...]) -> np.ndarray:
    """The Taylor piece about the nearest center c, in h = y - c:
    p_0 + h p_1 + h^2 p_2 + h^3 p_3 with p_r the terms m = r mod 4, each a
    polynomial in h^4 whose coefficients are gathered one power at a time."""
    scaled = y * PIECES_PER_UNIT
    centers = np.rint(scaled)
    h = (scaled - centers) * (1.0 / PIECES_PER_UNIT)
    centers = centers.astype(np.intp)
    table = _taylor_table(orders)  # [m // 4, m % 4, n, k]
    h2 = h * h
    h4 = h2 * h2
    # clipped indices keep a NaN argument a NaN value
    p = table[-1].take(centers, axis=-1, mode="clip")
    for row in table[-2::-1]:
        p *= h4
        p += row.take(centers, axis=-1, mode="clip")
    q = p[0::2] + h * p[1::2]
    return q[0] + h2 * q[1]


def _hankel(x: np.ndarray, orders: tuple[int, ...]) -> np.ndarray:
    """A&S 9.2.5: J_n(x) = sqrt(2/(pi x)) (P cos chi - Q sin chi),
    chi = x - (n/2 + 1/4) pi.  chi is rounded to double as cephes rounds it,
    so at large x the absolute error grows like 1e-16 sqrt(x)."""
    p_coeffs, q_coeffs = (c[:, list(orders), None] for c in _asymptotic_coefficients())
    y = 1.0 / (x * x)
    p = np.zeros((len(orders), len(x)))
    q = np.zeros_like(p)
    for pc, qc in zip(p_coeffs, q_coeffs):
        p *= y
        p += pc
        q *= y
        q += qc
    chi = x - (np.array(orders)[:, None] / 2.0 + 0.25) * np.pi
    return np.sqrt(2.0 / (np.pi * x)) * (p * np.cos(chi) - q / x * np.sin(chi))


def _kernels(y: np.ndarray, orders: tuple[int, ...]) -> np.ndarray:
    if not y.size or y.max() < TABLE_END:
        return _taylor(y, orders)
    far = y >= TABLE_END
    out = np.empty((len(orders), y.size))
    out[:, ~far] = _taylor(y[~far], orders)
    x = 2.0 * np.sqrt(y[far])
    j = _hankel(x, orders)
    if orders[-1] == 1:
        j[-1] *= 2.0 / x  # J1 / sqrt(y)
    out[:, far] = j
    return out


def bessel_kernels(y, orders: tuple[int, ...] = (0, 1)) -> np.ndarray:
    """The exchange kernels J0(2 sqrt(y)) (order 0) and sqrt(1/y) J1(2 sqrt(y))
    (order 1, 1 at y = 0) for the orders asked for, stacked along a new first
    axis.  y is an array of finite nonnegative values, evaluated in blocks of
    BESSEL_BLOCK so the temporaries stay in cache."""
    orders = tuple(orders)
    y = np.asarray(y, dtype=float)
    flat = y.reshape(-1)
    # each block's result is allocated after its temporaries, then joined:
    # filling an array allocated up front made lorentzian transient calls
    # fault ~200 heap pages back in per call in some processes
    out = np.concatenate([_kernels(flat[start:start + BESSEL_BLOCK], orders)
                          for start in range(0, max(flat.size, 1), BESSEL_BLOCK)], axis=1)
    return out.reshape(out.shape[:1] + y.shape)


def bessel_j0(x: float) -> float:
    """Bessel function of the first kind J0(x)."""
    x = abs(_check_finite(x, "x"))
    if x >= ASYMPTOTIC_FROM:
        return float(_hankel(np.array([x]), (0,))[0, 0])
    return float(bessel_kernels(x * x / 4.0, (0,))[0])


def bessel_j1(x: float) -> float:
    """Bessel function of the first kind J1(x)."""
    x = _check_finite(x, "x")
    if abs(x) >= ASYMPTOTIC_FROM:
        value = float(_hankel(np.array([abs(x)]), (1,))[0, 0])
        return -value if x < 0 else value  # J1 is odd
    return x / 2.0 * float(bessel_kernels(x * x / 4.0, (1,))[0])


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
    # a_k of 9.2.5, that is P_n(-1/x^2) - Q_n(-1/x^2) / x; Python floats,
    # since a numpy Horner loop costs ~10x more at this size
    y = -1.0 / (x * x)
    p0 = p1 = q0 = q1 = 0.0
    for (pc0, pc1), (qc0, qc1) in zip(*(c.tolist() for c in _asymptotic_coefficients())):
        p0, p1, q0, q1 = p0 * y + pc0, p1 * y + pc1, q0 * y + qc0, q1 * y + qc1
    scale = 1.0 / math.sqrt(2.0 * math.pi * x)
    return (p0 - q0 / x) * scale, (p1 - q1 / x) * scale


def bessel_i0e(x: float) -> float:
    """Exponentially scaled modified Bessel function e^{-x} I0(x), x >= 0."""
    return scaled_bessel_i(x)[0]


def bessel_i1e(x: float) -> float:
    """Exponentially scaled modified Bessel function e^{-x} I1(x), x >= 0."""
    return scaled_bessel_i(x)[1]


PANEL_NODES = 16     # Gauss-Legendre nodes per panel
INITIAL_PANELS = 16  # panels of the adaptive rule's first pass
PANEL_LIMIT = 500    # panels the adaptive rule may bisect to before giving up
ROUND_OFF = 64 * np.finfo(float).eps  # round-off floor per unit of the integral of |f|


def within_budget(result: QuadratureResult, magnitude: float, tol: float) -> bool:
    """The absolute target ``tol``, or the round-off floor ROUND_OFF times
    the integrand's magnitude (the integral of |f|) where that is larger; a
    NaN value or estimate fails."""
    return bool(math.isfinite(result.value)
                and result.error_estimate <= max(tol, ROUND_OFF * magnitude))


def _legendre_p(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) from the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for m in range(2, n + 1):
        p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@functools.lru_cache(maxsize=None)
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule moved to [0, 1]: nodes and weights.

    The nodes are the roots of P_n, found by Newton's method from the
    guesses cos(pi (k - 1/4) / (n + 1/2)); the weights are
    2 / ((1 - x^2) P_n'(x)^2).  Unlike numpy's eigenvalue-based rule this
    calls no LAPACK routine, whose first call costs the process about 1 MB
    of resident memory.
    """
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(8):  # quadratic convergence from these guesses
        p, dp = _legendre_p(n, x)
        x = x - p / dp
    dp = _legendre_p(n, x)[1]
    x, w = (x + 1.0) / 2.0, 1.0 / ((1.0 - x * x) * dp * dp)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_panels(lo, hi, nodes: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``nodes``-point Gauss-Legendre rule
    (``PANEL_NODES`` by default) on every interval [lo, hi]; lo and hi
    broadcast, and the nodes of each interval run along a new last axis."""
    x, w = _legendre(PANEL_NODES if nodes is None else nodes)
    lo = np.asarray(lo, dtype=float)[..., None]
    width = np.asarray(hi, dtype=float)[..., None] - lo
    return lo + width * x, width * w


def _halve(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The left halves of the panels [lo, hi], then their right halves."""
    mid = (lo + hi) / 2.0
    return np.concatenate([lo, mid]), np.concatenate([mid, hi])


def _unit_nodes(lo, hi, mapped: bool) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights on the panels [lo, hi] of the unit interval;
    with ``mapped``, moved onto [0, inf) by x = t / (1 - t)."""
    t, w = gauss_panels(lo, hi)
    if not mapped:
        return t, w
    u = 1.0 - t
    return t / u, w / (u * u)


@functools.lru_cache(maxsize=None)
def _first_pass(panels: int, mapped: bool) -> tuple[np.ndarray, np.ndarray]:
    """``_unit_nodes`` of the adaptive rule's first pass: ``panels`` equal
    panels of the unit interval whole, then their left and right halves."""
    edges = np.linspace(0.0, 1.0, panels + 1)
    left, right = _halve(edges[:-1], edges[1:])
    x, w = _unit_nodes(np.concatenate([edges[:-1], left]),
                       np.concatenate([edges[1:], right]), mapped)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    tol: float = 1e-10,
) -> QuadratureResult:
    """Globally adaptive Gauss-Legendre quadrature of ``f`` over [lo, hi];
    either end may be infinite.

    Parameters
    ----------
    f : callable
        Vectorized integrand: takes an array of points, returns the
        integrand at each.  Must be integrable on the interval.
    lo, hi : float
        Interval ends; ``-inf``/``+inf`` are allowed.
    tol : float
        Absolute tolerance target.  The returned ``error_estimate`` is the
        summed change of every panel under halving; it meets ``tol``, or
        the round-off floor where that is larger.

    Raises
    ------
    QuadratureConvergenceError
        When bisecting further would exceed ``PANEL_LIMIT`` panels before the
        estimate meets the budget.  The exception carries the best estimate
        obtained.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    lo = float(lo)
    hi = float(hi)
    if math.isnan(lo) or math.isnan(hi):
        raise ValueError("integration limits must not be NaN")
    if lo > hi:
        raise ValueError(f"lo={lo} exceeds hi={hi}")

    # panels live on the unit interval: x = offset + scale s, or on a
    # half-line x = offset + s / (1 - s)
    g, offset, scale, calls = f, lo, hi - lo, 1
    mapped = math.isinf(lo) or math.isinf(hi)
    if math.isinf(lo) and math.isinf(hi):
        g, offset, calls = (lambda x: f(x) + f(-x)), 0.0, 2
    elif math.isinf(lo):
        g, offset = (lambda x: f(-x)), -hi
    if mapped:
        scale = 1.0

    def panel_sums(nodes, weights):
        # integrals of f and |f| on every panel, from one call of f
        values = g(offset + scale * nodes) * (scale * weights)
        return values.sum(axis=-1), np.abs(values).sum(axis=-1)

    # the first pass evaluates every panel whole and halved
    n = min(INITIAL_PANELS, PANEL_LIMIT)
    nodes, weights = _first_pass(n, mapped)
    sums, mags = panel_sums(nodes, weights)
    evaluations = nodes.size
    edges = np.linspace(0.0, 1.0, n + 1)
    panels = np.stack([edges[:-1], edges[1:]])  # [lo, hi] of every panel
    whole, halves, mags = sums[:n], sums[n:].reshape(2, n), mags[n:].reshape(2, n)
    while True:
        fine = halves.sum(axis=0)
        errors = np.abs(fine - whole)
        result = QuadratureResult(value=float(fine.sum()), error_estimate=float(errors.sum()),
                                  evaluations=calls * evaluations)
        magnitude = float(mags.sum())
        if within_budget(result, magnitude, tol):
            return result
        # keep the panels with the smallest estimates while together they
        # spend at most half the budget; bisect the rest (NaN sorts last)
        order = np.argsort(errors)
        kept = np.cumsum(errors[order]) <= max(tol, ROUND_OFF * magnitude) / 2.0
        keep, split = order[kept], order[~kept]
        if not len(split) or panels.shape[1] + len(split) > PANEL_LIMIT:
            raise QuadratureConvergenceError(
                f"adaptive quadrature did not converge on [{lo}, {hi}]: estimate "
                f"{result.error_estimate:.3g} against tol {tol:.3g} at the limit of {PANEL_LIMIT} "
                f"panels", result)
        children = np.stack(_halve(*panels[:, split]))
        nodes, weights = _unit_nodes(*_halve(*children), mapped)
        sums, new_mags = panel_sums(nodes, weights)
        evaluations += nodes.size
        panels = np.concatenate([panels[:, keep], children], axis=1)
        whole = np.concatenate([whole[keep], halves[0, split], halves[1, split]])
        halves = np.concatenate([halves[:, keep], sums.reshape(2, -1)], axis=1)
        mags = np.concatenate([mags[:, keep], new_mags.reshape(2, -1)], axis=1)
