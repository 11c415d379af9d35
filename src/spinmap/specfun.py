"""Special functions and adaptive quadrature used by every engine.

Bessel evaluations are delegated to scipy.special, which meets the accuracy
contract (relative error well below 1e-12 over the working range).  The
modified Bessel functions are only ever exposed in exponentially scaled form
e^{-x} I_n(x), so optical depths up to 1e6 never overflow.

Semi-infinite integrals are mapped onto the unit interval with the rational
substitution

    x = lo + t / (1 - t),    dx = dt / (1 - t)^2,    t in [0, 1),

and doubly infinite integrals are split at zero into two such half-lines.
The transformed finite integrals are then handled by adaptive Gauss-Kronrod
quadrature (scipy.integrate.quad).

Integrals whose integrand is evaluated on arrays, where the caller knows
where it is smooth, use composite Gauss-Legendre panels instead
(``integrate_panels``): ``PANEL_NODES`` nodes per panel, the error estimated
by halving every panel.  Both rules accept a result under the same budget.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate
from scipy import special


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


def bessel_j0(x: float) -> float:
    """Bessel function of the first kind J0(x)."""
    return float(special.j0(_check_finite(x, "x")))


def bessel_j1(x: float) -> float:
    """Bessel function of the first kind J1(x)."""
    return float(special.j1(_check_finite(x, "x")))


def bessel_i0e(x: float) -> float:
    """Exponentially scaled modified Bessel function e^{-x} I0(x), x >= 0."""
    x = _check_finite(x, "x")
    if x < 0:
        raise ValueError(f"bessel_i0e requires x >= 0, got {x}")
    return float(special.i0e(x))


def bessel_i1e(x: float) -> float:
    """Exponentially scaled modified Bessel function e^{-x} I1(x), x >= 0."""
    x = _check_finite(x, "x")
    if x < 0:
        raise ValueError(f"bessel_i1e requires x >= 0, got {x}")
    return float(special.i1e(x))


def integrate_adaptive(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
    limit: int = 500,
) -> QuadratureResult:
    """Adaptive quadrature of ``f`` over [lo, hi]; either end may be infinite.

    Parameters
    ----------
    f : callable
        Integrand; must be integrable on the interval.
    lo, hi : float
        Interval ends; ``-inf``/``+inf`` are allowed.
    tol : float
        Absolute tolerance target.  The returned ``error_estimate`` is the
        quadrature routine's own bound; the contract is
        |value - integral| <= max(tol, error_estimate) for smooth integrands.
    limit : int
        Subdivision budget before giving up.

    Raises
    ------
    QuadratureConvergenceError
        When the subdivision budget is exhausted before reaching ``tol``.
        The exception carries the best estimate obtained.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    lo = float(lo)
    hi = float(hi)
    if math.isnan(lo) or math.isnan(hi):
        raise ValueError("integration limits must not be NaN")
    if lo > hi:
        raise ValueError(f"lo={lo} exceeds hi={hi}")

    lo_inf = math.isinf(lo)
    hi_inf = math.isinf(hi)

    if lo_inf and hi_inf:
        left = integrate_adaptive(lambda x: f(-x), 0.0, math.inf, tol=tol / 2, limit=limit)
        right = integrate_adaptive(f, 0.0, math.inf, tol=tol / 2, limit=limit)
        return QuadratureResult(
            value=left.value + right.value,
            error_estimate=left.error_estimate + right.error_estimate,
            evaluations=left.evaluations + right.evaluations,
        )
    if lo_inf:
        return integrate_adaptive(lambda x: f(-x), -hi, math.inf, tol=tol, limit=limit)
    if hi_inf:
        def g(t: float) -> float:
            u = 1.0 - t
            return f(lo + t / u) / (u * u)
        return _quad_finite(g, 0.0, 1.0, tol=tol, limit=limit)
    return _quad_finite(f, lo, hi, tol=tol, limit=limit)


def _within_budget(result: QuadratureResult, tol: float) -> bool:
    """The absolute target, or the round-off floor 1e-8 max(1, |value|)
    where that is larger; a NaN value or estimate fails."""
    value = result.value
    return bool(np.isfinite(value)
                and result.error_estimate <= max(tol, 1e-8 * max(1.0, abs(value))))


def _quad_finite(f, lo, hi, tol, limit) -> QuadratureResult:
    value, abserr, info, *rest = integrate.quad(
        f, lo, hi, epsabs=tol, epsrel=1e-12, limit=limit, full_output=1
    )
    result = QuadratureResult(value=value, error_estimate=abserr, evaluations=int(info["neval"]))
    # quad appends a message when ier != 0.  Roundoff-limited results within
    # the budget are accepted; genuine failures propagate with the best
    # estimate attached.
    if rest and not _within_budget(result, tol):
        raise QuadratureConvergenceError(
            f"quadrature did not converge on [{lo}, {hi}]: {rest[0]}", result
        )
    return result


PANEL_NODES = 16  # Gauss-Legendre nodes per panel


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


def gauss_panels(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``PANEL_NODES``-point Gauss-Legendre rule on
    every interval [lo, hi]; lo and hi broadcast, and the nodes of each
    interval run along a new last axis."""
    x, w = _legendre(PANEL_NODES)
    lo = np.asarray(lo, dtype=float)[..., None]
    width = np.asarray(hi, dtype=float)[..., None] - lo
    return lo + width * x, width * w


def integrate_panels(rule, edges, tol: float = 1e-10) -> dict[str, QuadratureResult]:
    """Composite Gauss-Legendre quadrature of named integrals over the
    panels between ``edges``, with the error of each estimated by doubling.

    ``rule(partitions)`` gets a list of edge arrays and returns, for each,
    the integrals by the panel rule on its panels (``gauss_panels``) as a
    dict by name, together with the number of integrand evaluations made
    for all of them; one call lets the rule evaluate every node at once.
    The partitions are ``edges`` and ``edges`` with every panel halved.
    Each result is the halved value, with |halved - whole| as its error
    estimate, and counts the evaluations of both.  The integrand must be
    smooth inside every panel: put its kinks and breakpoints on edges.

    Raises
    ------
    QuadratureConvergenceError
        When an estimate misses the budget ``integrate_adaptive`` accepts:
        ``tol``, or its round-off floor where that is larger.  The exception
        names the integral and carries its best estimate.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    edges = np.asarray(edges, dtype=float)
    halved = np.empty(2 * len(edges) - 1)
    halved[::2] = edges
    halved[1::2] = (edges[1:] + edges[:-1]) / 2.0
    (whole, values), evaluations = rule([edges, halved])
    results = {}
    for name, value in values.items():
        result = QuadratureResult(value=float(value),
                                  error_estimate=abs(float(value - whole[name])),
                                  evaluations=evaluations)
        if not _within_budget(result, tol):
            raise QuadratureConvergenceError(
                f"panel quadrature of the {name} did not converge on [{edges[0]}, {edges[-1]}]: "
                f"it changed by {result.error_estimate:.3g} when {len(edges) - 1} panels were "
                f"halved", result)
        results[name] = result
    return results
