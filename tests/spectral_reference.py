"""Two scalar adaptive passes: the reference of the spectral engine.

This is the procedure ``mapping.variance_spectral`` replaced.  The Langevin
density and the light term are integrated by two complete runs of a scalar
adaptive rule, each at ``tol / 2``, each with its own first pass, budget
check and refinement loop.  The densities are written out as they were,
with (-2 alpha)/q in the Langevin exponent.  The rule shares the node
tables (``specfun._initial_panels``, ``_kronrod_panels``) with the engine,
so a pass that meets its budget on the first pass must be reproduced by
the engine bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from spinmap import specfun


@dataclass(frozen=True)
class ScalarResult:
    value: float
    error_estimate: float
    magnitude: float  # the integral of |f|
    evaluations: int


def integrate_adaptive(f, tol):
    """The scalar adaptive rule over [0, inf): while the summed estimate
    misses max(tol, ROUND_OFF magnitude), every panel but those with the
    smallest estimates (together at most half that budget) is bisected."""

    def panel_sums(nodes, weights, gauss_weights):
        values = f(nodes)
        weighted = values * weights
        kronrod = weighted.sum(axis=-1)
        gauss = (values[:, 1::2] * gauss_weights).sum(axis=-1)
        return kronrod, np.abs(kronrod - gauss), np.abs(weighted).sum(axis=-1)

    tables = specfun._initial_panels()
    sums, errors, mags = panel_sums(*tables)
    evaluations = tables[0].size
    edges = np.linspace(0.0, 1.0, specfun.INITIAL_PANELS + 1)
    panels = np.stack([edges[:-1], edges[1:]])
    while True:
        result = ScalarResult(float(sums.sum()), float(errors.sum()), float(mags.sum()),
                              evaluations)
        budget = max(tol, specfun.ROUND_OFF * result.magnitude)
        if math.isfinite(result.value) and result.error_estimate <= budget:
            return result
        order = np.argsort(errors)
        kept = np.cumsum(errors[order]) <= budget / 2.0
        keep, split = order[kept], order[~kept]
        if not len(split) or panels.shape[1] + len(split) > specfun.PANEL_LIMIT:
            raise specfun.QuadratureConvergenceError("reference pass did not converge", None)
        lo, hi = panels[:, split]
        mid = (lo + hi) / 2.0
        children = np.stack([np.concatenate([lo, mid]), np.concatenate([mid, hi])])
        tables = specfun._kronrod_panels(*children)
        new_sums, new_errors, new_mags = panel_sums(*tables)
        evaluations += tables[0].size
        panels = np.concatenate([panels[:, keep], children], axis=1)
        sums = np.concatenate([sums[keep], new_sums])
        errors = np.concatenate([errors[keep], new_errors])
        mags = np.concatenate([mags[keep], new_mags])


def spectral_passes(alpha, model, tol):
    """The Langevin and the light pass over the half-line, each at tol / 2;
    the variance parts are twice their values.  alpha > 0."""

    def langevin(x):
        q = 1.0 + x * x
        return -np.expm1(-2.0 * alpha / q) / (2.0 * math.pi * alpha)

    def light(x):
        q = 1.0 + x * x
        a = alpha / q
        half_b = np.sin(0.5 * a * x)
        mod_sq = np.expm1(-a) ** 2 + 4.0 * np.exp(-a) * half_b * half_b
        return model.spectral_density(x) * (mod_sq / (2.0 * math.pi * alpha))

    return integrate_adaptive(langevin, tol / 2), integrate_adaptive(light, tol / 2)
