"""Dense reference of the grid oracle: the full influence-coefficient
matrices stepped one by one, O(ntau nz^3).

It shares the discretization (nodes, weights, per-step rates, the constants
of one step, the input correlator and the table assembly) with
``spinmap.dynamics`` and builds every step operator as a matrix with
``dynamics.expm``, so it checks the contracted propagator's algebra: the
grouping into runs, the closed-form rows and columns at summed areas, the
Langevin Gramians and the light variance.
"""

import math

import numpy as np

from spinmap import dynamics


def step_operators(disc):
    """(M, v_inj, lang) per distinct rate: the one-step flow, the injection
    vector of an input cell and the Langevin covariance one step adds."""
    nz, dz, dt, w = disc.nz, disc.dz, disc.dt, disc.w
    ops = {}
    for rate in dict.fromkeys(disc.rates.tolist()):
        hl = dynamics.expm(rate * disc.s_lang, nz, dz)
        ops[rate] = (
            disc.d * dynamics.expm(rate * dt, nz, dz),
            disc.phi * math.sqrt(rate) * dynamics.expm(rate * disc.s_field, nz, dz).sum(axis=1),
            disc.lang_amp * (hl * (1.0 / w)) @ hl.T,
        )
    return ops


def dense_table(medium, drive, grid, model) -> dynamics.KernelTable:
    disc = dynamics._Discretization(medium, drive, grid)
    w, rates, dt = disc.w, disc.rates, disc.dt
    if model.kind == "flat":
        corr = (model.x0_sq / dt) * np.eye(disc.ntau)
    else:
        corr = dynamics._cell_correlator(model, dt, disc.rho)
    ops = step_operators(disc)
    nz1, ntau = len(w), len(rates)
    sqrt_rates = np.sqrt(rates)

    c_init = np.eye(nz1)
    c_field = np.zeros((nz1, ntau))
    sig = np.zeros((nz1, nz1))

    init_weights = np.zeros((ntau + 1, nz1))
    lang_part = np.zeros(ntau + 1)
    light_part = np.zeros(ntau + 1)
    light_kernel = np.zeros((ntau + 1, ntau))
    field_pass = np.zeros((ntau, ntau))
    init_weights[0] = w

    for k in range(ntau):
        M, v_inj, lang = ops[float(rates[k])]
        # transmitted field at the current step, before injecting input k
        field_pass[k] = -sqrt_rates[k] * (w @ c_field)
        field_pass[k, k] += 1.0

        c_init = M @ c_init
        c_field = M @ c_field
        c_field[:, k] += v_inj
        sig = M @ (M @ sig).T + lang

        wf = w @ c_field
        with np.errstate(invalid="ignore", divide="ignore"):
            light_kernel[k + 1] = np.where(rates > 0, wf / (dt * sqrt_rates), 0.0)
        init_weights[k + 1] = w @ c_init
        lang_part[k + 1] = w @ sig @ w
        light_part[k + 1] = wf @ corr @ wf

        if np.max(np.abs(c_init)) > disc.coeff_bound or np.max(np.abs(c_field)) > disc.coeff_bound:
            raise dynamics.GridGrowthError(f"influence coefficients diverged at step {k + 1}")

    return disc.table(init_weights, lang_part, light_part, light_kernel, field_pass)
