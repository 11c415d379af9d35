"""References of the grid oracle.

``dense_table`` steps the full influence-coefficient matrices one by one,
O(ntau nz^3).  It shares the discretization (nodes, weights, per-step
rates, the constants of one step, the input correlator and the table
assembly) with ``spinmap.dynamics`` and builds every step operator as a matrix with
``dynamics.expm``, so it checks the contracted propagator's algebra: the
grouping into runs, the closed-form rows and columns at summed areas, the
Langevin Gramians and the light variance.

``propagate`` is the contracted pass as it stood before its fixed cost per
call was cut, with the helpers that changed with it (the Laguerre symbols,
the running sums down the rows, the first columns, the Toeplitz view and
the Gramians' diagonal sums): two first-column calls over a symbol table
that keeps each run's Langevin part in run order, an ``as_strided`` view
per Toeplitz block, one d^q table per part and the growth check one origin
at a time.  The library's pass must return exactly its floats.
"""

import itertools
import math

import numpy as np

from spinmap import dynamics
from spinmap.dynamics import GridGrowthError, _outside, _row_norms, _rows


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
    init_weights[0] = w

    for k in range(ntau):
        M, v_inj, lang = ops[float(rates[k])]
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

    return disc.table(init_weights, lang_part, light_part, light_kernel)


def _symbols(t: np.ndarray, nz: int) -> np.ndarray:
    """Symbol coefficients e_k = e^{-t/2} L_k^{(-1)}(t), k < nz, of exp(-x T)
    at t = x dz, one column per entry of t.

    The generalized Laguerre polynomials follow their three-term recurrence
    (k + 1) e_{k+1} = (2k - t) e_k - (k - 1) e_{k-1}.  With e_k = mu_k f_k,
    mu_k = 1/k for odd k and 2/k for even k, it reads
    f_{k+1} = v_k f_k - f_{k-1}, v_k = 1 - t/(2k) (k odd), 4 - 2t/k (k even),
    for k >= 2: two vector operations per k, vectorized over t, with v_k
    held in the row the recurrence is about to fill.
    """
    e = np.empty((nz, t.size))
    e[0] = np.exp(-t / 2.0)
    np.multiply(-t, e[0], out=e[1])
    if nz > 2:
        np.multiply(1.0 - t / 2.0, e[1], out=e[2])
        k = np.arange(2.0, nz - 1.0)
        odd = k % 2 == 1
        np.multiply.outer(np.where(odd, -0.5, -2.0) / k, t, out=e[3:])
        e[3:] += np.where(odd, 1.0, 4.0)[:, None]
        f = list(e)
        for i in range(2, nz - 1):
            np.multiply(f[i + 1], f[i], out=f[i + 1])
            np.subtract(f[i + 1], f[i - 1], out=f[i + 1])
        k = np.arange(3.0, nz)
        e[3:] *= (np.where(k % 2 == 1, 1.0, 2.0) / k)[:, None]
    return e


def _running_sums(a: np.ndarray, sign: float = 1.0) -> np.ndarray:
    """a_i + sign a_{i-1} + sign^2 a_{i-2} + ... down the rows, in place.
    One vector operation per row (numpy's cumulative sum down the rows is
    several times slower on these tables)."""
    step = np.add if sign > 0 else np.subtract
    rows = list(a) if a.size else []
    for i in range(1, len(rows)):
        step(rows[i], rows[i - 1], out=rows[i])
    return a


def _first_column(e: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The first column of exp(-x T), one column per column of the symbol
    table e: 1 at node 0, then at nodes 1..nz the series (E(y) - 1) / (1 + y),
    c_i = e_i - c_{i-1} from c_0 = expm1(-t/2)."""
    out = np.empty((len(e) + 1, e.shape[1]))
    out[0] = 1.0
    out[2:] = e[1:]
    out[1] = np.expm1(-t / 2.0)
    _running_sums(out[1:], -1.0)
    return out


def _toeplitz(column: np.ndarray, row: np.ndarray | None = None) -> np.ndarray:
    """The Toeplitz matrix with this first column and first row (row[0] is
    ignored; symmetric when row is omitted): a read-only strided view of its
    diagonals, for the caller to copy or assign from."""
    row = column if row is None else row
    # entry (i, j) is diagonals[len(row) - 1 + i - j]
    diagonals = np.concatenate((row[:0:-1], column))
    step = diagonals.strides[0]
    return np.lib.stride_tricks.as_strided(diagonals[len(row) - 1:], shape=(len(column), len(row)),
                                           strides=(step, -step), writeable=False)


def _diagonal_cumsum(p: np.ndarray) -> np.ndarray:
    """q[i, l] = sum_{m <= min(i, l)} p[i - m, l - m]: each diagonal summed
    from the top-left corner, in place, by q[i, l] = p[i, l] + q[i-1, l-1].
    One vector operation per row, as in ``_running_sums``."""
    rows = list(p)
    for i in range(1, len(rows)):
        np.add(rows[i][1:], rows[i - 1][:-1], out=rows[i][1:])
    return p


def propagate(disc, langevin: bool = True):
    """``_Discretization.propagate`` as it stood before its fixed cost per
    call was cut, for the discretization disc: the light-kernel table and,
    with ``langevin``, the initial weights and the Langevin part of every
    node; the library's pass must return exactly these floats, and raise
    GridGrowthError at the same step."""
    dt, dz, d, nz, ntau, w = disc.dt, disc.dz, disc.d, disc.nz, disc.ntau, disc.w
    runs = disc.runs
    origins = ([0] if langevin else []) + [stop for _, stop, _ in runs[:-1]]
    steps = [np.arange(stop - start) * dt for start, stop, _ in runs]
    parts = [disc.node_t[o:] - disc.node_t[o] for o in origins]
    if langevin:
        parts += [rate * (q + disc.s_lang) * dz for q, (_, _, rate) in zip(steps, runs)]
    parts += [rate * (q + disc.s_field) * dz if rate > 0 else q[:0]
              for q, (_, _, rate) in zip(steps, runs)]
    t = np.concatenate(parts)
    e = _symbols(t, nz)
    edges = np.cumsum([0, *map(len, parts)])
    blocks = [slice(a, b) for a, b in itertools.pairwise(edges)]
    n_rows, n_lang = len(origins), len(runs) if langevin else 0
    row_blocks = blocks[:n_rows]
    lang_blocks = blocks[n_rows:n_rows + n_lang]
    field_blocks = blocks[n_rows + n_lang:]

    def powers(b):  # d^q for the q-th area of part b
        return d ** np.arange(b.stop - b.start)

    def part(table, b, group):  # part b's columns in a table of a group of parts
        return table[:, b.start - group.start:b.stop - group.start]

    # the runs a later node follows are all but the last, whose field and
    # Langevin parts come last in their groups; the last run's field part
    # is the one the running sums leave raw
    followed = slice(field_blocks[0].start, edges[-2])
    lang_followed = slice(edges[n_rows], lang_blocks[-1].start if langevin else edges[n_rows])
    sums = [(dz * np.arange(nz, 0, -1.0)) @ e[:, b] for b in field_blocks]  # w exp(-y T) 1
    cols = _first_column(e[:, followed], t[followed])  # exp(-y T) 1 once h is added
    lang_symbols = e[:, lang_followed].copy()
    lang_firsts = _first_column(lang_symbols, t[lang_followed])
    h = _running_sums(e[:, :edges[-2]])
    cols[1:] += h[:, followed]  # the first column plus the Toeplitz row sums
    row_table = _rows(h[:, :edges[n_rows]], dz)
    row_table *= np.concatenate([np.empty(0), *map(powers, row_blocks)])[:, None]
    rows = {o: row_table[b] for o, b in zip(origins, row_blocks)}
    lang = []
    for (_, stop, _), b in zip(runs, lang_blocks):
        scale = powers(b)
        g = _row_norms(h[:, b], dz) * (scale * scale)
        if stop == ntau:
            lang.append((g, None, None))
            continue
        symbols = part(lang_symbols, b, lang_followed)
        firsts = part(lang_firsts, b, lang_followed)
        symbols *= scale
        firsts *= scale
        lang.append((g, symbols, firsts))
    field = []
    for (_, stop, _), b, s in zip(runs, field_blocks, sums):
        scale = (disc.phi / dt) * powers(b)
        s *= scale
        c = None
        if stop < ntau:
            c = part(cols, b, followed)
            c *= scale
        field.append((s, c))
    del e, h

    kernel = np.zeros((ntau + 1, ntau))
    bad = np.zeros(ntau + 1, dtype=bool)
    bound = disc.coeff_bound * disc.length
    for (start, stop, rate), (s, c) in zip(runs, field):
        if rate == 0:
            continue
        factor = dt * math.sqrt(rate)  # from kernel entries to field weights
        kernel[start + 1:stop + 1, start:stop] = _toeplitz(s, np.zeros(stop - start))
        # row start + 1 + i of the Toeplitz block holds s[i], ..., s[0] and zeros
        bad[start + 1:stop + 1] |= _outside(np.maximum.accumulate(s) * factor,
                                            np.minimum.accumulate(s) * factor, bound)
        if stop < ntau:
            block = kernel[stop + 1:, start:stop]
            block[...] = rows[stop][1:] @ c[:, ::-1]
            bad[stop + 1:] |= _outside(block.max(axis=1) * factor,
                                       block.min(axis=1) * factor, bound)
    sample = disc.coeff_bound * w  # the end nodes' half weights get half the bound
    for o, r in rows.items():
        inner = r[:, 1:-1]
        bad[o:] |= (_outside(inner.max(axis=1), inner.min(axis=1), sample[1])
                    | _outside(r[:, 0], r[:, 0], sample[0])
                    | _outside(r[:, -1], r[:, -1], sample[-1]))
    if bad.any():
        raise GridGrowthError(f"influence coefficients diverged at step {np.argmax(bad)}")
    if not langevin:
        return kernel, None, None

    lang_part = np.zeros(ntau + 1)
    for (start, stop, _), (g, s, c) in zip(runs, lang):
        lang_part[start + 1:stop + 1] += np.cumsum(g)
        if stop < ntau:
            row = rows[stop][1:]
            gram = _diagonal_cumsum(s @ s.T)
            gram /= dz
            gram[-1, -1] += gram[0, 0]  # the last node's half weight
            first = row @ c
            first *= first
            lang_part[stop + 1:] += (np.sum(first, axis=1) / w[0]
                                     + np.einsum("ij,ij->i", row[:, 1:] @ gram, row[:, 1:]))
    return kernel, rows[0], disc.lang_amp * lang_part
