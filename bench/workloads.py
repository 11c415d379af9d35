"""Seeded workload inputs, the operations that run them, and output checks.

Every workload is a *cycle*: a list of operation records generated from a
seed.  A run repeats the cycle in a closed loop (one operation in flight at
a time).  The program under test only ever receives what a record holds:
a config file for the CLI, or engine arguments built from the numbers in
the record.

References are computed here, from scipy.special and elementary functions,
never from the package:

* the closed form A(alpha) = i0e(alpha) + i1e(alpha);
* the collective J1 light kernel for a piecewise-linear drive area;
* the vacuum fixed point, which equals 1.

Tolerances are the ones the repository's tests use (see ``TOL``).

This module imports neither numpy/scipy nor the package at import time, so
the CLI workload pays for them only inside the processes it starts.
"""

from __future__ import annotations

import cmath
import csv
import hashlib
import io
import math
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("cli-oneshot", "engine-sweep", "grid-constant", "grid-profile")

# Inputs generated from this seed are checked at the end of every run and are
# never used while tuning a change: a held-out set, the same for every run.
HELDOUT_SEED = 990_001

# Tolerances, each taken from the repository's test suite.
TOL = {
    "closed": 1e-12,             # closed-form vacuum fixed point (acceptance 2)
    "spectral_vs_closed": 1e-6,  # relative (acceptance 3)
    "transient_steady": 1e-3,    # Gamma tau >= 10 against the steady state (acceptance 4)
    "transient_vacuum": 1e-8,    # vacuum fixed point of the transient engine
    "grid_vacuum": 5e-3,         # grid oracle vacuum passthrough (acceptance 2)
    "grid_kernel": 4e-3,         # light kernel vs J1 form at n >= 100 (test_dynamics)
    "ladder_finest": 1e-3,       # finest rung of the 100/200/400 ladder (acceptance 5)
    "ladder_order": 0.2,         # |order - 1| <= 0.2 (acceptance 5)
    "bandwidth_bound": 1e-10,    # finite-bandwidth eta below flat eta (acceptance 6)
    "csv_digits": 1e-11,         # relative; the CLI prints 12 significant digits
}

VERIFY_LADDER = (100, 200, 400)   # the ladder `spinmap verify` runs
VERIFY_LADDER_ALPHA = 0.5
GRID_TAU_MAX = 0.5                # horizon of every grid op (verify's ladder horizon)
# The ladder is one fixed job in every run; under a profile it always uses
# this one (quarter breakpoints; one simple and one free power ratio).
LADDER_PROFILE = [[0.125, 1.0], [0.25, 0.5], [0.125, 0.8137]]

# Unit-Gamma, unit-length stand-ins, as the CLI uses for dimensionless runs.
UNIT_MEDIUM = dict(density=1.0, length=1.0, area=1.0, gamma0=1.0, wavelength=1.0)


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def _r(x: float, digits: int = 6) -> float:
    """Round generated numbers so config text and records stay short."""
    return float(f"{x:.{digits}g}")


def _profile_quarters(rng: random.Random) -> list[list[float]]:
    """Three-segment drive covering [0, GRID_TAU_MAX] in quarters.

    Breakpoints sit on quarter points, so every grid whose size divides by
    4 steps onto them.  One power ratio is a simple fraction, the other is
    drawn freely.
    """
    quarters = rng.choice(((1, 2, 1), (2, 1, 1), (1, 1, 2)))
    powers = [1.0, rng.choice((0.5, 0.25, 0.75)), _r(rng.uniform(0.2, 0.95), 4)]
    rng.shuffle(powers)
    return [[q * GRID_TAU_MAX / 4.0, p] for q, p in zip(quarters, powers)]


def _cli_cycle(rng: random.Random) -> list[dict]:
    ops = []
    for _ in range(2):
        b1, b2 = _r(rng.uniform(20, 80), 4), _r(rng.uniform(3, 15), 4)
        ops.append({"kind": "cli", "command": "efficiency", "config": {
            "dimensionless.alpha_grid": f"logspace:0.01:1000:{rng.choice((60, 80, 100))}",
            "dimensionless.b_list": f"{b1},{b2}",
            "dimensionless.s": str(_r(rng.uniform(0.6, 1.0), 4)),
        }})
        ops.append({"kind": "cli", "command": "spectrum", "config": {
            "dimensionless.alpha": str(_r(rng.uniform(1, 60))),
            "dimensionless.input": "flat",
            "dimensionless.x0_sq": str(_r(rng.uniform(0.0, 0.9), 4)),
            "dimensionless.x_grid": f"linspace:-30:30:{rng.choice((121, 161, 241))}",
        }})
        ops.append({"kind": "cli", "command": "transient", "config": {
            "dimensionless.alpha": str(_r(rng.uniform(1, 10))),
            "dimensionless.input": "flat",
            "dimensionless.x0_sq": str(_r(rng.uniform(0.0, 0.9), 4)),
            "transient.tau_max_gamma": "10",
            "transient.points": str(rng.choice((10, 16, 20))),
        }})
        n = rng.choice((40, 48, 56))
        ops.append({"kind": "cli", "command": "simulate", "config": {
            "dimensionless.alpha": str(_r(rng.uniform(0.3, 2.0))),
            "dimensionless.input": "flat",
            "dimensionless.x0_sq": "1",
            "grid.nz": str(n),
            "grid.ntau": str(n),
            "grid.tau_max_gamma": "1",
        }})
        ops.append({"kind": "cli", "command": "teleport", "config": {
            "teleport.alpha_pulse": str(_r(rng.uniform(0.001, 0.2))),
            "teleport.epr_residual": str(_r(rng.uniform(0.0, 0.05))),
            "teleport.r_threshold": "0.3",
        }})
        scale = rng.uniform(0.9, 1.1)
        ops.append({"kind": "cli", "command": "feasibility", "config": {
            # the shipped example set, with the cloud's area and the quantum
            # bandwidth varied inside the region where every check passes
            "medium.density_per_m3": "5.673988e15",
            "medium.length_m": "1.017e-2",
            "medium.area_m2": str(_r(8.664841e-9 * scale)),
            "medium.gamma0_per_s": "1.0",
            "medium.wavelength_m": "852e-9",
            "drive.g_per_m_per_s": "1.966588e8",
            "drive.gamma_s_per_s": "1.0e5",
            "drive.tau_pulse_s": "1.0e-2",
            "physics.omega_rad_per_s": "2.2108586470761188e15",
            "physics.delta_1photon_rad_per_s": "1.0e9",
            "physics.gamma_i_per_s": "3.27e7",
            "physics.dipole_sum_si": "4.8e-46",
            "physics.saturation": "4.0",
            "physics.gamma_q_per_s": str(_r(rng.uniform(5e6, 2e7))),
            "physics.k_mismatch_per_m": "2.0",
            "feasibility.ratio": "10",
        }})
    return ops


def _lhs(rng: random.Random, k: int, **ranges) -> list[dict]:
    """k Latin-hypercube points: each range is cut into k strata and every
    stratum holds one point.  Seeds differ in placement, never in coverage,
    so the work a cycle does hardly changes from seed to seed."""
    columns = {}
    for name, (lo, hi) in ranges.items():
        strata = list(range(k))
        rng.shuffle(strata)
        columns[name] = [_r(lo + (s + rng.random()) / k * (hi - lo), 5) for s in strata]
    return [{name: columns[name][i] for name in ranges} for i in range(k)]


def _engine_cycle(rng: random.Random) -> list[dict]:
    k = 40
    ops = [dict(kind="closed", **p) for p in _lhs(rng, k, alpha=(0.0, 500.0), x0_sq=(0.0, 1.0))]
    ops += [dict(kind="densities", **p)
            for p in _lhs(rng, k, alpha=(0.1, 100.0), x=(-30.0, 30.0), s0=(0.0, 1.0))]
    ops += [dict(kind="spectral_flat", **p) for p in _lhs(rng, k, alpha=(0.1, 60.0),
                                                          x0_sq=(0.0, 0.9))]
    ops += [dict(kind="spectral_lorentzian", **p)
            for p in _lhs(rng, k, alpha=(0.5, 60.0), b=(2.0, 60.0), s=(0.5, 1.0))]
    ops += [dict(kind="transient_flat", **p)
            for p in _lhs(rng, k, alpha=(0.5, 30.0), x0_sq=(0.05, 0.9), tau=(0.2, 6.0))]
    ops += [dict(kind="transient_profile", segments=[[d * 8.0, p] for d, p in _profile_quarters(rng)],
                 **p)
            for p in _lhs(rng, k, g=(1.0, 10.0), x0_sq=(0.05, 0.9), tau=(0.5, 5.0))]
    # Gamma tau = 10: the steady state the lorentzian check compares against
    ops += [dict(kind="transient_lorentzian", tau=10.0, **p)
            for p in _lhs(rng, 24, alpha=(1.0, 10.0), b=(2.0, 20.0), s=(0.5, 1.0))]
    rng.shuffle(ops)
    return ops


def _grid_op(rng: random.Random, n: int, model: str, alpha: float, profile: bool) -> dict:
    op = {"kind": "grid", "n": n, "alpha": alpha, "model": model,
          "segments": _profile_quarters(rng) if profile else None}
    if model == "squeezed":
        op["x0_sq"] = _r(rng.uniform(0.0, 0.9), 4)
    elif model == "lorentzian":
        op["b"] = _r(rng.uniform(1.0, 20.0), 4)
        op["s"] = _r(rng.uniform(0.5, 1.0), 4)
    return op


def _grid_cycle(rng: random.Random, profile: bool) -> list[dict]:
    models = ("vacuum", "squeezed", "lorentzian")
    ops = [_grid_op(rng, n, models[i % 3], p["alpha"], profile)
           for n, k in ((100, 20), (200, 2))
           for i, p in enumerate(_lhs(rng, k, alpha=(0.25, 0.55)))]
    ladder = {"kind": "ladder", "alpha": VERIFY_LADDER_ALPHA,
              "segments": LADDER_PROFILE if profile else None}
    rng.shuffle(ops)
    return [ladder] + ops


def generate(workload: str, seed: int) -> dict:
    """All inputs of one run: the op cycle, plus the held-out check set."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "cycle": _cycle(workload, seed),
            "heldout_seed": HELDOUT_SEED, "heldout": heldout_ops(workload)}


def _cycle(workload: str, seed: int) -> list[dict]:
    # string seeds hash stably across interpreter runs (unlike hash())
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli-oneshot":
        return _cli_cycle(rng)
    if workload == "engine-sweep":
        return _engine_cycle(rng)
    return _grid_cycle(rng, profile=workload == "grid-profile")


def heldout_ops(workload: str) -> list[dict]:
    """A few cheap ops from the held-out seed, one of each kind whose check
    compares against a tolerance rather than exactly."""
    cycle = _cycle(workload, HELDOUT_SEED)
    if workload == "cli-oneshot":
        keep = ("transient", "simulate", "efficiency")
        return [next(op for op in cycle if op["command"] == c) for c in keep]
    if workload == "engine-sweep":
        kinds = ("spectral_flat", "transient_flat", "transient_profile", "transient_lorentzian")
        return [next(op for op in cycle if op["kind"] == k) for k in kinds]
    small = [op for op in cycle if op["kind"] == "grid" and op["n"] == 100]
    return [next(op for op in small if op["model"] == m) for m in ("vacuum", "lorentzian")]


# ---------------------------------------------------------------------------
# references (scipy.special and elementary functions only)
# ---------------------------------------------------------------------------

def ref_vacuum_fraction(alpha: float) -> float:
    """A(alpha) = e^{-alpha} (I0 + I1)."""
    from scipy import special
    return float(special.i0e(alpha) + special.i1e(alpha))


def ref_closed_variance(alpha: float, x0_sq: float) -> float:
    a = ref_vacuum_fraction(alpha)
    return a + x0_sq * (1.0 - a)


def ref_transmitted(alpha: float, x: float, s0: float) -> float:
    t = math.exp(-alpha / (1.0 + x * x))
    return s0 * t + (1.0 - t)


def ref_atomic_density(alpha: float, x: float, s0: float) -> float:
    """Langevin term plus s0 |1 - e^{-alpha/(1-ix)}|^2, over 2 pi alpha."""
    q = 1.0 + x * x
    langevin = -math.expm1(-2.0 * alpha / q) / (2.0 * math.pi * alpha)
    light = abs(1.0 - cmath.exp(-alpha / complex(1.0, -x))) ** 2
    return langevin + s0 * light / (2.0 * math.pi * alpha)


def area_nodes(segments, g_const: float | None, tau):
    """Accumulated drive area at the nodes tau: piecewise linear.

    ``segments`` holds (duration, rate) pairs, the drive being off after
    the last; with ``segments`` None the rate is ``g_const`` throughout.
    """
    import numpy as np
    tau = np.asarray(tau, dtype=float)
    if segments is None:
        return g_const * tau
    area = np.zeros_like(tau)
    start = 0.0
    for duration, rate in segments:
        area += rate * np.clip(tau - start, 0.0, duration)
        start += duration
    return area


def ref_light_kernel(area, tau, gamma: float = 1.0, length: float = 1.0):
    """Collective J1 light kernel e^{-Gamma s} sqrt(L/u) J1(2 sqrt(uL)) at the
    node pairs k > kp, laid out as the grid oracle's light_kernel table."""
    import numpy as np
    from scipy import special
    tau = np.asarray(tau, dtype=float)
    n = len(tau) - 1
    kernel = np.zeros((n + 1, n))
    for k in range(1, n + 1):
        y = (area[k] - area[:k]) * length
        root = np.sqrt(np.maximum(y, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            j1_over = np.where(y < 1e-8, 1.0 - y / 2.0 + y * y / 12.0,
                               special.j1(2.0 * root) / root)
        kernel[k, :k] = np.exp(-gamma * (tau[k] - tau[:k])) * length * j1_over
    return kernel


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------

@dataclass
class Check:
    name: str
    error: float
    tol: float

    @property
    def ratio(self) -> float:
        return self.error / self.tol if math.isfinite(self.error) else math.inf

    @property
    def ok(self) -> bool:
        return self.ratio <= 1.0


@dataclass
class Outcome:
    """What one op produced: a fingerprint of its output bytes and its checks."""
    digest: str
    checks: list[Check] = field(default_factory=list)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and all(c.ok for c in self.checks)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / max(abs(ref), 1e-300)


def config_text(config: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in config.items())


class CliRunner:
    """Runs CLI ops, each in a fresh interpreter, one at a time."""

    def __init__(self, src: Path, workdir: Path, env: dict):
        self.workdir = workdir
        self.env = dict(env, PYTHONPATH=str(src))  # the checkout's package only
        self.live = 0

    def config_path(self, op: dict) -> Path:
        text = config_text(op["config"])
        path = self.workdir / f"{op['command']}-{_digest(text)[:12]}.cfg"
        if not path.exists():
            path.write_text(text, encoding="utf-8")
        return path

    def argv(self, op: dict) -> list[str]:
        return [op["command"], "--config", str(self.config_path(op))]

    def run(self, op: dict) -> tuple[int, bytes, bytes]:
        if self.live:
            raise RuntimeError("refusing to start a second CLI process while one runs")
        self.live += 1
        try:
            proc = subprocess.run([sys.executable, "-m", "spinmap.cli", *self.argv(op)],
                                  capture_output=True, env=self.env, timeout=150)
        finally:
            self.live -= 1
        return proc.returncode, proc.stdout, proc.stderr


def _table(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_cli(op: dict, code: int, out: bytes, err: bytes) -> Outcome:
    outcome = Outcome(digest=_digest(code, out, err))
    if code != 0:
        outcome.error = f"exit {code}: {err.decode(errors='replace').strip()[-300:]}"
        return outcome
    rows = _table(out.decode())
    cfg = op["config"]
    add = outcome.checks.append
    cmd = op["command"]
    if cmd == "efficiency":
        worst = 0.0
        bound = 0.0
        b_cols = [c for c in rows[0] if c.startswith("eta_b")]
        for row in rows:
            eta_flat = float(row["eta_flat"])
            worst = max(worst, _rel(eta_flat, 1.0 - ref_vacuum_fraction(float(row["alpha"]))))
            for col in b_cols:
                bound = max(bound, float(row[col]) - eta_flat)
        add(Check("efficiency.closed", worst, TOL["csv_digits"]))
        add(Check("efficiency.bandwidth_bound", max(bound, 0.0), TOL["bandwidth_bound"]))
    elif cmd == "spectrum":
        alpha, s0 = float(cfg["dimensionless.alpha"]), float(cfg["dimensionless.x0_sq"])
        worst_t = worst_d = 0.0
        for row in rows:
            x = float(row["x"])
            worst_t = max(worst_t, _rel(float(row["transmitted"]), ref_transmitted(alpha, x, s0)))
            worst_d = max(worst_d, _rel(float(row["atomic_density"]),
                                        ref_atomic_density(alpha, x, s0)))
        add(Check("spectrum.transmitted", worst_t, TOL["csv_digits"]))
        add(Check("spectrum.atomic_density", worst_d, TOL["csv_digits"]))
    elif cmd == "transient":
        alpha, x0_sq = float(cfg["dimensionless.alpha"]), float(cfg["dimensionless.x0_sq"])
        add(Check("transient.initial_vacuum", abs(float(rows[0]["variance_norm"]) - 1.0),
                  TOL["closed"]))
        add(Check("transient.steady", abs(float(rows[-1]["variance_norm"])
                                          - ref_closed_variance(alpha, x0_sq)),
                  TOL["transient_steady"]))
    elif cmd == "simulate":
        worst = max(abs(float(r["variance_norm"]) - 1.0) for r in rows)
        add(Check("simulate.vacuum", worst, TOL["grid_vacuum"]))
        errors = [float(line.rsplit("rel_l2=", 1)[1])
                  for line in err.decode().splitlines() if "rel_l2=" in line]
        decreasing = len(errors) == 3 and all(a > b for a, b in zip(errors, errors[1:]))
        add(Check("simulate.ladder_monotone", 0.0 if decreasing else 1.0, 0.5))
    elif cmd == "teleport":
        row = rows[0]
        r = math.sqrt(float(cfg["teleport.alpha_pulse"]))
        add(Check("teleport.r", _rel(float(row["r"]), r), TOL["csv_digits"]))
        add(Check("teleport.commutator_defect",
                  _rel(float(row["commutator_defect"]), r * r), 1e-9))
        valid = (row["valid"] == "true") == (r <= float(cfg["teleport.r_threshold"]))
        add(Check("teleport.valid_flag", 0.0 if valid else 1.0, 0.5))
    elif cmd == "feasibility":
        table = {row["condition"]: row for row in rows}
        fresnel = (float(cfg["medium.area_m2"])
                   / (float(cfg["medium.wavelength_m"]) * float(cfg["medium.length_m"])))
        add(Check("feasibility.fresnel",
                  _rel(float(table["fresnel number near unity"]["left"]), fresnel),
                  TOL["csv_digits"]))
        add(Check("feasibility.overall", 0.0 if table["overall"]["pass"] == "true" else 1.0, 0.5))
    return outcome


def _noise(report) -> tuple:
    return (report.variance_norm, report.eta, report.atom_langevin_part, report.light_part)


def run_engine(sm, op: dict):
    """One engine-sweep op; returns the raw engine output."""
    kind = op["kind"]
    if kind == "closed":
        return sm.mapping.variance_closed(op["alpha"], op["x0_sq"])
    if kind == "densities":
        return (sm.mapping.transmitted_spectrum(op["alpha"], op["x"], op["s0"]),
                sm.mapping.atomic_spectral_density(op["alpha"], op["x"], op["s0"]))
    if kind == "spectral_flat":
        return sm.mapping.variance_spectral(op["alpha"], sm.SqueezingModel.flat(op["x0_sq"]))
    if kind == "spectral_lorentzian":
        return sm.mapping.variance_spectral(
            op["alpha"], sm.SqueezingModel.lorentzian(op["b"], s=op["s"]))
    if kind == "transient_flat":
        return sm.dynamics.transient_variance(
            sm.PulseArea.constant(op["alpha"]), 1.0, 1.0,
            sm.SqueezingModel.flat(op["x0_sq"]), op["tau"])
    if kind == "transient_profile":
        ends, t = [], 0.0
        for duration, _ in op["segments"]:
            t += duration
            ends.append(t)
        area = sm.PulseArea(tuple(ends), tuple(op["g"] * p for _, p in op["segments"]), 0.0)
        return sm.dynamics.transient_variance(area, 1.0, 1.0,
                                              sm.SqueezingModel.flat(op["x0_sq"]), op["tau"])
    if kind == "transient_lorentzian":
        return sm.dynamics.transient_variance(
            sm.PulseArea.constant(op["alpha"]), 1.0, 1.0,
            sm.SqueezingModel.lorentzian(op["b"], s=op["s"]), op["tau"])
    raise ValueError(f"unknown engine op {kind!r}")


def check_engine(sm, op: dict, out) -> Outcome:
    kind = op["kind"]
    values = out if kind == "densities" else _noise(out)
    outcome = Outcome(digest=_digest(values))
    add = outcome.checks.append
    if kind == "closed":
        add(Check("closed", abs(out.variance_norm - ref_closed_variance(op["alpha"], op["x0_sq"])),
                  TOL["closed"]))
    elif kind == "densities":
        add(Check("densities.transmitted",
                  _rel(out[0], ref_transmitted(op["alpha"], op["x"], op["s0"])), 1e-12))
        add(Check("densities.atomic",
                  _rel(out[1], ref_atomic_density(op["alpha"], op["x"], op["s0"])), 1e-12))
    elif kind == "spectral_flat":
        add(Check("spectral_vs_closed",
                  _rel(out.variance_norm, ref_closed_variance(op["alpha"], op["x0_sq"])),
                  TOL["spectral_vs_closed"]))
    elif kind == "spectral_lorentzian":
        eta_flat = 1.0 - ref_vacuum_fraction(op["alpha"])
        add(Check("spectral.bandwidth_bound", max(out.eta - eta_flat, 0.0),
                  TOL["bandwidth_bound"]))
    elif kind in ("transient_flat", "transient_profile"):
        # flat input enters linearly: atom part + light part / x0^2 is the
        # variance for vacuum input, which is exactly 1
        vacuum = out.atom_langevin_part + out.light_part / op["x0_sq"]
        add(Check("transient.vacuum_fixed_point", abs(vacuum - 1.0), TOL["transient_vacuum"]))
    elif kind == "transient_lorentzian":
        steady = sm.mapping.variance_spectral(
            op["alpha"], sm.SqueezingModel.lorentzian(op["b"], s=op["s"]))
        add(Check("transient.steady_vs_spectral", abs(out.variance_norm - steady.variance_norm),
                  TOL["transient_steady"]))
    return outcome


def grid_inputs(sm, op: dict, n: int):
    medium = sm.MediumParams(**UNIT_MEDIUM)
    if op["segments"] is None:
        drive = sm.DriveParams(g=op["alpha"], gamma_s=0.0, tau_pulse=2.0 * GRID_TAU_MAX)
    else:
        drive = sm.DriveParams(g=op["alpha"], gamma_s=0.0, tau_pulse=GRID_TAU_MAX,
                               profile=tuple(map(tuple, op["segments"])))
    return medium, drive, sm.GridSpec(nz=n, ntau=n, tau_max=GRID_TAU_MAX)


def grid_model(sm, op: dict):
    if op["model"] == "vacuum":
        return sm.SqueezingModel.flat(1.0)
    if op["model"] == "squeezed":
        return sm.SqueezingModel.flat(op["x0_sq"])
    return sm.SqueezingModel.lorentzian(op["b"], s=op["s"])


def run_grid(sm, op: dict):
    if op["kind"] == "ladder":
        medium, drive, grid = grid_inputs(sm, op, VERIFY_LADDER[-1])
        return sm.dynamics.light_kernel_convergence(medium, drive, grid, levels=len(VERIFY_LADDER))
    medium, drive, grid = grid_inputs(sm, op, op["n"])
    table, _ = sm.dynamics.simulate_grid(medium, drive, grid, grid_model(sm, op))
    return table


def _segment_rates(op: dict):
    if op["segments"] is None:
        return None
    return [(d, op["alpha"] * p) for d, p in op["segments"]]


def check_grid(sm, op: dict, out) -> Outcome:
    import numpy as np
    if op["kind"] == "ladder":
        outcome = Outcome(digest=_digest(out.errors, out.orders))
        add = outcome.checks.append
        monotone = all(a > b for a, b in zip(out.errors, out.errors[1:]))
        add(Check("ladder.monotone", 0.0 if monotone else 1.0, 0.5))
        for i, order in enumerate(out.orders):
            add(Check(f"ladder.order_{i}", abs(order - 1.0), TOL["ladder_order"]))
        add(Check("ladder.finest_rel_l2", out.errors[-1], TOL["ladder_finest"]))
        return outcome
    outcome = Outcome(digest=_digest(out.variance_trace.tobytes(), out.light_kernel.tobytes()))
    add = outcome.checks.append
    if op["model"] == "vacuum":
        add(Check("grid.vacuum", float(np.max(np.abs(out.variance_trace - 1.0))),
                  TOL["grid_vacuum"]))
    area = area_nodes(_segment_rates(op), op["alpha"], out.tau)
    ref = ref_light_kernel(area, out.tau)
    err = float(np.linalg.norm(out.light_kernel - ref) / np.linalg.norm(ref))
    add(Check("grid.light_kernel_j1", err, TOL["grid_kernel"]))
    return outcome


def distinct_segment_rates(drive, tau_max: float) -> int:
    """Distinct drive rates over [0, tau_max], from the generated drive."""
    profile = drive.profile or ((drive.tau_pulse, 1.0),)
    rates, start = set(), 0.0
    for duration, power in profile:
        if start < tau_max:
            rates.add(drive.g * power)
        start += duration
    if start < tau_max:
        rates.add(0.0)
    return len(rates)
