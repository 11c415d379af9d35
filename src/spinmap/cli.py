"""Command-line front end: parameter ingestion, CSV emission, verification.

Every command is a function of the run configuration alone: it returns its
CSV lines and its exit code (``simulate`` also its convergence-report
lines).  ``main`` alone writes the CSV to stdout or ``--out``, then the
report to stderr, and maps exceptions to exit codes, so a run that exits 2
or 3 writes no output.  ``--tol`` overrides the ``tolerance.quad_abs`` key.

Exit codes: 0 success / all checks pass, 1 physics-check failure,
2 configuration error, 3 numerical trouble (non-convergence, growth,
overflow).

Only numpy-free modules load with this one; a command imports numpy and the
engines where it starts, so ``efficiency``, ``spectrum``, ``teleport`` and
``feasibility`` never do.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import teleport
from .config import ConfigError, RunConfig
from .model import DriveParams, MediumParams, check_feasibility, total_dephasing

EXIT_OK = 0
EXIT_PHYSICS = 1
EXIT_CONFIG = 2
EXIT_NUMERICS = 3

SIMULATE_KERNEL_LEVELS = 3  # rungs of simulate's kernel study, halved from its grid
VERIFY_KERNEL_LADDER = (100, 200, 400)
VERIFY_KERNEL_ALPHA = 0.5
VERIFY_KERNEL_TAU_MAX = 0.5
# (alpha, b) of verify's lorentzian rows: both branches of the series, b < 1,
# b = 1 (rho = 0) and b > 1
LORENTZIAN_SPECTRAL_POINTS = ((0.5, 3.0), (5.0, 1.0), (50.0, 0.5), (500.0, 50.0))
LORENTZIAN_TRANSIENT_POINTS = ((5.0, 0.5), (20.0, 3.0))
LORENTZIAN_TOL = 2e-9


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _csv(header: list[str], rows: list[list]) -> list[str]:
    return [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]


def _dimensionless_medium_drive(alpha: float, tau_max: float):
    """Unit-Gamma, unit-length stand-ins so the grid oracle runs from the
    dimensionless block alone (alpha = g in these units)."""
    medium = MediumParams(density=1.0, length=1.0, area=1.0, gamma0=1.0, wavelength=1.0)
    drive = DriveParams(g=alpha, gamma_s=0.0, tau_pulse=2.0 * tau_max)
    return medium, drive


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_efficiency(cfg: RunConfig) -> tuple[list[str], int]:
    from . import mapping

    grid = cfg["dimensionless.alpha_grid"]
    b_list = [float(b) for b in cfg["dimensionless.b_list"]]
    models = [mapping.SqueezingModel.flat(0.0)] + [
        mapping.SqueezingModel.lorentzian(gamma_q=b, s=cfg["dimensionless.s"]) for b in b_list
    ]

    header = ["alpha", "eta_flat"] + [f"eta_b{_fmt(b)}" for b in b_list]
    columns = [[eta for _, eta in mapping.efficiency_curve(grid, model)]
               for model in models]
    rows = [[float(a), *(col[i] for col in columns)] for i, a in enumerate(grid)]
    return _csv(header, rows), EXIT_OK


def cmd_spectrum(cfg: RunConfig) -> tuple[list[str], int]:
    from . import mapping

    alpha = cfg.alpha()
    model = cfg.squeezing_model()
    rows = []
    for x in cfg["dimensionless.x_grid"]:
        s0 = model.spectral_density(float(x))
        rows.append([
            float(x),
            mapping.transmitted_spectrum(alpha, float(x), s0),
            mapping.atomic_spectral_density(alpha, float(x), s0),
        ])
    return _csv(["x", "transmitted", "atomic_density"], rows), EXIT_OK


def cmd_transient(cfg: RunConfig) -> tuple[list[str], int]:
    import numpy as np

    from . import dynamics

    alpha = cfg.alpha()
    model = cfg.squeezing_model()
    area = dynamics.PulseArea.constant(alpha)  # Gamma = 1, L = 1 units
    tol = cfg["tolerance.quad_abs"]
    taus = np.linspace(0.0, cfg["transient.tau_max_gamma"], cfg["transient.points"] + 1)
    rows = []
    # the last row needs the most panels, so a table past the panel limit
    # fails before computing any other row
    for tau in taus[::-1]:
        report = dynamics.transient_variance(area, 1.0, 1.0, model, float(tau), tol=tol)
        rows.append([float(tau), report.variance_norm, report.eta])
    return _csv(["tau_gamma", "variance_norm", "eta"], rows[::-1]), EXIT_OK


def cmd_simulate(cfg: RunConfig) -> tuple[list[str], int, list[str]]:
    from . import dynamics, mapping

    model = cfg.squeezing_model()
    tau_max_gamma = cfg["grid.tau_max_gamma"]

    medium = cfg.record("medium")
    drive = cfg.record("drive")
    if medium is None or drive is None:
        medium, drive = _dimensionless_medium_drive(cfg.alpha(), tau_max_gamma)
    gamma = total_dephasing(medium, drive)
    grid = dynamics.GridSpec(nz=cfg["grid.nz"], ntau=cfg["grid.ntau"],
                             tau_max=tau_max_gamma / gamma)
    if dynamics.PulseArea.from_drive(drive).max_rate() > 0.0:
        factor = 2 ** (SIMULATE_KERNEL_LEVELS - 1)
        for key in ("grid.nz", "grid.ntau"):
            if cfg[key] % factor:
                raise ConfigError(key, f"must be divisible by {factor} for the "
                                       f"{SIMULATE_KERNEL_LEVELS}-level kernel study, got {cfg[key]}")
        # the study's coarsest rung is the first grid to break a stability
        # bound, so it runs before the grid oracle
        study = dynamics.light_kernel_convergence(medium, drive, grid,
                                                  levels=SIMULATE_KERNEL_LEVELS)
        report = ["convergence report (light kernel vs analytic, L2 relative):"]
        for (snz, sntau), err in zip(study.sizes, study.errors):
            report.append(f"  nz={snz} ntau={sntau} rel_l2={_fmt(err)}")
        for i, order in enumerate(study.orders):
            report.append(f"  order level {i}->{i + 1}: {_fmt(order)}")
    else:
        report = ["convergence report: coupling off, kernel study skipped"]

    table, _report = dynamics.simulate_grid(medium, drive, grid, model)
    rows = [
        [float(t * gamma), float(v), float(e)]
        for t, v, e in zip(
            table.tau,
            table.variance_trace,
            [mapping.eta_from_variance(v, model.noise_floor) for v in table.variance_trace],
        )
    ]
    return _csv(["tau_gamma", "variance_norm", "eta"], rows), EXIT_OK, report


def cmd_teleport(cfg: RunConfig) -> tuple[list[str], int]:
    bs = teleport.coupling_r(cfg["teleport.alpha_pulse"], threshold=cfg["teleport.r_threshold"])
    budget = teleport.readout_noise_budget(bs.r, cfg["teleport.epr_residual"])
    rows = [[
        bs.r, bs.valid, bs.epr_requirement, bs.commutator_defect,
        budget.epr_residual, budget.passes, budget.residual_over_r,
        budget.classical_baseline,
    ]]
    header = ["r", "valid", "epr_requirement", "commutator_defect",
              "epr_residual", "budget_pass", "residual_over_r", "classical_baseline"]
    return _csv(header, rows), EXIT_OK


def cmd_feasibility(cfg: RunConfig) -> tuple[list[str], int]:
    medium, drive, physics = (cfg.record(block, required=True)
                              for block in ("medium", "drive", "physics"))
    fresnel = (cfg["feasibility.fresnel_min"], cfg["feasibility.fresnel_max"])
    report = check_feasibility(medium, drive, physics, ratio=cfg["feasibility.ratio"],
                               fresnel_range=fresnel)
    rows = [
        [c.name, c.left, c.right, c.required_ratio, c.passed]
        for c in report.conditions
    ]
    rows.append(["overall", math.nan, math.nan, math.nan, report.overall])
    lines = _csv(["condition", "left", "right", "required_ratio", "pass"], rows)
    return lines, EXIT_OK if report.overall else EXIT_PHYSICS


def _verify_checks(cfg: RunConfig):
    import numpy as np

    from . import dynamics, mapping

    tol = cfg["tolerance.quad_abs"]
    checks = []

    def add(name, detail, value, reference, tolerance):
        error = abs(value - reference)
        checks.append((name, detail, value, reference, error, tolerance, error <= tolerance))

    # closed-form vacuum fixed point
    for alpha in (0.0, 0.5, 5.0, 50.0, 500.0):
        add("closed_vacuum", f"alpha={_fmt(alpha)}",
            mapping.variance_closed(alpha, 1.0).variance_norm, 1.0, 1e-12)

    # spectral engine against the closed form, squeezed and vacuum input
    for alpha in (0.1, 1.0, 10.0, 60.0):
        closed = mapping.variance_closed(alpha, 0.0).variance_norm
        spectral = mapping.variance_spectral(alpha, mapping.SqueezingModel.flat(0.0), tol=tol)
        add("spectral_vs_closed", f"alpha={_fmt(alpha)}",
            spectral.variance_norm, closed, 1e-6 * closed)
    for alpha in (0.5, 5.0, 50.0, 500.0):
        spectral = mapping.variance_spectral(alpha, mapping.SqueezingModel.flat(1.0), tol=tol)
        add("spectral_vacuum", f"alpha={_fmt(alpha)}", spectral.variance_norm, 1.0, 1e-6)

    # lorentzian input: the closed-form series against the spectral engine and
    # against the transient engine's steady state at Gamma tau = 20 (e^{-40}
    # of the transient left), ideal squeezing; both engines hold each of their
    # two parts to tolerance.quad_abs, 1e-9 by default, so LORENTZIAN_TOL is
    # their budget at the default (measured: <= 3e-14 at every tolerance.quad_abs
    # from 1e-3 to 1e-16)
    for alpha, b in LORENTZIAN_SPECTRAL_POINTS:
        model = mapping.SqueezingModel.lorentzian(b, s=1.0)
        add("lorentzian_spectral", f"alpha={_fmt(alpha)} b={_fmt(b)}",
            mapping.variance_spectral(alpha, model, tol=tol).variance_norm,
            1.0 - mapping.eta_lorentzian(alpha, b), LORENTZIAN_TOL)
    for alpha, b in LORENTZIAN_TRANSIENT_POINTS:
        model = mapping.SqueezingModel.lorentzian(b, s=1.0)
        rep = dynamics.transient_variance(dynamics.PulseArea.constant(alpha), 1.0, 1.0, model,
                                          20.0, tol=tol)
        add("lorentzian_transient", f"alpha={_fmt(alpha)} b={_fmt(b)}", rep.variance_norm,
            1.0 - mapping.eta_lorentzian(alpha, b), LORENTZIAN_TOL)

    # transient engine: steady state and vacuum passthrough
    for alpha in (1.0, 10.0):
        area = dynamics.PulseArea.constant(alpha)
        closed = mapping.variance_closed(alpha, 0.0).variance_norm
        rep = dynamics.transient_variance(area, 1.0, 1.0, mapping.SqueezingModel.flat(0.0), 10.0,
                                          tol=tol)
        add("transient_steady", f"alpha={_fmt(alpha)}", rep.variance_norm, closed, 1e-3)
    for tau in (0.3, 3.0):
        rep = dynamics.transient_variance(dynamics.PulseArea.constant(10.0), 1.0, 1.0,
                                          mapping.SqueezingModel.flat(1.0), tau, tol=tol)
        add("transient_vacuum", f"tau_gamma={_fmt(tau)}", rep.variance_norm, 1.0, 1e-8)

    # grid oracle: vacuum passthrough at the configured grid
    tau_max = cfg["grid.tau_max_gamma"]
    for alpha in (0.5, 5.0):
        medium, drive = _dimensionless_medium_drive(alpha, tau_max)
        table, _ = dynamics.simulate_grid(
            medium, drive,
            dynamics.GridSpec(nz=cfg["grid.nz"], ntau=cfg["grid.ntau"], tau_max=tau_max),
            mapping.SqueezingModel.flat(1.0),
        )
        worst = float(np.max(np.abs(table.variance_trace - 1.0)))
        add("grid_vacuum", f"alpha={_fmt(alpha)}", 1.0 + worst, 1.0, 5e-3)

    # grid oracle: light-kernel convergence ladder
    medium, drive = _dimensionless_medium_drive(VERIFY_KERNEL_ALPHA, VERIFY_KERNEL_TAU_MAX)
    grid = dynamics.GridSpec(nz=VERIFY_KERNEL_LADDER[-1], ntau=VERIFY_KERNEL_LADDER[-1],
                             tau_max=VERIFY_KERNEL_TAU_MAX)
    study = dynamics.light_kernel_convergence(medium, drive, grid, levels=len(VERIFY_KERNEL_LADDER))
    add("grid_kernel", "monotone_decrease", float(study.monotone), 1.0, 0.0)
    for i, order in enumerate(study.orders):
        add("grid_kernel", f"order_{i}", order, dynamics.KERNEL_CONVERGENCE_ORDER, 0.2)
    add("grid_kernel", "finest_rel_l2", study.errors[-1], 0.0, 1e-3)
    return checks


def cmd_verify(cfg: RunConfig) -> tuple[list[str], int]:
    checks = _verify_checks(cfg)
    n_pass = sum(1 for c in checks if c[-1])
    summary = ["summary", f"{n_pass}/{len(checks)}", math.nan, math.nan, math.nan,
               math.nan, n_pass == len(checks)]
    lines = _csv(["check", "detail", "value", "reference", "error", "tolerance", "pass"],
                 [*checks, summary])
    return lines, EXIT_OK if n_pass == len(checks) else EXIT_PHYSICS


# ---------------------------------------------------------------------------

COMMANDS = {
    "efficiency": cmd_efficiency,
    "spectrum": cmd_spectrum,
    "transient": cmd_transient,
    "simulate": cmd_simulate,
    "teleport": cmd_teleport,
    "feasibility": cmd_feasibility,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinmap",
        description="Light-to-collective-spin mapping engines and their verification suite.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--tol", help="override tolerance.quad_abs")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
        if args.tol is not None:
            cfg = RunConfig({**cfg.values, "tolerance.quad_abs": args.tol})
        lines, code, *report = COMMANDS[args.command](cfg)
        text = "\n".join(lines) + "\n"
        if args.out is None or args.out == "-":
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
    except ArithmeticError as exc:
        # QuadratureConvergenceError and GridGrowthError are ArithmeticErrors
        # too; an OverflowError's own text names neither the command nor the error
        sys.stderr.write(f"error: {args.command}: {type(exc).__name__}: {exc}\n")
        return EXIT_NUMERICS
    except (ValueError, OSError) as exc:
        # ConfigError, parameter-record and grid-stability violations and an
        # unwritable --out all signal a bad run configuration
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    if report:  # simulate's convergence report
        sys.stderr.write("\n".join(report[0]) + "\n")
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
