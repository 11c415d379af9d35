"""Command-line front end: parameter ingestion, CSV emission, verification.

Every command is a function of the run configuration alone: it returns its
CSV lines and its exit code (``simulate`` also its convergence-report
lines).  ``main`` alone writes the CSV to stdout or ``--out``, then the
report to stderr, and maps exceptions to exit codes, so a run that exits 2
or 3 writes no output.  ``--tol`` overrides the ``tolerance.quad_abs`` key.

Exit codes: 0 success / all checks pass, 1 physics-check failure,
2 configuration error, 3 numerical trouble (non-convergence, growth,
overflow).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import dynamics, mapping, teleport
from .config import RunConfig
from .dynamics import GridGrowthError, GridSpec, PulseArea
from .model import DriveParams, MediumParams, check_feasibility, total_dephasing
from .specfun import QuadratureConvergenceError

EXIT_OK = 0
EXIT_PHYSICS = 1
EXIT_CONFIG = 2
EXIT_NUMERICS = 3

VERIFY_KERNEL_LADDER = (100, 200, 400)
VERIFY_KERNEL_ALPHA = 0.5
VERIFY_KERNEL_TAU_MAX = 0.5


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
    grid = cfg["dimensionless.alpha_grid"]
    tol = cfg["tolerance.quad_abs"]
    b_list = [float(b) for b in cfg["dimensionless.b_list"]]
    models = [mapping.SqueezingModel.flat(0.0)] + [
        mapping.SqueezingModel.lorentzian(gamma_q=b, s=cfg["dimensionless.s"]) for b in b_list
    ]

    header = ["alpha", "eta_flat"] + [f"eta_b{_fmt(b)}" for b in b_list]
    columns = [[eta for _, eta in mapping.efficiency_curve(grid, model, tol=tol)]
               for model in models]
    rows = [[float(a), *(col[i] for col in columns)] for i, a in enumerate(grid)]
    return _csv(header, rows), EXIT_OK


def cmd_spectrum(cfg: RunConfig) -> tuple[list[str], int]:
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
    alpha = cfg.alpha()
    model = cfg.squeezing_model()
    area = PulseArea.constant(alpha)  # Gamma = 1, L = 1 units
    tol = cfg["tolerance.quad_abs"]
    rows = []
    for tau in np.linspace(0.0, cfg["transient.tau_max_gamma"], cfg["transient.points"] + 1):
        report = dynamics.transient_variance(area, 1.0, 1.0, model, float(tau), tol=tol)
        rows.append([float(tau), report.variance_norm, report.eta])
    return _csv(["tau_gamma", "variance_norm", "eta"], rows), EXIT_OK


def cmd_simulate(cfg: RunConfig) -> tuple[list[str], int, list[str]]:
    model = cfg.squeezing_model()
    tau_max_gamma = cfg["grid.tau_max_gamma"]

    medium = cfg.record("medium")
    drive = cfg.record("drive")
    if medium is None or drive is None:
        medium, drive = _dimensionless_medium_drive(cfg.alpha(), tau_max_gamma)
    gamma = total_dephasing(medium, drive)
    grid = GridSpec(nz=cfg["grid.nz"], ntau=cfg["grid.ntau"], tau_max=tau_max_gamma / gamma)

    table, _report = dynamics.simulate_grid(medium, drive, grid, model)
    rows = [
        [float(t * gamma), float(v), float(e)]
        for t, v, e in zip(
            table.tau,
            table.variance_trace,
            [mapping.eta_from_variance(v, model.noise_floor) for v in table.variance_trace],
        )
    ]
    lines = _csv(["tau_gamma", "variance_norm", "eta"], rows)

    if PulseArea.from_drive(drive).max_rate() == 0.0:
        return lines, EXIT_OK, ["convergence report: coupling off, kernel study skipped"]
    study = dynamics.light_kernel_convergence(medium, drive, grid, levels=3)
    report = ["convergence report (light kernel vs analytic, L2 relative):"]
    for (snz, sntau), err in zip(study.sizes, study.errors):
        report.append(f"  nz={snz} ntau={sntau} rel_l2={_fmt(err)}")
    for i, order in enumerate(study.orders):
        report.append(f"  order level {i}->{i + 1}: {_fmt(order)}")
    return lines, EXIT_OK, report


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

    # transient engine: steady state and vacuum passthrough
    for alpha in (1.0, 10.0):
        area = PulseArea.constant(alpha)
        closed = mapping.variance_closed(alpha, 0.0).variance_norm
        rep = dynamics.transient_variance(area, 1.0, 1.0, mapping.SqueezingModel.flat(0.0), 10.0)
        add("transient_steady", f"alpha={_fmt(alpha)}", rep.variance_norm, closed, 1e-3)
    for tau in (0.3, 3.0):
        rep = dynamics.transient_variance(
            PulseArea.constant(10.0), 1.0, 1.0, mapping.SqueezingModel.flat(1.0), tau
        )
        add("transient_vacuum", f"tau_gamma={_fmt(tau)}", rep.variance_norm, 1.0, 1e-8)

    # grid oracle: vacuum passthrough at the configured grid
    tau_max = cfg["grid.tau_max_gamma"]
    for alpha in (0.5, 5.0):
        medium, drive = _dimensionless_medium_drive(alpha, tau_max)
        table, _ = dynamics.simulate_grid(
            medium, drive, GridSpec(nz=cfg["grid.nz"], ntau=cfg["grid.ntau"], tau_max=tau_max),
            mapping.SqueezingModel.flat(1.0),
        )
        worst = float(np.max(np.abs(table.variance_trace - 1.0)))
        add("grid_vacuum", f"alpha={_fmt(alpha)}", 1.0 + worst, 1.0, 5e-3)

    # grid oracle: light-kernel convergence ladder
    medium, drive = _dimensionless_medium_drive(VERIFY_KERNEL_ALPHA, VERIFY_KERNEL_TAU_MAX)
    grid = GridSpec(nz=VERIFY_KERNEL_LADDER[-1], ntau=VERIFY_KERNEL_LADDER[-1],
                    tau_max=VERIFY_KERNEL_TAU_MAX)
    study = dynamics.light_kernel_convergence(medium, drive, grid, levels=len(VERIFY_KERNEL_LADDER))
    monotone = study.monotone
    checks.append(("grid_kernel", "monotone_decrease", float(monotone), 1.0,
                   0.0 if monotone else 1.0, 0.0, monotone))
    for i, order in enumerate(study.orders):
        checks.append(("grid_kernel", f"order_{i}", order, 1.0,
                       abs(order - 1.0), 0.2, 0.8 <= order <= 1.2))
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
    except (QuadratureConvergenceError, GridGrowthError, ArithmeticError) as exc:
        # an OverflowError's own text names neither the command nor the error
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
