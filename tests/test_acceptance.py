"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured values at the criterion's tolerance.

Criteria 2-5 are the cross-engine identities that ``spinmap verify`` lists:
they read the rows of one in-process verify run by check name, make no
engine call of their own, and fail on any row that fails.  The property
tests carry each identity across its whole range; the README's ``verify``
section names which."""

import csv
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from spinmap import cli
from spinmap.mapping import SqueezingModel, efficiency_curve, eta_closed
from spinmap.teleport import commutator_defect, coupling_r, readout_noise_budget

REPO = Path(__file__).resolve().parent.parent
EXAMPLE_CFG = REPO / "configs" / "feasibility_example.cfg"


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def verify_rows(tmp_path_factory):
    """The rows of one ``spinmap verify`` run on the defaults, by check name."""
    out = tmp_path_factory.mktemp("verify") / "verify.csv"
    assert cli.main(["verify", "--out", str(out)]) in (cli.EXIT_OK, cli.EXIT_PHYSICS)
    rows = {}
    with out.open(newline="") as fh:
        for row in csv.DictReader(fh):
            rows.setdefault(row["check"], []).append(row)
    return rows


def passed(rows):
    return all(row["pass"] == "true" for row in rows)


def worst(rows):
    return max(float(row["error"]) for row in rows)


def test_criterion_1_closed_form_curve():
    eta20 = eta_closed(20.0)
    eta60 = eta_closed(60.0)
    crossing = oracles.bisect_root(lambda a: eta_closed(a) - 0.90, 10.0, 200.0)
    ok = (0.820 <= eta20 <= 0.826) and (0.894 <= eta60 <= 0.900) and (58.0 <= crossing <= 66.0)
    report(1, ok, f"eta(20)={eta20:.6f}, eta(60)={eta60:.6f}, eta=0.9 at alpha={crossing:.3f}")


def test_criterion_2_vacuum_fixed_point(verify_rows):
    closed, spectral, grid = (verify_rows[name]
                              for name in ("closed_vacuum", "spectral_vacuum", "grid_vacuum"))
    ok = (passed(closed + spectral + grid) and worst(closed) <= 1e-12
          and worst(spectral) <= 1e-6 and worst(grid) <= 5e-3)
    report(2, ok, f"closed err {worst(closed):.2e} (tol 1e-12), "
                  f"spectral err {worst(spectral):.2e} (tol 1e-6), "
                  f"grid err {worst(grid):.2e} (tol 5e-3)")


def test_criterion_3_cross_engine_identity(verify_rows):
    rows = verify_rows["spectral_vs_closed"]
    deviation = max(float(row["error"]) / float(row["reference"]) for row in rows)
    report(3, passed(rows) and deviation <= 1e-6,
           f"max relative spectral-vs-closed deviation {deviation:.2e} (tol 1e-6)")


def test_criterion_4_transient_steady_state(verify_rows):
    rows = verify_rows["transient_steady"]
    report(4, passed(rows) and worst(rows) <= 1e-3,
           f"max |transient(Gamma tau=10) - closed| = {worst(rows):.2e} (tol 1e-3)")


def test_criterion_5_grid_kernel_convergence(verify_rows):
    # rows: monotone_decrease, order_i against the declared order within the
    # row's band, and the finest rung's error
    rows = verify_rows["grid_kernel"]
    value = {row["detail"]: float(row["value"]) for row in rows}
    orders = [value[f"order_{i}"] for i in range(len(rows) - 2)]
    errors = [value["finest_rel_l2"]]
    for order in reversed(orders):  # each coarser rung's error is 2**order larger
        errors.insert(0, errors[0] * 2.0 ** order)
    report(5, passed(rows) and errors[-1] <= 1e-3,
           f"L2 errors {[f'{e:.3e}' for e in errors]}, "
           f"orders {[f'{o:.3f}' for o in orders]}, "
           f"finest {errors[-1]:.2e} (tol 1e-3)")


def test_criterion_6_finite_bandwidth_properties():
    grid = np.geomspace(0.1, 100.0, 50)
    flat = np.array([eta_closed(a) for a in grid])
    b50 = np.array([eta for _, eta in efficiency_curve(grid, SqueezingModel.lorentzian(50.0))])
    b10 = np.array([eta for _, eta in efficiency_curve(grid, SqueezingModel.lorentzian(10.0))])
    below_flat = bool(np.all(b10 <= flat + 1e-10) and np.all(b50 <= flat + 1e-10))
    ordered = bool(np.all(b50 >= b10 - 1e-10))
    peak = int(np.argmax(b10))
    interior_max = 0 < peak < len(grid) - 1 and b10[-1] < b10[peak]
    ok = below_flat and ordered and interior_max
    report(6, ok, f"curves below flat: {below_flat}, b50 >= b10: {ordered}, "
                  f"b10 interior max at alpha={grid[peak]:.2f} (eta={b10[peak]:.3f}, "
                  f"tail eta={b10[-1]:.3f})")


def test_criterion_7_beam_splitter_regime():
    sq_ok = all(
        math.isclose(coupling_r(a).r ** 2, a, rel_tol=1e-15, abs_tol=0.0)
        for a in (0.0625, 0.25, 0.013, 0.2)
    )
    defect_ok = all(
        abs(commutator_defect(r) - r * r) <= 1e-12 for r in np.linspace(0.0, 0.5, 26)
    )
    # the read-out map on a Gaussian state's mean and covariance, S from the
    # complex mode relations
    mean, cov = np.array([0.7, -0.1, 0.4, 1.3]), np.diag([1.0, 2.0, 3.0, 0.5])
    s = oracles.complex_map_oracle(0.0)
    identity_ok = np.array_equal(s @ mean, mean) and np.array_equal(s @ cov @ s.T, cov)
    epr_ok = (
        not readout_noise_budget(0.1, 0.1).passes
        and not readout_noise_budget(0.1, 0.2).passes
        and readout_noise_budget(0.1, 0.0999).passes
    )
    ok = sq_ok and defect_ok and identity_ok and epr_ok
    report(7, ok, f"r^2=alpha: {sq_ok}, defect=r^2 to 1e-12: {defect_ok}, "
                  f"r=0 identity: {identity_ok}, strict EPR condition: {epr_ok}")


def run_feasibility(config_path):
    proc = subprocess.run(
        [sys.executable, "-m", "spinmap.cli", "feasibility", "--config", str(config_path)],
        capture_output=True, text=True,
    )
    return proc.returncode


def test_criterion_8_feasibility(tmp_path):
    code_good = run_feasibility(EXAMPLE_CFG)
    broken = tmp_path / "broken.cfg"
    broken.write_text(EXAMPLE_CFG.read_text().replace(
        "drive.tau_pulse_s       = 1.0e-2", "drive.tau_pulse_s       = 1.0e-9"
    ))
    code_broken = run_feasibility(broken)
    ok = code_good == 0 and code_broken == 1
    report(8, ok, f"example set exit {code_good} (want 0), "
                  f"1 ns pulse exit {code_broken} (want 1)")


def test_criterion_9_verify_determinism(tmp_path):
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / f"{name}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "spinmap.cli", "verify", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    report(9, ok, f"verify outputs byte-identical: {ok} ({len(outputs[0])} bytes)")
