import functools
import itertools
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from spinmap.cli import main
from spinmap.config import ConfigError, RunConfig, parse_config_text
from spinmap.dynamics import PulseArea, transient_variance
from spinmap.mapping import SqueezingModel, eta_closed, variance_closed

REPO = Path(__file__).resolve().parent.parent
EXAMPLE_CFG = REPO / "configs" / "feasibility_example.cfg"


def run_cli(args, tmp_path, config_text=None):
    argv = list(args)
    if config_text is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_text)
        argv += ["--config", str(cfg)]
    out = tmp_path / "out.csv"
    argv += ["--out", str(out)]
    code = main(argv)
    return code, out.read_text() if out.exists() else ""


class TestConfigParsing:
    def test_comments_blanks_and_values(self):
        text = """
        # a comment
        dimensionless.alpha = 20   # trailing comment

        grid.nz = 100
        """
        values = parse_config_text(text)
        assert values == {"dimensionless.alpha": "20", "grid.nz": "100"}

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("dimensionless.alhpa = 20")
        assert "alhpa" in str(err.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("grid.nz = 1\ngrid.nz = 2")

    def test_malformed_line(self):
        with pytest.raises(ConfigError):
            parse_config_text("grid.nz 100")

    def test_grid_forms(self):
        cfg = RunConfig(parse_config_text(
            "dimensionless.alpha_grid = logspace:0.1:10:3\n"
            "dimensionless.x_grid = 0,1,2.5\n"
        ))
        grid = cfg["dimensionless.alpha_grid"]
        assert grid == pytest.approx([0.1, 1.0, 10.0])
        assert list(cfg["dimensionless.x_grid"]) == [0.0, 1.0, 2.5]

    def test_profile_parsing(self):
        cfg = RunConfig(parse_config_text(
            "drive.g_per_m_per_s = 1.0\ndrive.gamma_s_per_s = 0.0\n"
            "drive.tau_pulse_s = 2.0\ndrive.profile = 1.0:1.0, 1.0:0.5\n"
        ))
        drive = cfg.record("drive")
        assert drive.profile == ((1.0, 1.0), (1.0, 0.5))

    def test_alpha_resolution_consistency(self):
        si = (
            "medium.density_per_m3 = 1.0\nmedium.length_m = 1.0\n"
            "medium.area_m2 = 1.0\nmedium.gamma0_per_s = 1.0\n"
            "medium.wavelength_m = 1.0\n"
            "drive.g_per_m_per_s = 20.0\ndrive.gamma_s_per_s = 0.0\n"
            "drive.tau_pulse_s = 1.0\n"
        )
        assert RunConfig(parse_config_text(si)).alpha() == 20.0
        both_ok = RunConfig(parse_config_text(si + "dimensionless.alpha = 20.0\n"))
        assert both_ok.alpha() == 20.0
        both_bad = RunConfig(parse_config_text(si + "dimensionless.alpha = 19.0\n"))
        with pytest.raises(ConfigError):
            both_bad.alpha()

    def test_alpha_missing(self):
        with pytest.raises(ConfigError) as err:
            RunConfig({}).alpha()
        assert "dimensionless.alpha" in str(err.value)

    def test_pulse_in_units_of_inverse_gamma(self):
        si = (
            "medium.density_per_m3 = 1.0\nmedium.length_m = 1.0\n"
            "medium.area_m2 = 1.0\nmedium.gamma0_per_s = 1.5\n"
            "medium.wavelength_m = 1.0\n"
            "drive.g_per_m_per_s = 20.0\ndrive.gamma_s_per_s = 0.5\n"
            "drive.tau_pulse_s = 2.0\n"
        )
        assert RunConfig(parse_config_text(si)).pulse() == (4.0, ())
        profiled = RunConfig(parse_config_text(si + "drive.profile = 1:1, 0.5:0.25\n"))
        assert profiled.pulse() == (4.0, ((2.0, 1.0), (1.0, 0.25)))
        # without the medium there is no Gamma to scale by
        drive_only = "".join(ln + "\n" for ln in si.splitlines() if ln.startswith("drive."))
        assert RunConfig(parse_config_text(drive_only)).pulse() is None

    def test_incomplete_si_block_named(self):
        with pytest.raises(ConfigError) as err:
            RunConfig(parse_config_text("medium.length_m = 1.0")).record("medium")
        assert "medium." in str(err.value)


class TestEfficiencyCommand:
    def test_default_grid_hits_depth_20_benchmark(self, tmp_path):
        code, text = run_cli(["efficiency"], tmp_path)
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == "alpha,eta_flat,eta_b50,eta_b10"
        rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
        assert len(rows) == 200
        nearest = min(rows, key=lambda r: abs(r[0] - 20.0))
        assert nearest[1] == pytest.approx(0.823, abs=5e-3)

    def test_single_zero_row(self, tmp_path):
        code, text = run_cli(["efficiency"], tmp_path,
                             "dimensionless.alpha_grid = 0\n")
        assert code == 0
        assert text.strip().split("\n")[1] == "0,0,0,0"

    def test_empty_b_list_gives_flat_only(self, tmp_path):
        code, text = run_cli(["efficiency"], tmp_path,
                             "dimensionless.alpha_grid = 1,20\ndimensionless.b_list =\n")
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == "alpha,eta_flat"
        a, eta = map(float, lines[2].split(","))
        assert eta == pytest.approx(eta_closed(20.0), rel=1e-10)

    def test_empty_alpha_grid_exits_two(self, tmp_path, capsys):
        # a grid of no points would give a header-only table
        code, text = run_cli(["efficiency"], tmp_path, "dimensionless.alpha_grid = ,\n")
        assert code == 2 and text == ""
        assert "'dimensionless.alpha_grid'" in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path):
        cfg = "dimensionless.alpha_grid = logspace:0.1:100:25\n"
        _, first = run_cli(["efficiency"], tmp_path, cfg)
        _, second = run_cli(["efficiency"], tmp_path, cfg)
        assert first == second


class TestSpectrumCommand:
    def test_line_center_row(self, tmp_path):
        code, text = run_cli(
            ["spectrum"], tmp_path,
            "dimensionless.alpha = 1\ndimensionless.x0_sq = 0\n"
            "dimensionless.x_grid = 0\n",
        )
        assert code == 0
        x, transmitted, density = map(float, text.strip().split("\n")[1].split(","))
        assert transmitted == pytest.approx(1.0 - math.exp(-1.0), rel=1e-10)

    def test_vacuum_input_transmits_unchanged(self, tmp_path):
        code, text = run_cli(
            ["spectrum"], tmp_path,
            "dimensionless.alpha = 7\ndimensionless.x0_sq = 1\n"
            "dimensionless.x_grid = 0,1,4\n",
        )
        assert code == 0
        for line in text.strip().split("\n")[1:]:
            assert float(line.split(",")[1]) == 1.0

    def test_density_column_integrates_to_closed_form(self, tmp_path):
        # wide fine grid; trapezoid over the emitted column approximates the
        # closed-form variance
        code, text = run_cli(
            ["spectrum"], tmp_path,
            "dimensionless.alpha = 2\ndimensionless.x0_sq = 0\n"
            "dimensionless.x_grid = linspace:-1500:1500:30001\n",
        )
        assert code == 0
        rows = np.array([list(map(float, ln.split(","))) for ln in text.strip().split("\n")[1:]])
        x, density = rows[:, 0], rows[:, 2]
        integral = float(np.sum((density[1:] + density[:-1]) / 2.0 * np.diff(x)))
        closed = variance_closed(2.0, 0.0).variance_norm
        assert integral == pytest.approx(closed, abs=2e-3)

    def test_empty_x_grid_exits_two(self, tmp_path, capsys):
        code, text = run_cli(["spectrum"], tmp_path,
                             "dimensionless.alpha = 1\ndimensionless.x_grid = ,\n")
        assert code == 2 and text == ""
        assert "'dimensionless.x_grid'" in capsys.readouterr().err


class TestTransientCommand:
    def test_initial_and_steady_rows(self, tmp_path):
        code, text = run_cli(
            ["transient"], tmp_path,
            "dimensionless.alpha = 10\ndimensionless.x0_sq = 0\n"
            "transient.tau_max_gamma = 10\ntransient.points = 20\n",
        )
        assert code == 0
        rows = [list(map(float, ln.split(","))) for ln in text.strip().split("\n")[1:]]
        assert rows[0][0] == 0.0 and rows[0][1] == 1.0
        closed = variance_closed(10.0, 0.0).variance_norm
        assert abs(rows[-1][1] - closed) < 1e-3

    def test_drive_off_constant_vacuum(self, tmp_path):
        code, text = run_cli(
            ["transient"], tmp_path,
            "dimensionless.alpha = 0\ndimensionless.x0_sq = 0.5\n"
            "transient.points = 8\n",
        )
        assert code == 0
        for line in text.strip().split("\n")[1:]:
            assert float(line.split(",")[1]) == pytest.approx(1.0, abs=1e-9)


class TestSimulateCommand:
    def test_vacuum_trace_and_convergence_report(self, tmp_path, capfd):
        code, text = run_cli(
            ["simulate"], tmp_path,
            "dimensionless.alpha = 2\ndimensionless.x0_sq = 1\n"
            "grid.nz = 80\ngrid.ntau = 80\ngrid.tau_max_gamma = 0.5\n",
        )
        assert code == 0
        rows = [list(map(float, ln.split(","))) for ln in text.strip().split("\n")[1:]]
        assert all(abs(r[1] - 1.0) < 5e-3 for r in rows)
        report = capfd.readouterr().err
        orders = [float(ln.rsplit(" ", 1)[1]) for ln in report.splitlines() if "order" in ln]
        assert orders and all(0.8 <= o <= 1.2 for o in orders)

    def test_no_coupling_passthrough(self, tmp_path, capfd):
        code, text = run_cli(
            ["simulate"], tmp_path,
            "dimensionless.alpha = 0\ndimensionless.x0_sq = 1\n"
            # sizes the kernel ladder cannot halve: without coupling it never runs
            "grid.nz = 202\ngrid.ntau = 42\ngrid.tau_max_gamma = 1.0\n",
        )
        assert code == 0
        for line in text.strip().split("\n")[1:]:
            assert float(line.split(",")[1]) == pytest.approx(1.0, abs=1e-12)
        assert "skipped" in capfd.readouterr().err


# drive.profile of the SI simulate cases: none (the example's 10 ms pulse
# outlasts the grid), three segments, and a pulse that ends mid-grid; the
# example's Gamma is 1.00001e5 / s, so 1e-6 s is about 0.1 / Gamma
SI_PROFILES = {"constant": None, "three-segment": "2e-6:1, 3e-6:0.25, 5e-6:0.6",
               "switch-off": "3e-6:1, 4e-6:0"}
SI_INPUTS = {"flat": "dimensionless.x0_sq = 0.3\n",
             "lorentzian": "dimensionless.input = lorentzian\ndimensionless.s = 0.9\n"}
SI_RATES = ("medium.gamma0_per_s", "drive.gamma_s_per_s", "drive.g_per_m_per_s",
            "physics.gamma_q_per_s")


def _si_config(input_name, profile, k=1.0):
    """The shipped SI example with the named input and ``profile``, every SI
    rate times k and every SI time over k."""
    values = parse_config_text(EXAMPLE_CFG.read_text())
    for key in SI_RATES:
        values[key] = repr(float(values[key]) * k)
    values["drive.tau_pulse_s"] = repr(float(values["drive.tau_pulse_s"]) / k)
    if profile is not None:
        values["drive.profile"] = ", ".join(
            f"{float(d) / k!r}:{p}" for d, p in (seg.split(":") for seg in profile.split(",")))
    return "".join(f"{key} = {text}\n" for key, text in values.items()) + SI_INPUTS[input_name]


def _table(text):
    return [list(map(float, ln.split(","))) for ln in text.strip().split("\n")[1:]]


class TestSimulateSIUnits:
    """With complete medium and drive blocks simulate runs the grid oracle
    in units of 1/Gamma, as every other command runs its engine: alpha and b
    from the SI blocks, the pulse and its profile with durations times Gamma."""

    @pytest.mark.parametrize("profile", SI_PROFILES.values(), ids=SI_PROFILES)
    @pytest.mark.parametrize("input_name", SI_INPUTS)
    def test_rows_match_transient_engine(self, input_name, profile, tmp_path):
        config = _si_config(input_name, profile)
        code, text = run_cli(["simulate"], tmp_path, config)
        assert code == 0
        cfg = RunConfig(parse_config_text(config))
        medium, drive, physics = (cfg.record(block) for block in ("medium", "drive", "physics"))
        gamma = medium.gamma0 + drive.gamma_s
        alpha = drive.g * medium.length / gamma
        segments = drive.profile or ((drive.tau_pulse, 1.0),)
        area = PulseArea(tuple(itertools.accumulate(d * gamma for d, _ in segments)),
                         tuple(alpha * p for _, p in segments))
        model = (SqueezingModel.flat(0.3) if input_name == "flat"
                 else SqueezingModel.lorentzian(physics.gamma_q / gamma, s=0.9))
        rows = _table(text)
        assert len(rows) == 201 and rows[-1][0] == 1.0
        for tau, variance, eta in rows:
            reference = transient_variance(area, 1.0, 1.0, model, tau)
            assert abs(variance - reference.variance_norm) <= 1e-3
            assert abs(eta - reference.eta) <= 1e-3

    @pytest.mark.parametrize("profile", ["5e-6:1", SI_PROFILES["switch-off"]],
                             ids=["ends-inside", "switch-off"])
    def test_kernel_study_compares_the_lit_columns(self, profile, tmp_path, capfd):
        # the pulse goes dark inside the window, where the grid's kernel is
        # zero: the study compares the lit columns, which converge at first order
        code, _ = run_cli(["simulate"], tmp_path, _si_config("flat", profile))
        assert code == 0
        report = capfd.readouterr().err
        orders = [float(ln.rsplit(" ", 1)[1]) for ln in report.splitlines() if "order" in ln]
        assert len(orders) == 2 and all(abs(order - 1.0) <= 0.2 for order in orders)

    @pytest.mark.parametrize("grid", ["", "grid.nz = 40\ngrid.ntau = 40\n"],
                             ids=["200x200", "40x40"])
    def test_window_dark_throughout_skips_the_study(self, grid, tmp_path, capfd):
        # dark up to Gamma tau = 2, bright after the window: nothing couples
        # inside it, so the study is skipped, the stability bounds see no
        # drive and the variance stays at the vacuum
        code, text = run_cli(["simulate"], tmp_path, _si_config("flat", "2e-5:0, 1e-2:1") + grid)
        assert code == 0
        assert capfd.readouterr().err == "convergence report: coupling off, kernel study skipped\n"
        assert all(abs(row[1] - 1.0) < 1e-12 for row in _table(text))

    @pytest.mark.parametrize("k", [0.1, 10.0])
    @pytest.mark.parametrize("input_name", SI_INPUTS)
    def test_table_does_not_depend_on_the_time_unit(self, input_name, k, tmp_path):
        profile = SI_PROFILES["three-segment"]
        code, text = run_cli(["simulate"], tmp_path, _si_config(input_name, profile))
        assert code == 0
        code, scaled = run_cli(["simulate"], tmp_path, _si_config(input_name, profile, k))
        assert code == 0
        for row, scaled_row in zip(_table(text), _table(scaled), strict=True):
            for value, scaled_value in zip(row, scaled_row, strict=True):
                assert math.isclose(scaled_value, value, rel_tol=1e-12, abs_tol=0.0)


class TestTransientDrive:
    """transient runs the drive simulate follows where it is one constant
    rate over [0, transient.tau_max_gamma], and refuses a shaped one."""

    @pytest.mark.parametrize("profile, key", [
        (SI_PROFILES["three-segment"], "drive.profile"),
        (SI_PROFILES["switch-off"], "drive.profile"),
        ("2e-5:1, 1e-4:1, 1e-4:0.5", "drive.profile"),  # the rate changes at about 12 / Gamma
        (None, "drive.tau_pulse_s"),                    # a 5 us pulse ends at about 0.5 / Gamma
    ])
    def test_shaped_drive_exits_two_naming_its_key(self, profile, key, tmp_path, capsys):
        config = _si_config("flat", profile) + "transient.tau_max_gamma = 15\ntransient.points = 4\n"
        if profile is None:
            config = config.replace("drive.tau_pulse_s = 0.01", "drive.tau_pulse_s = 5e-06")
        code, text = run_cli(["transient"], tmp_path, config)
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert f"'{key}'" in err and "simulate follows shaped pulses" in err

    @pytest.mark.parametrize("profile, power", [
        (None, 1.0),                         # the example's 10 ms pulse
        ("1e-4:0.5, 1e-4:1", 0.5),           # half power for about 10 / Gamma
        ("2e-5:0.25, 1e-4:0.25", 0.25),      # a breakpoint between equal rates
    ])
    def test_constant_drive_is_followed(self, profile, power, tmp_path):
        config = _si_config("flat", profile) + "transient.tau_max_gamma = 5\ntransient.points = 4\n"
        code, text = run_cli(["transient"], tmp_path, config)
        assert code == 0
        alpha = RunConfig(parse_config_text(config)).alpha()
        area = PulseArea.constant(alpha * power)
        for tau, variance, eta in _table(text):
            reference = transient_variance(area, 1.0, 1.0, SqueezingModel.flat(0.3), tau)
            assert variance == float(f"{reference.variance_norm:.12g}")
            assert eta == float(f"{reference.eta:.12g}")


class TestTeleportCommand:
    def test_report_row(self, tmp_path):
        code, text = run_cli(
            ["teleport"], tmp_path,
            "teleport.alpha_pulse = 0.01\nteleport.epr_residual = 0.05\n",
        )
        assert code == 0
        header, row = text.strip().split("\n")
        values = dict(zip(header.split(","), row.split(",")))
        assert float(values["r"]) == pytest.approx(0.1)
        assert values["valid"] == "true"
        assert float(values["commutator_defect"]) == pytest.approx(0.01, abs=1e-12)
        assert values["budget_pass"] == "true"

    def test_missing_alpha_pulse_is_config_error(self, tmp_path):
        code, _ = run_cli(["teleport"], tmp_path, "teleport.epr_residual = 0.0\n")
        assert code == 2


class TestFeasibilityCommand:
    def test_example_set_exits_zero(self, tmp_path):
        out = tmp_path / "feas.csv"
        code = main(["feasibility", "--config", str(EXAMPLE_CFG), "--out", str(out)])
        assert code == 0
        assert out.read_text().strip().split("\n")[-1].endswith("true")

    def test_broken_pulse_exits_one(self, tmp_path):
        text = EXAMPLE_CFG.read_text().replace(
            "drive.tau_pulse_s       = 1.0e-2", "drive.tau_pulse_s       = 1.0e-9"
        )
        cfg = tmp_path / "broken.cfg"
        cfg.write_text(text)
        code = main(["feasibility", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert code == 1

    def test_missing_si_block_exits_two(self, tmp_path, capsys):
        code, _ = run_cli(["feasibility"], tmp_path, "dimensionless.alpha = 20\n")
        assert code == 2
        assert "medium." in capsys.readouterr().err


class TestCliErrors:
    def test_bad_config_file_key(self, tmp_path):
        code, _ = run_cli(["efficiency"], tmp_path, "no.such.key = 1\n")
        assert code == 2

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "spinmap.cli", "teleport"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2  # alpha_pulse missing

    def test_out_in_missing_directory_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("teleport.alpha_pulse = 0.01\n")
        out = tmp_path / "missing" / "out.csv"
        assert main(["teleport", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")


class TestFailedRunWritesNothing:
    """A run that exits 2 or 3 writes no table.  simulate rejects a grid
    its three-rung kernel ladder cannot use before the grid oracle runs: a
    size the ladder cannot halve, naming the key, and at alpha = 400 a
    coarsest rung that breaks the exchange bound, naming that rung's grid."""

    @pytest.mark.parametrize("text, named", [
        # the three-rung ladder needs sizes divisible by 4
        ("dimensionless.alpha = 2\ngrid.nz = 202\n", "'grid.nz'"),
        ("dimensionless.alpha = 2\ngrid.ntau = 202\n", "'grid.ntau'"),
        # and at least 8 cells, so that its coarsest rung has 2
        ("dimensionless.alpha = 2\ngrid.nz = 4\n", "'grid.nz'"),
        ("dimensionless.alpha = 2\ngrid.ntau = 4\n", "'grid.ntau'"),
        # the coarsest rung of the default 200 x 200 grid breaks the exchange bound
        ("dimensionless.alpha = 400\n", "nz=50 ntau=50"),
    ], ids=["nz-202", "ntau-202", "nz-4", "ntau-4", "alpha-400"])
    def test_simulate_ladder_failure(self, text, named, tmp_path, capsys, monkeypatch):
        from spinmap import dynamics

        def never(*args, **kwargs):
            raise AssertionError("the grid oracle ran on a grid the ladder rejects")

        monkeypatch.setattr(dynamics, "simulate_grid", never)
        code, _ = run_cli(["simulate"], tmp_path, text)
        assert code == 2 and not (tmp_path / "out.csv").exists()
        assert main(["simulate", "--config", str(tmp_path / "run.cfg")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 2
        assert captured.err.count(named) == 2


class TestNumericsExitCode:
    def test_quadrature_failure_maps_to_exit_three(self, tmp_path, monkeypatch):
        from spinmap import cli, dynamics
        from spinmap.specfun import QuadratureConvergenceError, QuadratureResult

        def explode(*args, **kwargs):
            raise QuadratureConvergenceError(
                "synthetic", QuadratureResult(values=(0.0,), errors=(1.0,), magnitudes=(0.0,),
                                             evaluations=1)
            )

        monkeypatch.setattr(dynamics, "transient_variance", explode)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("dimensionless.alpha = 1\n")
        assert cli.main(["transient", "--config", str(cfg)]) == 3

    def test_panel_budget_miss_maps_to_exit_three(self, tmp_path, monkeypatch, capfd):
        from spinmap import dynamics, specfun

        # two Gauss nodes a panel: the Kronrod estimate misses the budget; the
        # filter tables, cached for the shipped rule, are built afresh for this one
        monkeypatch.setattr(specfun, "PANEL_NODES", 2)
        monkeypatch.setattr(dynamics, "_filter_tables",
                            functools.cache(dynamics._filter_tables.__wrapped__))
        for model in ("", "dimensionless.input = lorentzian\ndimensionless.b = 5\n"):
            code, text = run_cli(["transient"], tmp_path,
                                 "dimensionless.alpha = 5\ntransient.points = 4\n" + model)
            assert code == 3 and text == ""
            assert "did not converge" in capfd.readouterr().err

    def test_grid_growth_maps_to_exit_three(self, tmp_path, monkeypatch, capfd):
        from spinmap import dynamics

        def growing_symbols(t, nz):
            # every exp(-x T) grows with its area instead of decaying
            e = np.zeros((nz, len(t)))
            e[0] = np.exp(100.0 * t)
            return e

        monkeypatch.setattr(dynamics, "_symbols", growing_symbols)
        code, text = run_cli(["simulate"], tmp_path,
                             "dimensionless.alpha = 2\ngrid.nz = 20\ngrid.ntau = 40\n")
        assert code == 3 and text == ""
        assert "diverged at step" in capfd.readouterr().err

    def test_numerics_errors_are_runtime_and_arithmetic_errors(self):
        # main maps every ArithmeticError to exit 3; callers catching
        # RuntimeError keep working
        from spinmap.dynamics import GridGrowthError
        from spinmap.specfun import QuadratureConvergenceError

        for error in (QuadratureConvergenceError, GridGrowthError):
            assert issubclass(error, RuntimeError) and issubclass(error, ArithmeticError)

    def test_overflow_maps_to_exit_three(self, tmp_path, capsys):
        # omega**11 in the Raman cross section overflows a float; the
        # overflow's own text is only "(34, 'Numerical result out of range')",
        # so the message names the command and the error type
        code, text = run_cli(["feasibility"], tmp_path,
                             _example_with("physics.omega_rad_per_s", "1e30"))
        assert code == 3 and text == ""
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: feasibility: OverflowError: ")

    def test_transient_panel_limit_exits_three(self, tmp_path, capsys):
        # b = 1e6 asks for ~8e5 panels at Gamma tau = 10 (~13 GB); the
        # command stops at its last row, past the limit, in well under a second
        start = time.perf_counter()
        code, text = run_cli(["transient"], tmp_path, "dimensionless.alpha = 10\n"
                             "dimensionless.input = lorentzian\ndimensionless.b = 1e6\n")
        assert time.perf_counter() - start < 20.0
        assert code == 3 and text == "" and not (tmp_path / "out.csv").exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: transient: OverflowError: ")
        assert "TRANSIENT_PANEL_LIMIT" in captured.err

    def test_transient_computes_its_last_row_first(self, tmp_path, monkeypatch):
        # the panel count grows with tau, so the row at tau_max decides
        # whether the table can succeed: a table past the limit makes one call
        from spinmap import dynamics

        taus = []

        def counting(area, length, gamma, model, tau, **kwargs):
            taus.append(tau)
            return transient_variance(area, length, gamma, model, tau, **kwargs)

        monkeypatch.setattr(dynamics, "transient_variance", counting)
        code, text = run_cli(["transient"], tmp_path, "dimensionless.alpha = 10\n"
                             "dimensionless.input = lorentzian\ndimensionless.b = 1e6\n")
        assert code == 3 and text == "" and taus == [10.0]
        taus.clear()
        code, text = run_cli(["transient"], tmp_path,
                             "dimensionless.alpha = 10\ntransient.points = 4\n")
        assert code == 0 and taus == [10.0, 7.5, 5.0, 2.5, 0.0]
        assert [float(line.split(",")[0]) for line in text.splitlines()[1:]] == taus[::-1]


def _example_with(key, value):
    """The shipped SI example with one key set to ``value``."""
    lines = [ln for ln in EXAMPLE_CFG.read_text().splitlines()
             if ln.split("=", 1)[0].strip() != key]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


BAD_VALUE_CASES = [
    ("spectrum", "dimensionless.alpha = nan\n", "dimensionless.alpha"),
    ("spectrum", "dimensionless.alpha = 1\ndimensionless.x0_sq = nan\n",
     "dimensionless.x0_sq"),
    ("teleport", "teleport.alpha_pulse = 0.01\nteleport.epr_residual = nan\n",
     "teleport.epr_residual"),
    ("efficiency", "tolerance.quad_abs = inf\n", "tolerance.quad_abs"),
    ("transient", "dimensionless.alpha = 1\ndimensionless.input = lorentzian\n"
     "dimensionless.b = nan\n", "dimensionless.b"),
    ("efficiency", "dimensionless.b_list = nan\n", "dimensionless.b_list"),
    ("feasibility", _example_with("feasibility.fresnel_min", "nan"), "feasibility.fresnel_min"),
    ("feasibility", _example_with("feasibility.ratio", "inf"), "feasibility.ratio"),
    ("feasibility", _example_with("physics.k_mismatch_per_m", "nan"),
     "physics.k_mismatch_per_m"),
    ("transient", "dimensionless.alpha = 1\ntransient.points = 0\n", "transient.points"),
    ("simulate", "dimensionless.alpha = 1\ngrid.tau_max_gamma = nan\n", "grid.tau_max_gamma"),
    ("teleport", "teleport.alpha_pulse = nan\n", "teleport.alpha_pulse"),
    ("efficiency", "dimensionless.alpha_grid = 2,1\ndimensionless.b_list =\n",
     "dimensionless.alpha_grid"),
    ("efficiency", "dimensionless.alpha_grid = 2,1\n", "dimensionless.alpha_grid"),
    ("feasibility", _example_with("medium.length_m", "-1"), "medium.length_m"),
    ("feasibility", _example_with("drive.profile", "5e-3:1, 5e-3:-1"), "drive.profile"),
    # SI keys are bounded at load, also under commands that never build their block
    ("teleport", "teleport.alpha_pulse = 0.01\nmedium.length_m = -1\n", "medium.length_m"),
    ("spectrum", "dimensionless.alpha = 1\ndrive.profile = 1:0.5, 0:1\n", "drive.profile"),
    ("efficiency", "physics.gamma_q_per_s = 0\n", "physics.gamma_q_per_s"),
    # zero saturation would make the Raman cross section singular
    ("feasibility", _example_with("physics.saturation", "0"), "physics.saturation"),
    # grid forms: wrong arity, no points, a geometric sequence through zero
    ("efficiency", "dimensionless.alpha_grid = logspace:0.01:1000\n", "dimensionless.alpha_grid"),
    ("efficiency", "dimensionless.alpha_grid = linspace:0:1:0\n", "dimensionless.alpha_grid"),
    ("efficiency", "dimensionless.alpha_grid = logspace:0:1:5\n", "dimensionless.alpha_grid"),
    # lorentzian input needs b, declared or derived from the SI blocks
    ("spectrum", "dimensionless.alpha = 1\ndimensionless.input = lorentzian\n", "dimensionless.b"),
    # grid forms: a geometric sequence across zero, for any size (two points
    # passed while numpy built the grids), non-finite bounds, a logspace of no points
    ("efficiency", "dimensionless.alpha_grid = logspace:-1:10:5\n", "dimensionless.alpha_grid"),
    ("spectrum", "dimensionless.alpha = 1\ndimensionless.x_grid = logspace:-1:1:2\n",
     "dimensionless.x_grid"),
    ("efficiency", "dimensionless.alpha_grid = logspace:0.01:inf:5\n",
     "dimensionless.alpha_grid"),
    ("spectrum", "dimensionless.alpha = 1\ndimensionless.x_grid = linspace:nan:1:3\n",
     "dimensionless.x_grid"),
    ("efficiency", "dimensionless.alpha_grid = logspace:1:10:0\n", "dimensionless.alpha_grid"),
    # a declared alpha must agree with the SI-derived one under every engine
    ("simulate", _example_with("dimensionless.alpha", "5"), "dimensionless.alpha"),
]


class TestBadValuesExitTwo:
    """Non-finite or out-of-bound values fail at the config boundary with
    exit 2 and name their key, whichever command reads them."""

    @pytest.mark.parametrize("command, text, key", BAD_VALUE_CASES,
                             ids=[f"{command}-{key}" for command, _, key in BAD_VALUE_CASES])
    def test_bad_value_named(self, command, text, key, tmp_path, capsys):
        code, out = run_cli([command], tmp_path, text)
        assert code == 2 and out == ""
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "abc"])
    def test_tol_flag_checked_like_config_key(self, tol, tmp_path, capsys):
        code, _ = run_cli(["efficiency", f"--tol={tol}"], tmp_path)
        assert code == 2
        assert "'tolerance.quad_abs'" in capsys.readouterr().err
