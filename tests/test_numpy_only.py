"""The library imports and runs on numpy alone; scipy is a test dependency.

A fresh interpreter with scipy made unimportable imports ``spinmap.cli`` and
runs all seven commands through ``cli.main`` on small configs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CONFIGS = {
    "efficiency": {"dimensionless.alpha_grid": "logspace:0.01:1000:7",
                   "dimensionless.b_list": "20,4", "dimensionless.s": "0.8"},
    "spectrum": {"dimensionless.alpha": "5", "dimensionless.x0_sq": "0.2",
                 "dimensionless.x_grid": "linspace:-10:10:11"},
    "transient": {"dimensionless.alpha": "3", "dimensionless.input": "lorentzian",
                  "dimensionless.b": "5", "dimensionless.s": "0.9",
                  "transient.tau_max_gamma": "4", "transient.points": "4"},
    "simulate": {"dimensionless.alpha": "1", "grid.nz": "24", "grid.ntau": "24",
                 "grid.tau_max_gamma": "1"},
    "teleport": {"teleport.alpha_pulse": "0.05", "teleport.epr_residual": "0.01"},
    "feasibility": None,  # the shipped example
    "verify": {},
}

RUNNER = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from spinmap import cli
codes = {command: cli.main([command, *args]) for command, args in json.loads(sys.argv[1])}
loaded = sorted(name for name, module in sys.modules.items()
                if name.split(".")[0] == "scipy" and module is not None)
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_every_command_runs_without_scipy(tmp_path):
    runs = []
    for command, config in CONFIGS.items():
        if config is None:
            path = ROOT / "configs" / "feasibility_example.cfg"
        else:
            path = tmp_path / f"{command}.cfg"
            path.write_text("".join(f"{key} = {value}\n" for key, value in config.items()))
        runs.append((command, ["--config", str(path), "--out", str(tmp_path / f"{command}.csv")]))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", RUNNER, json.dumps(runs)],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == {command: 0 for command in CONFIGS}, proc.stderr
    assert result["scipy"] == []
    for command in CONFIGS:
        assert (tmp_path / f"{command}.csv").read_text().count("\n") >= 2
