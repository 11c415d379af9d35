"""Start-up loads only what a command computes with.

``import spinmap`` loads no submodule, and its exports resolve on first use
to the defining submodule's own objects.  ``config``, ``mapping`` and
``specfun`` import without numpy, and ``efficiency``, ``spectrum``,
``teleport`` and ``feasibility`` run with numpy made unimportable and print
what a normal run prints.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLE_CFG = ROOT / "configs" / "feasibility_example.cfg"

COMMAND = """
import sys
if sys.argv[1] == "no-numpy":
    sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from spinmap import cli
sys.exit(cli.main(sys.argv[2:]))
"""

EXPORTS = """
import json, sys
import spinmap
loaded = sorted(name for name in sys.modules if name.startswith(("spinmap.", "numpy")))
import importlib
wrong = []
for name, module in spinmap._EXPORTS.items():
    own = getattr(importlib.import_module(f"spinmap.{module}"), name)
    namespace = {}
    exec(f"from spinmap import {name}", namespace)
    if getattr(spinmap, name) is not own or namespace[name] is not own:
        wrong.append(name)
for module in spinmap._SUBMODULES:
    if getattr(spinmap, module) is not importlib.import_module(f"spinmap.{module}"):
        wrong.append(module)
undirected = sorted(set(spinmap._EXPORTS) - set(dir(spinmap)))
print(json.dumps({"loaded": loaded, "wrong": wrong, "undirected": undirected,
                  "names": len(spinmap._EXPORTS)}))
"""


def python(*args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-c", *args], capture_output=True, env=env, cwd=cwd)


LORENTZIAN = "dimensionless.alpha = 10\ndimensionless.input = lorentzian\ndimensionless.b = 10\n"


@pytest.mark.parametrize("command, lorentzian", [
    ("teleport", False), ("feasibility", False), ("efficiency", False), ("spectrum", False),
    ("efficiency", True), ("spectrum", True),
], ids=["teleport", "feasibility", "efficiency", "spectrum", "efficiency-lorentzian",
        "spectrum-lorentzian"])
def test_scalar_commands_run_without_numpy(command, lorentzian, tmp_path):
    cfg = tmp_path / "example.cfg"
    cfg.write_text(LORENTZIAN if lorentzian
                   else EXAMPLE_CFG.read_text() + "\nteleport.alpha_pulse = 0.05\n")
    normal = python(COMMAND, "normal", command, "--config", str(cfg), cwd=tmp_path)
    blocked = python(COMMAND, "no-numpy", command, "--config", str(cfg), cwd=tmp_path)
    assert normal.returncode == 0, normal.stderr
    assert blocked.returncode == normal.returncode, blocked.stderr
    assert blocked.stdout == normal.stdout and normal.stdout.count(b"\n") >= 2


def test_scalar_modules_import_without_numpy(tmp_path):
    code = ("import sys; sys.modules['numpy'] = None\n"
            "import spinmap.config, spinmap.mapping, spinmap.specfun\n"
            "print(spinmap.mapping.eta_lorentzian(10.0, 10.0))")
    proc = python(code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_exports_load_on_first_use(tmp_path):
    proc = python(EXPORTS, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["loaded"] == []  # neither a spinmap submodule nor numpy
    assert result["wrong"] == [] and result["undirected"] == []
    assert result["names"] == 45
