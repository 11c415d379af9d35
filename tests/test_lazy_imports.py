"""Start-up loads only what a command computes with.

``import spinmap`` loads no submodule, and its exports resolve on first use
to the defining submodule's own objects.  ``teleport`` and ``feasibility``
run with numpy made unimportable and print what a normal run prints.
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


@pytest.mark.parametrize("command", ["teleport", "feasibility"])
def test_scalar_commands_run_without_numpy(command, tmp_path):
    cfg = tmp_path / "example.cfg"
    cfg.write_text(EXAMPLE_CFG.read_text() + "\nteleport.alpha_pulse = 0.05\n")
    normal = python(COMMAND, "normal", command, "--config", str(cfg), cwd=tmp_path)
    blocked = python(COMMAND, "no-numpy", command, "--config", str(cfg), cwd=tmp_path)
    assert normal.returncode == 0, normal.stderr
    assert blocked.returncode == normal.returncode, blocked.stderr
    assert blocked.stdout == normal.stdout and normal.stdout.count(b"\n") >= 2


def test_exports_load_on_first_use(tmp_path):
    proc = python(EXPORTS, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["loaded"] == []  # neither a spinmap submodule nor numpy
    assert result["wrong"] == [] and result["undirected"] == []
    assert result["names"] == 45
