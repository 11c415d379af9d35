"""Self-tests of the benchmark harness.  Run from the checkout root:

    python3 bench/selftest.py

They check that every metric BENCHMARK.json declares is emitted with its
unit, that a seed fixes the inputs, that a wrong or unrepeatable output
counts as a failed op, that compare calls a change with failed ops a
regression, and that the benchmark refuses to run without the package.  Takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from worker import EngineHarness, Loop  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def run_bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--workload", "engine-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def test_declared_metrics_emitted() -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(ROOT, trace)
        expect(proc.returncode == 0, f"trace={trace} run exits 0")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"trace={trace} result has exactly the four keys")
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(emitted == declared, f"trace={trace} emits every {key} metric with its unit")
        expect(all(isinstance(v["value"], float) for v in result["metrics"].values()),
               f"trace={trace} every value is a number")
        for name in ("failed_frac", "ref_err_ratio"):
            expect(any(line.split()[1:2] == [name] for line in proc.stdout.splitlines()),
                   f"trace={trace} prints {name}")


def test_seed_fixes_inputs() -> None:
    for workload in workloads.WORKLOADS:
        a, b = workloads.generate(workload, 7), workloads.generate(workload, 7)
        c = workloads.generate(workload, 8)
        expect(json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True),
               f"{workload}: same seed, same inputs")
        expect(a["cycle"] != c["cycle"], f"{workload}: another seed, other inputs")
        expect(a["heldout"] == c["heldout"], f"{workload}: held-out set is seed-independent")


class WrongOutput(EngineHarness):
    """Adds 1e-6 to every closed-form variance: outside its 1e-12 tolerance."""

    def execute(self, op):
        out = super().execute(op)
        if op["kind"] == "closed":
            return replace(out, variance_norm=out.variance_norm + 1e-6,
                           atom_langevin_part=out.atom_langevin_part + 1e-6)
        return out


class Unrepeatable(EngineHarness):
    """Returns a slightly different closed-form result on every call."""

    calls = 0

    def execute(self, op):
        out = super().execute(op)
        if op["kind"] == "closed":
            self.calls += 1
            return replace(out, eta=out.eta + self.calls * 1e-15)
        return out


def test_wrong_output_counts_as_failed() -> None:
    ops = [op for op in workloads.generate("engine-sweep", 1)["cycle"]
           if op["kind"] in ("closed", "spectral_flat")][:20]
    n_closed = sum(op["kind"] == "closed" for op in ops)

    loop = Loop(EngineHarness(None, ROOT, None, None), ops)
    loop.run(0.0, min_cycles=2)
    expect(loop.failed == 0, "untouched engine output passes every check")

    loop = Loop(WrongOutput(None, ROOT, None, None), ops)
    loop.run(0.0, min_cycles=2)
    expect(loop.failed == 2 * n_closed, "a wrong output fails its op on every repeat")

    loop = Loop(Unrepeatable(None, ROOT, None, None), ops)
    loop.run(0.0, min_cycles=2)
    expect(loop.failed == n_closed, "an output that changes on repeat fails the repeat")

    op = next(op for op in workloads.generate("cli-oneshot", 1)["cycle"]
              if op["command"] == "teleport")
    r = float(op["config"]["teleport.alpha_pulse"]) ** 0.5
    good = ("r,valid,epr_requirement,commutator_defect,epr_residual,budget_pass,"
            f"residual_over_r,classical_baseline\n{r:.12g},{str(r <= 0.3).lower()},0,"
            f"{r * r:.12g},0,true,0,1\n")
    expect(workloads.check_cli(op, 0, good.encode(), b"").ok, "a correct CLI table passes")
    bad = good.replace(f"{r:.12g},", f"{r * 1.001:.12g},", 1)
    expect(not workloads.check_cli(op, 0, bad.encode(), b"").ok, "a wrong CLI value fails")
    expect(not workloads.check_cli(op, 3, good.encode(), b"").ok, "a nonzero exit fails")

    class Garbage:
        def execute(self, op):
            return 0, b"no table here\n", b""

        def check(self, op, raw):
            return workloads.check_cli(op, *raw)

    loop = Loop(Garbage(), [op])
    loop.run(0.0, min_cycles=1)
    expect(loop.failed == 1, "output the checks cannot read fails the op")


def test_failed_change_is_regression() -> None:
    from compare import END_TO_END, verdict

    def runs(side: int, factor: float, correct: bool = True) -> list[dict]:
        out = []
        for i in range(10):
            values = {name: (1.0 + 0.001 * i) * (factor if spec["better"] == "lower"
                                                 else 1.0 / factor)
                      for name, spec in END_TO_END.items()}
            # parent first on even seeds, change first on odd ones
            out.append({"metrics": values, "correct": correct or i != 3,
                        "started_at": 2 * i + (side + i) % 2})
        return out

    parent = runs(0, 1.0)
    good = [verdict(spec, parent, runs(1, 0.5)) for spec in END_TO_END.values()]
    expect(all(row["verdict"] == "gain" for row in good),
           "a change better on every run is a gain on every metric")
    failing = [verdict(spec, parent, runs(1, 0.5, correct=False))
               for spec in END_TO_END.values()]
    expect(all(row["verdict"] == "regression" for row in failing),
           "the same change with one failed run is a regression on every metric")


def test_refuses_without_package() -> None:
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench(bare, 0)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    expect(proc.returncode != 0 and '"metrics"' not in last[0],
           "without src/spinmap the run exits nonzero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    test_seed_fixes_inputs()
    test_wrong_output_counts_as_failed()
    test_failed_change_is_regression()
    test_refuses_without_package()
    test_declared_metrics_emitted()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
