"""spinmap benchmark: one workload, one seed, every metric with its unit.

    python3 bench/run.py --workload grid-constant --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its src/.
With ``--trace 0`` it measures the end-to-end metrics with tracing off;
with ``--trace 1`` it reports per-layer figures from a traced run.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The full record (inputs, machine facts, latencies, failures) is written
under .bench_out/results/ so any run can be replayed from its inputs.

Workloads (all closed loops, one op in flight):

* cli-oneshot   -- CLI commands except verify, each in a fresh interpreter;
  interpreter start and import dominate, the grid oracle is barely touched.
* engine-sweep  -- closed-form, spectral and transient engines in-process;
  adaptive quadrature dominates, the grid oracle is never run.
* grid-constant -- the grid oracle under a single-rate drive at n = 100 and
  200, plus the 100/200/400 kernel ladder `spinmap verify` runs.
* grid-profile  -- the same sizes under three-segment drive profiles: the
  dense path a single-rate fast path would not cover.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from stats import PROBE_REF_S, tail_percentile  # noqa: E402

SETUP_BEFORE, SETUP_AFTER = 2, 3  # setup_s: median of fresh processes around the measured one
IMPORT_REPEATS = 3    # import.spinmap_s: median over this many fresh interpreters
BLAS_THREADS = 1      # one core per op: steadier on a small shared machine
RUN_BUDGET_S = 170.0  # every run ends within 180 s
EXIT_REFUSED = 2

# metric names, units and bounds live in BENCHMARK.json at the checkout root
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Printed and recorded with every run, but not gated: failed_frac is 0 when
# all is well (success_frac carries it), and ref_err_ratio moves with
# round-off whenever the arithmetic is reordered, well inside tolerance.
REPORTED_UNITS = {"failed_frac": "ratio", "ref_err_ratio": "ratio"}


class Refused(Exception):
    """The run cannot be measured here; no result is printed."""


def machine_facts(root: Path) -> dict:
    nproc = len(os.sched_getaffinity(0))
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    facts = {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads_requested": BLAS_THREADS,
    }
    try:
        import scipy
        facts["blas_vendor"] = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (ImportError, KeyError, TypeError):
        facts["blas_vendor"] = "unknown"
    facts.update(_git_state(root))
    return facts


def _git_state(root: Path) -> dict:
    # never look above the checkout for a repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                                capture_output=True, text=True, timeout=20)
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=root, env=env, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return {"git_commit": "unknown", "git_dirty": None}
    if commit.returncode != 0:
        return {"git_commit": "unknown", "git_dirty": None}
    return {"git_commit": commit.stdout.strip(), "git_dirty": bool(status.stdout.strip())}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(root: Path, out: Path, args, mode: str, tag: str, deadline: float) -> dict:
    result = out / f"{tag}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--root", str(root), "--scratch", str(out / "inputs"), "--result", str(result)]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=child_env(root), capture_output=True, text=True,
                          timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0 or not result.exists():
        raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    data = json.loads(result.read_text(encoding="utf-8"))
    data["setup_s"] = data["first_op_at"] - spawned
    if mode == "setup":
        # scaled by the host's speed the process itself saw at its first op
        data["setup_scaled_s"] = data["setup_s"] * PROBE_REF_S / data["probe_s"]
    return data


def import_samples(root: Path, deadline: float) -> list[float]:
    """`import spinmap` in fresh interpreters, as every CLI command pays it."""
    code = ("import time; t = time.perf_counter(); import spinmap; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(root),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"import spinmap failed:\n{proc.stderr[-2000:]}")
        samples.append(float(proc.stdout.strip()))
    return samples


def end_to_end(setups: list[dict], final: dict) -> tuple[dict, dict]:
    """Timings in reference seconds (see stats.speed_scale); the measured
    figures are kept in the detail beside them."""
    lat, raw = final["scaled"], final["latencies"]
    pct, value, beyond = tail_percentile(lat)
    metrics = {
        "setup_s": statistics.median(s["setup_scaled_s"] for s in setups),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": value,
        "success_frac": 1.0 - final["failed"] / final["attempted"],
        "peak_rss_mb": final["peak_rss_mb"],
    }
    detail = {"op_tail_percentile": pct, "op_tail_beyond": beyond, "ops": len(lat),
              "setup_samples_s": [s["setup_scaled_s"] for s in setups],
              "measured_setup_s": statistics.median(s["setup_s"] for s in setups),
              "measured_ops_per_s": len(raw) / final["busy_s"],
              "measured_op_p50_s": statistics.median(raw),
              "measured_op_tail_s": tail_percentile(raw)[1],
              "probe_s": statistics.median(final["probes"])}
    return metrics, detail


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    started_at = time.time()

    root = Path.cwd()
    try:
        if not (root / "src" / "spinmap" / "__init__.py").is_file():
            raise Refused(f"no src/spinmap package under {root}; run from a checkout's root")
        facts = machine_facts(root)
        out = root / ".bench_out"
        (out / "inputs").mkdir(parents=True, exist_ok=True)
        (out / "results").mkdir(parents=True, exist_ok=True)
        (out / "work").mkdir(parents=True, exist_ok=True)
        tag = f"{args.workload}-s{args.seed}-t{args.trace}"
        def setups(count):
            return [run_worker(root, out, args, "setup", f"work/{tag}-setup", deadline)
                    for _ in range(0 if args.trace else count)]

        before = setups(SETUP_BEFORE)
        final = run_worker(root, out, args, "trace" if args.trace else "measure",
                           f"work/{tag}", deadline)
        after = setups(SETUP_AFTER)
        threads = final.get("blas_threads", {})
        if any(n > facts["nproc"] for n in threads.values()):
            raise Refused(f"BLAS threads {threads} exceed nproc={facts['nproc']}")
        facts["blas_threads"] = threads
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED

    if args.trace:
        imports = import_samples(root, deadline)
        metrics = dict(final["layers"], **{"import.spinmap_s": statistics.median(imports)})
        units = PER_LAYER_UNITS
        detail = {"missing_bindings": final["missing"], "import_samples_s": imports,
                  "ops": len(final["latencies"])}
    else:
        metrics, detail = end_to_end(before + after, final)
        units = END_TO_END_UNITS

    reported = {"failed_frac": final["failed"] / final["attempted"],
                "ref_err_ratio": final["ref_err_ratio"]}
    detail.update(worst_check=final["worst_check"],
                  heldout_ref_err_ratio=final["heldout_ref_err_ratio"])
    correct = final["failed"] == 0
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "started_at": started_at, "facts": facts,
              "correct": correct, "attempted": final["attempted"], "failed": final["failed"],
              "failures": final["failures"], "metrics": metrics, "units": units,
              "reported": reported, "detail": detail, "inputs": final["inputs"],
              "latencies": final["latencies"], "scaled_latencies": final.get("scaled")}
    (out / "results" / f"{tag}-{int(started_at)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    for failure in final["failures"]:
        print(f"FAILED {failure}")
    for name, value in [*metrics.items(), *reported.items()]:
        shown = "missing" if value is None else f"{value:.6g}"
        unit = units.get(name) or REPORTED_UNITS[name]
        print(f"{args.workload:14s} {name:38s} {shown:>14s} {unit}")
    for name, value in detail.items():
        print(f"{args.workload:14s} {name:38s} {value}")
    print(json.dumps({
        "correct": correct,
        "attempted": final["attempted"],
        "failed": final["failed"],
        "metrics": {name: {"value": _finite(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _finite(value):
    """JSON has no inf or NaN; a missing or unbounded figure is null."""
    if value is None or not math.isfinite(value):
        return None
    return value


if __name__ == "__main__":
    sys.exit(main())
