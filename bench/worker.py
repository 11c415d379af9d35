"""One benchmark process: set up a workload, then time it in a closed loop.

Started by run.py, never by hand.  ``--mode setup`` stops once the first
timed op is due (run.py times several of these for ``setup_s``);
``--mode measure`` runs the untraced loop; ``--mode trace`` alternates
untraced cycles with cycles whose spans are recorded, for per-layer figures
and the tracing overhead.  The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib
import io
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

import workloads
from stats import probe_s, speed_scale
from workloads import Outcome

BLOCK_S = 0.1  # op time between two probes of the host's speed


def blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS will use, asked of the library itself."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = int(fn())
                break
    return found


def import_spinmap(src: Path):
    """Import the package from the checkout's src/ and nowhere else."""
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    sm = importlib.import_module("spinmap")
    elapsed = time.perf_counter() - start
    importlib.import_module("spinmap.cli")
    if Path(sm.__file__).resolve().parent != (src / "spinmap").resolve():
        raise RuntimeError(f"spinmap imported from {sm.__file__}, not from {src}")
    return sm, elapsed


class CliHarness:
    """cli-oneshot: each op is one CLI command in a fresh interpreter."""

    def __init__(self, inputs, root: Path, scratch: Path, env: dict):
        self.runner = workloads.CliRunner(root / "src", scratch, env)
        self.sm = None
        self.import_s = None

    def warm_up(self, ops):
        teleport = next(op for op in ops if op["command"] == "teleport")
        self.execute(teleport)

    def execute(self, op):
        return self.runner.run(op)

    def check(self, op, raw) -> Outcome:
        return workloads.check_cli(op, *raw)


class InProcessCliHarness(CliHarness):
    """cli-oneshot, traced: spinmap.cli.main(argv) in this process."""

    def __init__(self, inputs, root, scratch, env):
        super().__init__(inputs, root, scratch, env)
        self.sm, self.import_s = import_spinmap(root / "src")

    def execute(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.sm.cli.main(self.runner.argv(op))
        return code, out.getvalue().encode(), err.getvalue().encode()


class EngineHarness:
    def __init__(self, inputs, root, scratch, env):
        self.sm, self.import_s = import_spinmap(root / "src")

    def warm_up(self, ops):
        seen = set()
        for op in ops:
            if op["kind"] not in seen:
                seen.add(op["kind"])
                self.check(op, self.execute(op))

    def execute(self, op):
        return workloads.run_engine(self.sm, op)

    def check(self, op, raw) -> Outcome:
        return workloads.check_engine(self.sm, op, raw)


class GridHarness:
    def __init__(self, inputs, root, scratch, env):
        self.sm, self.import_s = import_spinmap(root / "src")

    def warm_up(self, ops):
        # load the linear-algebra and special-function code paths on a tiny grid
        op = dict(next(op for op in ops if op["kind"] == "grid"), model="lorentzian",
                  b=1.0, s=1.0)
        medium, drive, _ = workloads.grid_inputs(self.sm, op, 8)
        grid = self.sm.GridSpec(nz=8, ntau=8, tau_max=workloads.GRID_TAU_MAX)
        table, _ = self.sm.dynamics.simulate_grid(medium, drive, grid,
                                                  workloads.grid_model(self.sm, op))
        workloads.ref_light_kernel(workloads.area_nodes(None, 1.0, table.tau), table.tau)

    def execute(self, op):
        return workloads.run_grid(self.sm, op)

    def check(self, op, raw) -> Outcome:
        return workloads.check_grid(self.sm, op, raw)


def make_harness(workload: str, traced: bool):
    if workload == "cli-oneshot":
        return InProcessCliHarness if traced else CliHarness
    if workload == "engine-sweep":
        return EngineHarness
    return GridHarness


class Loop:
    """Closed loop over whole cycles of ops; one op in flight at a time.

    Checks run outside the timed region, on every repeat.  An op's output
    must also match, byte for byte, what the same op produced the first time.
    The host's speed is probed between blocks of about BLOCK_S of op time;
    each latency is also kept scaled by the probes around its block.
    """

    def __init__(self, harness, ops, rec=None):
        self.harness = harness
        self.ops = ops
        self.rec = rec
        self.first: dict[int, Outcome] = {}
        self.latencies: list[float] = []
        self.scaled: list[float] = []   # latencies in reference seconds
        self.probes: list[float] = []
        self.failed = 0
        self.failures: list[str] = []
        self.worst = (0.0, "")  # worst error/tolerance over all checks, and its check

    def _one(self, index: int, op: dict) -> None:
        rec = self.rec
        if rec is not None:
            rec.op = len(self.latencies)
            rec.open("op")
        start = time.perf_counter()
        try:
            raw = self.harness.execute(op)
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            raw, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if rec is not None:
            rec.close()
            rec.enabled = False
        self.latencies.append(elapsed)
        outcome = Outcome(digest="", error=error)
        if error is None:
            try:
                outcome = self.harness.check(op, raw)
            except Exception as exc:  # output the checks cannot read fails the op
                outcome.error = f"unreadable output: {type(exc).__name__}: {exc}"
        if rec is not None:
            rec.enabled = True
        known = self.first.setdefault(index, outcome)
        if outcome.error is None and outcome.digest != known.digest:
            outcome = Outcome(digest=outcome.digest, error="output differs on repeat")
        self.worst = max([self.worst] + [(c.ratio, c.name) for c in outcome.checks])
        if not outcome.ok:
            self.failed += 1
            if len(self.failures) < 20:
                bad = [f"{c.name} err={c.error:.3g} tol={c.tol:.3g}"
                       for c in outcome.checks if not c.ok]
                self.failures.append(f"op {index} {op.get('command', op['kind'])}: "
                                     f"{outcome.error or '; '.join(bad)}")

    def _probe(self) -> None:
        pace = probe_s()
        if self.probes and len(self.scaled) < len(self.latencies):
            scale = speed_scale(self.probes[-1], pace)
            self.scaled += [t * scale for t in self.latencies[len(self.scaled):]]
        self.probes.append(pace)

    def run(self, seconds: float, min_cycles: int) -> float:
        """Repeat whole cycles until ``seconds`` of op time have passed."""
        busy0 = sum(self.latencies)
        cycles, block = 0, 0.0
        self._probe()
        while cycles < min_cycles or sum(self.latencies) - busy0 < seconds:
            for index, op in enumerate(self.ops):
                self._one(index, op)
                block += self.latencies[-1]
                if block >= BLOCK_S:
                    self._probe()
                    block = 0.0
            cycles += 1
        if block:
            self._probe()
        return sum(self.latencies) - busy0


def heldout_checks(harness, ops) -> tuple[tuple, int, list[str]]:
    """Run the held-out set once, untimed: worst error/tolerance and failures."""
    worst, failed, notes = (0.0, ""), 0, []
    for op in ops:
        try:
            outcome = harness.check(op, harness.execute(op))
        except Exception as exc:  # counted as a failed op
            outcome = Outcome(digest="", error=f"{type(exc).__name__}: {exc}")
        worst = max([worst] + [(c.ratio, c.name) for c in outcome.checks]
                    + ([(math.inf, "error")] if outcome.error else []))
        if not outcome.ok:
            failed += 1
            notes.append(f"held-out {op.get('command', op['kind'])}: {outcome.error or ''} "
                         + "; ".join(f"{c.name} err={c.error:.3g}" for c in outcome.checks
                                     if not c.ok))
    return worst, failed, notes


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--scratch", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)
    root, scratch = Path(args.root), Path(args.scratch)

    inputs = workloads.generate(args.workload, args.seed)
    harness = make_harness(args.workload, args.mode == "trace")(
        inputs, root, scratch, env=dict(os.environ))
    ops = inputs["cycle"]
    harness.warm_up(ops)
    first_op_at = time.monotonic()
    result = {"first_op_at": first_op_at, "import_s": harness.import_s}
    if args.mode == "setup":
        result["probe_s"] = probe_s()
        _write(args.result, result)
        return 0

    if harness.sm is not None:
        result["blas_threads"] = blas_threads()
    if args.mode == "measure":
        loop = Loop(harness, ops)
        busy = loop.run(args.seconds, min_cycles=2)
        result.update(latencies=loop.latencies, busy_s=busy, scaled=loop.scaled,
                      probes=loop.probes)
    else:
        from spans import Recorder, install, layer_metrics
        # alternate untraced and traced cycles, so drift hits both alike
        plain, rec = Loop(harness, ops), Recorder()
        loop = Loop(harness, ops, rec)
        plain_busy = busy = 0.0
        while min(plain_busy, busy) < args.seconds / 2:
            plain_busy += plain.run(0.0, min_cycles=1)
            uninstall = install(rec)
            busy += loop.run(0.0, min_cycles=1)
            uninstall()
        layers = layer_metrics(rec, len(loop.latencies))
        layers["trace.op_wall_s"] = busy / len(loop.latencies)
        # the share tracing adds, from speed-scaled times so host drift between
        # the two kinds of cycle cancels, applied to the traced op time
        share = 1.0 - (sum(plain.scaled) / len(plain.scaled)) / (sum(loop.scaled) / len(loop.scaled))
        layers["trace.overhead_s"] = layers["trace.op_wall_s"] * share
        rec.write(Path(args.result).with_suffix(".spans.jsonl"))
        result.update(latencies=loop.latencies, busy_s=busy, layers=layers,
                      missing=sorted(rec.missing), untraced_ops=len(plain.latencies))
        loop.failed += plain.failed
        loop.failures += plain.failures

    heldout_worst, heldout_failed, notes = heldout_checks(harness, inputs["heldout"])
    worst = max(loop.worst, heldout_worst)
    result.update(
        inputs=inputs,
        failed=loop.failed + heldout_failed,
        attempted=len(loop.latencies) + result.get("untraced_ops", 0) + len(inputs["heldout"]),
        failures=loop.failures + notes,
        ref_err_ratio=worst[0],
        worst_check=worst[1],
        heldout_ref_err_ratio=heldout_worst[0],
        peak_rss_mb=peak_rss_mb(),
    )
    _write(args.result, result)
    return 0


def _write(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, allow_nan=True)


if __name__ == "__main__":
    sys.exit(main())
