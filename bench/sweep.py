"""Run the benchmark over many seeds, on one checkout or two in alternation.

    python3 bench/sweep.py --out /tmp/sweep --seeds 1-10
    python3 bench/sweep.py --out /tmp/ab --checkout ../parent --checkout . --seeds 1-10

With two checkouts (parent first, change second) every seed runs on both,
and which side goes first alternates from seed to seed.  Each run's record
lands in OUT/<label>/<workload>/seed<N>-t<trace>.json, where compare.py
reads it.  Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    records = sorted((checkout / ".bench_out" / "results").glob(
        f"{workload}-s{seed}-t{trace}-*.json"), key=lambda p: p.stat().st_mtime)
    record = json.loads(records[-1].read_text(encoding="utf-8"))
    record["printed"] = json.loads(lines[-1])
    record["wall_s"] = time.time() - start
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--checkout", action="append", type=Path,
                   help="checkout root; give two for parent/change pairs (default .)")
    p.add_argument("--seeds", default="1-10", type=seed_list)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    checkouts = [c.resolve() for c in (args.checkout or [Path(".")])]
    if len(checkouts) > 2:
        p.error("at most two checkouts: parent and change")
    labels = ["parent", "change"] if len(checkouts) == 2 else ["runs"]

    for i, seed in enumerate(args.seeds):
        order = list(zip(labels, checkouts))
        if i % 2:
            order.reverse()
        for workload in WORKLOADS:
            for label, checkout in order:
                record = run_one(checkout, workload, seed, spec["run_seconds"], args.trace)
                dest = args.out / label / workload / f"seed{seed}-t{args.trace}.json"
                dest.parent.mkdir(parents=True, exist_ok=True)
                dest.write_text(json.dumps(record), encoding="utf-8")
                shown = {k: round(v["value"], 6) if v["value"] is not None else None
                         for k, v in record["printed"]["metrics"].items()}
                print(f"{label} {workload} seed={seed} correct={record['correct']} "
                      f"wall={record['wall_s']:.1f}s {shown}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
