"""Summarize benchmark runs and judge a change against its parent.

    python3 bench/compare.py summarize OUT/runs [--json FILE]
    python3 bench/compare.py compare OUT/parent OUT/change

Input directories are laid out by sweep.py: <workload>/seed<N>-t<trace>.json.

``summarize`` gives, per workload and metric, the median and quartiles of
the runs, and the spread (inter-quartile distance over the median) against
the metric's bound.

``compare`` pairs runs by seed and gives a verdict per workload and
end-to-end metric:

* regression  -- any run of the change failed an op (``correct`` false):
                 every metric of that workload, whatever its timings;
* gain        -- at least 10 pairs, run in alternating order; the change
                 wins at least 9 in 10 (ties count for neither side); and
                 the medians differ by more than the parent's quartile gap;
* regression  -- the change's median is worse than the parent's by more
                 than the bound BENCHMARK.json fixes;
* unresolved  -- either side's spread exceeds the bound, unless every run
                 of the change is better than every run of the parent;
* same        -- none of the above.

Per-layer figures of traced runs are listed with their quartiles only.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stats import quartiles, spread  # noqa: E402

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: Path) -> dict[str, dict[int, dict]]:
    """workload -> trace -> seed -> record."""
    runs: dict = {}
    for path in sorted(directory.glob("*/seed*-t*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault(record["workload"], {}).setdefault(record["trace"], {})[
            record["seed"]] = record
    return runs


def _values(records, name):
    return [r["metrics"][name] for r in records if r["metrics"].get(name) is not None]


def summarize(directory: Path) -> dict:
    out = {}
    for workload, by_trace in load(directory).items():
        for trace, by_seed in by_trace.items():
            records = list(by_seed.values())
            specs = PER_LAYER if trace else END_TO_END
            for name, spec in specs.items():
                values = _values(records, name)
                if not values:
                    out.setdefault(workload, {})[name] = {"unit": spec["unit"], "n": 0,
                                                          "missing": True}
                    continue
                q1, med, q3 = quartiles(values)
                row = {"unit": spec["unit"], "n": len(values), "q1": q1, "median": med, "q3": q3}
                if "bound" in spec:
                    row["spread"] = spread(values)
                    row["bound"] = spec["bound"]
                out.setdefault(workload, {})[name] = row
            if not trace:
                out[workload]["runs_correct"] = all(r["correct"] for r in records)
                out[workload]["seeds"] = sorted(by_seed)
    return out


def _better(spec, a: float, b: float) -> bool:
    """Is a better than b?"""
    return a < b if spec["better"] == "lower" else a > b


def verdict(spec, parent: list[dict], change: list[dict]) -> dict:
    """Judge one end-to-end metric on one workload; records paired by index."""
    name = spec["name"]
    p_vals = [r["metrics"][name] for r in parent]
    c_vals = [r["metrics"][name] for r in change]
    p_q1, p_med, p_q3 = quartiles(p_vals)
    c_q1, c_med, c_q3 = quartiles(c_vals)
    wins = sum(_better(spec, c, p) for c, p in zip(c_vals, p_vals))
    firsts = [p["started_at"] < c["started_at"] for p, c in zip(parent, change)]
    alternating = all(a != b for a, b in zip(firsts, firsts[1:]))
    pairs = len(p_vals)
    row = {"pairs": pairs, "wins": wins, "alternating": alternating,
           "parent": [p_q1, p_med, p_q3], "change": [c_q1, c_med, c_q3]}
    bound = spec["bound"]
    worse_by = (c_med - p_med) if spec["better"] == "lower" else (p_med - c_med)
    all_better = all(_better(spec, c, p) for c in c_vals for p in p_vals)
    noisy = max(spread(p_vals), spread(c_vals)) > bound
    if not all(r["correct"] for r in change):
        row["verdict"] = "regression"  # wrong outputs outweigh any timing
    elif (pairs >= MIN_PAIRS and alternating and wins >= WIN_SHARE * pairs
            and _better(spec, c_med, p_med) and abs(c_med - p_med) > p_q3 - p_q1):
        row["verdict"] = "gain"
    elif worse_by > bound * abs(p_med):
        row["verdict"] = "regression"
    elif noisy and not all_better:
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "same"
    return row


def compare(parent_dir: Path, change_dir: Path) -> dict:
    parent, change = load(parent_dir), load(change_dir)
    out = {}
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload].get(0, {}), change[workload].get(0, {})
        seeds = sorted(set(p_runs) & set(c_runs))
        if not seeds:
            continue
        rows = {name: verdict(spec, [p_runs[s] for s in seeds], [c_runs[s] for s in seeds])
                for name, spec in END_TO_END.items()}
        rows["correct"] = all(p_runs[s]["correct"] and c_runs[s]["correct"] for s in seeds)
        # per-layer figures of traced runs: quartiles only, no verdict
        p_traced, c_traced = parent[workload].get(1, {}), change[workload].get(1, {})
        for name in PER_LAYER:
            p_vals = _values(p_traced.values(), name)
            c_vals = _values(c_traced.values(), name)
            if p_vals and c_vals:
                rows[name] = {"verdict": "-", "pairs": min(len(p_vals), len(c_vals)),
                              "wins": "-", "alternating": "-",
                              "parent": list(quartiles(p_vals)), "change": list(quartiles(c_vals))}
        out[workload] = rows
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("summarize")
    s.add_argument("runs", type=Path)
    s.add_argument("--json", type=Path)
    c = sub.add_parser("compare")
    c.add_argument("parent", type=Path)
    c.add_argument("change", type=Path)
    args = p.parse_args(argv)

    if args.cmd == "summarize":
        table = summarize(args.runs)
        for workload, rows in table.items():
            for name, row in rows.items():
                if not isinstance(row, dict):
                    print(f"{workload:14s} {name:38s} {row}")
                elif row.get("missing"):
                    print(f"{workload:14s} {name:38s} missing")
                else:
                    extra = (f" spread={row['spread']:.4f} bound={row['bound']}"
                             if "spread" in row else "")
                    print(f"{workload:14s} {name:38s} n={row['n']:2d} q1={row['q1']:.6g} "
                          f"median={row['median']:.6g} q3={row['q3']:.6g} {row['unit']}{extra}")
        if args.json:
            # the CLI workload's own process loads no BLAS; prefer a record that did
            records = [r for by_trace in load(args.runs).values()
                       for by_seed in by_trace.values() for r in by_seed.values()]
            facts = max((r["facts"] for r in records), key=lambda f: bool(f["blas_threads"]))
            args.json.write_text(json.dumps({"facts": facts, "summary": table}, indent=1) + "\n",
                                 encoding="utf-8")
        return 0

    result = compare(args.parent, args.change)
    for workload, rows in result.items():
        for name, row in rows.items():
            if name == "correct":
                print(f"{workload:14s} all runs correct: {row}")
                continue
            print(f"{workload:14s} {name:38s} {row['verdict']:10s} pairs={row['pairs']} "
                  f"wins={row['wins']} alternating={row['alternating']} "
                  f"parent(q1,med,q3)={[f'{v:.5g}' for v in row['parent']]} "
                  f"change={[f'{v:.5g}' for v in row['change']]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
