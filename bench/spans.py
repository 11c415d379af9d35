"""In-memory span recorder and the wrappers installed at the layers' bindings.

A span is (name, start, end, parent, op).  Spans nest on one thread, so a
stack gives each span its parent and its self time (duration minus the part
covered by child spans).  Wrappers replace module attributes, the names the
package itself looks up at call time, so calls made inside the package are
recorded too.  Nothing in the package is edited.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

from workloads import distinct_segment_rates

ROOT = "op"  # the harness span around one operation


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []   # (name, start, end, parent, op, self_time, nested)
        self._stack: list[list] = []   # [index, name, start, child_time]
        self.op = -1
        self.enabled = True
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: set[str] = set()

    def open(self, name: str) -> None:
        self._stack.append([len(self.spans), name, time.perf_counter(), 0.0])
        self.spans.append(None)  # placeholder keeps indices in start order

    def close(self) -> None:
        end = time.perf_counter()
        index, name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1][0] if self._stack else -1
        if self._stack:
            self._stack[-1][3] += duration
        # a span inside one of the same name (quadrature inside quadrature)
        # adds no inclusive time of its own
        nested = any(frame[1] == name for frame in self._stack)
        self.spans[index] = (name, start, end, parent, self.op, duration - child, nested)

    def totals(self):
        """Per span name: calls, inclusive time, self time."""
        calls, incl, self_t = defaultdict(int), defaultdict(float), defaultdict(float)
        for name, start, end, _, _, self_time, nested in self.spans:
            calls[name] += 1
            incl[name] += 0.0 if nested else end - start
            self_t[name] += self_time
        return calls, incl, self_t

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, *_ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _wrapped(rec: Recorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            rec.counters[name + ".failures"] += 1
            raise
        finally:
            rec.close()
        if after is not None:
            after(rec, result, args)
        return result
    return wrapper


def _quad_result(rec, result, args):
    rec.counters["specfun.quad.evals"] += result.evaluations
    rec.counters["specfun.quad.err_sum"] += result.error_estimate


def _grid_drive(rec, result, args):
    _, drive, grid, _ = args
    rec.counters["dynamics.distinct_rates"] += distinct_segment_rates(drive, grid.tau_max)


# (module, attribute, span name, hook after a successful call)
BINDINGS = (
    ("spinmap.cli", "main", "cli.main", None),
    ("spinmap.cli", "check_feasibility", "model.check_feasibility", None),
    ("spinmap.teleport", "coupling_r", "teleport.coupling_r", None),
    ("spinmap.mapping", "variance_closed", "mapping.variance_closed", None),
    ("spinmap.mapping", "eta_closed", "mapping.eta_closed", None),
    ("spinmap.mapping", "transmitted_spectrum", "mapping.transmitted_spectrum", None),
    ("spinmap.mapping", "atomic_spectral_density", "mapping.atomic_spectral_density", None),
    ("spinmap.mapping", "variance_spectral", "mapping.variance_spectral", None),
    ("spinmap.mapping", "efficiency_curve", "mapping.efficiency_curve", None),
    ("spinmap.mapping", "integrate_adaptive", "specfun.quad", _quad_result),
    ("spinmap.dynamics", "integrate_adaptive", "specfun.quad", _quad_result),
    ("spinmap.dynamics", "expm", "dynamics.expm", None),
    ("spinmap.dynamics", "transient_variance", "dynamics.transient_variance", None),
    ("spinmap.dynamics", "simulate_grid", "dynamics.simulate_grid", _grid_drive),
    ("spinmap.dynamics", "light_kernel_convergence", "dynamics.light_kernel_convergence", None),
    ("spinmap.dynamics", "light_kernel_reference", "dynamics.light_kernel_reference", None),
)


def install(rec: Recorder):
    """Wrap every binding that exists and record the ones that do not.

    Returns a function that puts the original bindings back.
    """
    saved = []
    for module_name, attr, name, after in BINDINGS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            rec.missing.add(name)
            continue
        saved.append((module, attr, fn))
        setattr(module, attr, _wrapped(rec, name, fn, after))
    run_config = getattr(importlib.import_module("spinmap.config"), "RunConfig", None)
    if run_config is None or "from_file" not in vars(run_config):
        rec.missing.add("config.from_file")
    else:
        original = vars(run_config)["from_file"]
        saved.append((run_config, "from_file", original))
        run_config.from_file = classmethod(_wrapped(rec, "config.from_file", original.__func__))

    def uninstall():
        for owner, attr, original in saved:
            setattr(owner, attr, original)
    return uninstall


# per-layer metric -> (source, span or counter names); "per op" unless noted
LAYER_METRICS = {
    "cli.main_s": ("incl", "cli.main"),
    "cli.self_s": ("self", "cli.main"),
    "config.from_file_s": ("incl", "config.from_file"),
    "model.check_feasibility_s": ("incl", "model.check_feasibility"),
    "teleport.coupling_r_s": ("incl", "teleport.coupling_r"),
    "mapping.variance_spectral.calls": ("calls", "mapping.variance_spectral"),
    "mapping.variance_spectral_s": ("incl", "mapping.variance_spectral"),
    "mapping.efficiency_curve_s": ("incl", "mapping.efficiency_curve"),
    "dynamics.transient_variance.calls": ("calls", "dynamics.transient_variance"),
    "dynamics.transient_variance_s": ("incl", "dynamics.transient_variance"),
    "specfun.quad.calls": ("calls", "specfun.quad"),
    "specfun.quad.evals": ("counter", "specfun.quad.evals", "specfun.quad"),
    "specfun.quad_s": ("incl", "specfun.quad"),
    "specfun.quad.err_sum": ("counter", "specfun.quad.err_sum", "specfun.quad"),
    "specfun.quad.failures": ("counter", "specfun.quad.failures", "specfun.quad"),
    "dynamics.simulate_grid.calls": ("calls", "dynamics.simulate_grid"),
    "dynamics.simulate_grid_s": ("incl", "dynamics.simulate_grid"),
    "dynamics.expm.calls": ("calls", "dynamics.expm"),
    "dynamics.expm_s": ("incl", "dynamics.expm"),
    # simulate_grid self time: everything in it but the expm spans
    "dynamics.propagate_s": ("self", "dynamics.simulate_grid"),
    "dynamics.light_kernel_convergence_s": ("incl", "dynamics.light_kernel_convergence"),
    "dynamics.light_kernel_reference_s": ("incl", "dynamics.light_kernel_reference"),
}


def layer_metrics(rec: Recorder, n_ops: int) -> dict[str, float | None]:
    """Per-op layer figures; None where a binding they need has gone."""
    calls, incl, self_t = rec.totals()
    out: dict[str, float | None] = {}
    for metric, (source, key, *binding) in LAYER_METRICS.items():
        if (binding[0] if binding else key) in rec.missing:
            out[metric] = None
            continue
        table = {"incl": incl, "self": self_t, "calls": calls, "counter": rec.counters}[source]
        out[metric] = table.get(key, 0) / n_ops
    if "specfun.quad" in rec.missing:
        out["specfun.evals_per_call"] = None
    else:
        quad_calls = calls.get("specfun.quad", 0)
        out["specfun.evals_per_call"] = (
            rec.counters["specfun.quad.evals"] / quad_calls if quad_calls else 0.0)
    if {"dynamics.expm", "dynamics.simulate_grid"} & rec.missing:
        out["dynamics.expm_useful_ratio"] = None
    else:
        expm_calls = calls.get("dynamics.expm", 0)
        out["dynamics.expm_useful_ratio"] = (
            3.0 * rec.counters["dynamics.distinct_rates"] / expm_calls if expm_calls else 0.0)
    # every layer's self time, the harness span excluded
    out["trace.layer_self_s"] = sum(v for k, v in self_t.items() if k != ROOT) / n_ops
    out["trace.unattributed_s"] = self_t.get(ROOT, 0.0) / n_ops
    return out
