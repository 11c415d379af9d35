"""Order statistics and the host-speed probe shared by the harness (stdlib only)."""

from __future__ import annotations

import math
import statistics
import time

# The reference host (2 shared vCPUs) switches between speeds up to half
# apart within a second, and every timing with it.  A short pure-Python loop,
# timed next to the ops, tracks that speed; timings are reported scaled to the
# speed at which the loop takes PROBE_REF_S, its time on that host when idle.
PROBE_LOOPS = 10_000
PROBE_REF_S = 0.625e-3

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def nearest_rank(sorted_values, pct: float):
    """Value at percentile ``pct`` by the nearest-rank rule, and its rank."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], rank


def tail_percentile(values) -> tuple[float, float, int]:
    """Highest percentile with at least MIN_BEYOND samples beyond it.

    Returns (percentile, value, samples beyond).  With fewer than
    2 * MIN_BEYOND samples no percentile qualifies and the median is
    returned with its true count beyond.
    """
    ordered = sorted(values)
    for pct in TAIL_PERCENTILES:
        value, rank = nearest_rank(ordered, pct)
        if len(ordered) - rank >= MIN_BEYOND:
            return pct, value, len(ordered) - rank
    value, rank = nearest_rank(ordered, 50.0)
    return 50.0, value, len(ordered) - rank


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def probe_s() -> float:
    """Median of three timings of a fixed pure-Python loop: the host's pace now."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def speed_scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two probes into reference seconds."""
    return PROBE_REF_S / (0.5 * (before + after))
