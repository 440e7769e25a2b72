"""Order statistics and span arithmetic shared by the benchmark and its self-checks."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10  # a tail percentile needs at least this many samples above it


def median(values):
    return statistics.median(values)


def tail(values) -> dict:
    """The highest percentile of ``values`` with at least TAIL_BEYOND samples above it.

    With n sorted samples, the k-th smallest (1-based) has n - k samples above
    it, so the rule picks k = n - TAIL_BEYOND and reports percentile 100 k / n.
    With n <= TAIL_BEYOND no percentile qualifies; the maximum is reported
    and ``beyond`` says how many samples lie above it (none).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    k = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return {"value": ordered[k - 1], "percentile": 100.0 * k / n,
            "beyond": n - k, "n": n}


def covered(interval, children) -> float:
    """Length of the part of ``interval`` that the union of ``children`` covers."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in children if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """Self time per span id: its duration minus the part its child spans cover.

    ``spans`` are (id, parent_id, name, start, end) tuples; parent_id is None
    for a root span.
    """
    children: dict = {}
    for sid, parent, _name, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    return {sid: (end - start) - covered((start, end), children.get(sid, ()))
            for sid, _parent, _name, start, end in spans}
