"""Self-checks of the benchmark's own helpers; run.py runs them before every run.

    PYTHONPATH=src python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from ops import Context, run_op  # noqa: E402
from stats import covered, self_times, tail  # noqa: E402
from tracing import Tracer  # noqa: E402


class SelfCheckError(Exception):
    pass


def _expect(ok, what):
    if not ok:
        raise SelfCheckError(what)


def check_tail():
    """The tail rule: the highest percentile with at least 10 samples beyond it."""
    t = tail(range(1, 101))
    _expect((t["value"], t["percentile"], t["beyond"], t["n"]) == (90, 90.0, 10, 100),
            f"tail of 1..100 should be p90 = 90 with 10 beyond, got {t}")
    t = tail([5.0] * 10 + [1.0])
    _expect((t["value"], t["beyond"]) == (1.0, 10), f"tail of 11 samples is the minimum, got {t}")
    t = tail([3.0, 1.0, 2.0])
    _expect((t["value"], t["percentile"], t["beyond"]) == (3.0, 100.0, 0),
            f"with 10 or fewer samples the tail is the maximum, got {t}")


def check_self_time():
    _expect(covered((0, 10), [(1, 3), (2, 5), (8, 12), (11, 13)]) == 6,
            "overlapping and overhanging children must cover [1,5] and [8,10]")
    spans = [(0, None, "op", 0, 10), (1, 0, "a", 1, 3), (2, 0, "b", 2, 5), (3, 2, "c", 3, 4)]
    _expect(self_times(spans) == {0: 6, 1: 2, 2: 2, 3: 1}, "self time of nested spans")

    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    for step in ("a", "b", None, "c", "d", None, None, None):
        tracer.enter(step) if step else tracer.exit()
    expected = {"a": (10.0, 4.0), "b": (2.0, 2.0), "c": (4.0, 3.0), "d": (1.0, 1.0)}
    got = {name: (t[1], t[2]) for name, t in tracer.totals.items()}
    _expect(got == expected, f"tracer totals {got}, expected {expected}")
    names = {sid: name for sid, _, name, _, _ in tracer.spans}
    recomputed = {names[sid]: s for sid, s in self_times(tracer.spans).items()}
    _expect(recomputed == {k: v[1] for k, v in expected.items()},
            f"tracer self times {recomputed} disagree with the span records")


def check_failure_counting(ctx: Context):
    bad = run_op(ctx, "graphs", [["graphs", "--n", "6", "--q", "1/2", "--p", "4", "--trials", "1",
                                  "--seed", "{seed}", "--output", "{out}"]], 1, "selfcheck-bad")
    _expect(not bad["ok"] and bad["errors"][0].startswith("graphs: exit 2"),
            f"graphs --p 4 must count as a failed op with exit 2, got {bad['errors']}")
    good = run_op(ctx, "exact", [["verify", "--suite", "recursions", "--p", "2", "--a-max", "3"]],
                  1, "selfcheck-good")
    _expect(good["ok"], f"a passing op must not count as failed, got {good['errors']}")


def check_spec(bench: dict, spec: dict):
    names = [w["name"] for w in bench["workloads"]]
    _expect(sorted(names) == sorted(spec["workloads"]),
            f"BENCHMARK.json workloads {names} differ from spec.json {sorted(spec['workloads'])}")
    known = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]
             + spec["reported_end_to_end"]["metrics"]}
    for row in spec["predictions"]:
        for metric in row["layer_metrics"] + row["moves"]:
            _expect(metric in known, f"prediction names unknown metric {metric!r}")
        _expect(set(row["on"]) <= set(names), f"prediction names unknown workloads {row['on']}")


def run_all(ctx: Context, bench: dict, spec: dict):
    check_tail()
    check_self_time()
    check_spec(bench, spec)
    check_failure_counting(ctx)


def main() -> int:
    root = HERE.parent
    with open(root / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    with open(HERE / "spec.json") as fh:
        spec = json.load(fh)
    with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench_selfcheck") as tmp:
        run_all(Context(root=root, tmp=Path(tmp), deadline=time.monotonic() + 120), bench, spec)
    print("self-checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
