"""Paired benchmark runs of two checkouts, recorded as BENCH_<issue>.json.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --issue N \
        --workload graphs,sample,exact --pairs 10 [--seed 1]

Runs ``perfbench/run.py --trace 0`` at its own run length in the parent
checkout and in the change checkout, alternately, for the given number of
pairs; the first of each pair alternates between the two sides.  A
comma-separated list of workloads runs each workload's pairs in turn.  Each run's
last stdout line is its result object.  For every end-to-end metric,
``BENCH_<issue>.json`` in the change checkout gets both sides' medians,
quartiles and values, the pair values in run order and the number of pairs
the change won (ties count for neither side), plus each run's attempted and
failed op counts, the Python version and the CPU count.  Each workload, in
the same call or a later one, adds an entry to the same file, written as soon
as its pairs finish; a seed other than 1 is keyed "<workload>, seed <seed>".
Exits 1 if any run failed an output check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """The result object of one plain benchmark run in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=checkout, env=dict(os.environ, PYTHONPATH=str(checkout / "src")),
        capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"no result from {checkout}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def compare(pairs: list, better: str) -> dict:
    """Medians, quartiles and wins of (parent, change) value pairs."""
    parent, change = [p for p, _ in pairs], [c for _, c in pairs]
    sign = 1 if better == "higher" else -1
    return {"better": better, "parent": summary(parent), "change": summary(change),
            "pairs": [[p, c] for p, c in pairs],
            "change_wins": sum(sign * (c - p) > 0 for p, c in pairs)}


def run_pairs(parent: Path, change: Path, workload: str, seed: int, pairs: int) -> dict:
    """Both sides' result objects, the first of each pair alternating."""
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = parent if side == "parent" else change
            runs[side].append(run_once(checkout, workload, seed))
            print(f"{workload} pair {i + 1}/{pairs} {side}: "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in runs[side][-1]["metrics"].items()),
                  file=sys.stderr, flush=True)
    return runs


def entry(runs: dict, declared: list, seed: int, pairs: int) -> dict:
    """One workload's record: run counts and every declared metric compared."""
    result = {"seed": seed, "pairs": pairs,
              "first_of_pair": "parent on odd pairs, change on even pairs",
              "runs": {side: [{"attempted": r["attempted"], "failed": r["failed"]} for r in rs]
                       for side, rs in runs.items()}}
    for metric in declared:
        name = metric["name"]
        values = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                  for p, c in zip(runs["parent"], runs["change"])]
        result[name] = compare(values, metric["better"])
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--issue", required=True, type=int)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    out = args.change / f"BENCH_{args.issue}.json"
    declared = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    correct = True
    for workload in args.workload.split(","):
        runs = run_pairs(args.parent, args.change, workload, args.seed, args.pairs)
        record = json.loads(out.read_text()) if out.is_file() else {"issue": args.issue}
        record.update(python=platform.python_version(), nproc=os.cpu_count())
        key = workload if args.seed == 1 else f"{workload}, seed {args.seed}"
        record.setdefault("workloads", {})[key] = entry(runs, declared, args.seed, args.pairs)
        out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        correct &= all(r["correct"] for rs in runs.values() for r in rs)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
