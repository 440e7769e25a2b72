"""Regenerate perfbench/golden.json: output digests at the default seed.

    python3 perfbench/make_golden.py

Runs the first GOLDEN_OPS ops of the seeded workloads, one job of the
seed-independent ones, and every probe command, and records the sha256 of
each command's payload and standard output under its rendered command line.
A run whose command line appears in golden.json must reproduce those bytes.
Regenerate only when a change is meant to alter output bytes.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from ops import Context, golden_key, op_seed, run_op  # noqa: E402
from run import DEFAULT_SEED  # noqa: E402

GOLDEN_OPS = 48  # more ops than a 30 s run of any workload reaches


def main() -> int:
    with open(HERE / "spec.json") as fh:
        spec = json.load(fh)
    root = HERE.parent
    golden = {}
    jobs = []
    for name, workload in spec["workloads"].items():
        seeded = any("{seed}" in tok for cmd in workload["commands"] for tok in cmd)
        for i in range(GOLDEN_OPS if seeded else 1):
            jobs.append((name, workload["commands"], op_seed(DEFAULT_SEED, i)))
    for name, commands in spec["probe"].items():
        jobs.append((name, commands, op_seed(DEFAULT_SEED, 0)))

    ctx = Context(root=root, tmp=root / ".perfbench_tmp" / "golden",
                  deadline=time.monotonic() + 3600)
    try:
        for n, (name, commands, seed) in enumerate(jobs):
            op = run_op(ctx, name, commands, seed, f"golden{n}")
            if not op["ok"]:
                print(f"{name} seed {seed} failed: {op['errors']}", file=sys.stderr)
                return 1
            for template, digests in zip(commands, op["digests"]):
                golden[golden_key(template, seed)] = digests
    finally:
        shutil.rmtree(ctx.tmp.parent, ignore_errors=True)
    with open(HERE / "golden.json", "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(golden)} command digests written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
