"""clpart benchmark: closed-loop CLI workloads with output checks.

    python3 perfbench/run.py --workload {sample,graphs,exact} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (``src/clpart`` must exist).  One
client runs ops back to back for S seconds; each op's commands run in fresh
processes as users run them, and every output is checked.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json (and prints op_s_p50,
op_s_tail, trials_per_s and error_rate, which are not bounded), ``--trace 1``
the per-layer metrics, from a separate run that pairs each plain op with the
same op run under ``perfbench/tracing.py``.  Workload commands, reasons and
the layer -> end-to-end predictions are in ``perfbench/spec.json``.

The last line of standard output is the result object; the line before it
holds the details (environment, every op, the tail percentile, error rate).
The exit code is 0 when every output check passed, 1 when one failed, and 2
when the checkout holds no clpart sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from ops import Context, op_seed, reference_s, run_op, spawn  # noqa: E402
from stats import median, tail  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 11
# Median wall seconds of perfbench/reference.py on a quiet host (2 vCPUs,
# Python 3.11.7); set-up times are reported at that host speed.
REF_QUIET_S = 0.09
RUN_BUDGET_S = 170.0  # hard stop for everything a run starts


def _load(path: Path):
    with open(path) as fh:
        return json.load(fh)


def git_commit(root: Path):
    """HEAD of the checkout, read from .git without running git; None outside git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(root: Path, version: str) -> dict:
    return {
        "python": platform.python_version(),
        "executable": sys.executable,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "clpart_version": version,
        "git_commit": git_commit(root),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def warm_up(ctx: Context) -> str:
    """Import clpart.cli once, untimed, so bytecode is cached; returns clpart.__version__."""
    out = ctx.tmp / "version.txt"
    proc = spawn(ctx, [ctx.python, "-c", "import clpart, clpart.cli; print(clpart.__version__)"],
                 out, 60.0)
    if proc["rc"] != 0:
        raise RuntimeError(f"importing clpart.cli failed: {(ctx.tmp / 'version.txt.err').read_text()}")
    return out.read_text().strip()


def setup_sample(ctx: Context) -> tuple[float, float]:
    """Wall seconds of a fresh process that imports clpart.cli and exits, and
    of the reference job run right after it."""
    out = ctx.tmp / "setup.txt"
    return (spawn(ctx, [ctx.python, "-c", "import clpart.cli"], out, 60.0)["wall_s"],
            reference_s(ctx, out))


def _op_summary(op) -> dict:
    return {k: op[k] for k in ("tag", "seed", "wall_s", "command_s", "ref_s", "rss_mb", "ok", "errors")}


def timed_run(ctx: Context, workload: dict, seed: int, seconds: float) -> dict:
    """Ops back to back for ``seconds``, with set-up and reference samples interleaved."""
    ops, setups = [], []
    start = time.perf_counter()
    while not ops or (time.perf_counter() - start < seconds and time.monotonic() < ctx.deadline):
        if len(setups) < SETUP_REPEATS:
            setups.append(setup_sample(ctx))
        i = len(ops)
        ops.append(run_op(ctx, workload["name"], workload["commands"], op_seed(seed, i), f"op{i}",
                          reference=True))
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_sample(ctx))
    good = [op for op in ops if op["ok"]] or ops
    walls = [op["wall_s"] for op in good]
    # Each command is paired with the reference job run right before it, so
    # the ratio cancels the host's drift; the median is over ops.
    metrics = {
        "op_vs_ref": median([op["wall_s"] / sum(op["ref_s"]) for op in good]),
        "setup_s": REF_QUIET_S * median([s / ref for s, ref in setups]),
        "peak_rss_mb": max(op["rss_mb"] for op in ops),
        "success_rate": sum(op["ok"] for op in ops) / len(ops),
    }
    # Reported, not bounded: on a shared host they swing with the neighbours' load.
    op_tail = tail(walls)
    also = {"op_s_p50": (median(walls), "s"), "op_s_tail": (op_tail["value"], "s")}
    if "trials_per_op" in workload:
        also["trials_per_s"] = (workload["trials_per_op"] * len(good) / sum(walls), "1/s")
    return {"ops": ops, "metrics": metrics, "also": also,
            "details": {"op_s_tail": op_tail, "setup_s_raw": median([s for s, _ in setups]),
                        "setup_pairs": setups,
                        "ops": [_op_summary(op) for op in ops]}}


# Per-layer metric -> the span whose calls show that the workload's own ops
# reached the layer.  Layers an op never reaches are measured on the probe.
LAYER_SOURCE = {
    "rng.substream.calls": "rng.substream",
    "rng.substream.busy_s": "rng.substream",
    "rng.draws": "rng.substream",
    "rng.draws_per_trial": "rng.substream",
    "rng.next_u64.busy_s": "rng.substream",
    "sampler.sample_partition.calls": "sampler.sample_partition",
    "sampler.sample_partition.busy_s": "sampler.sample_partition",
    "sampler.columns_per_sample": "sampler.sample_partition",
    "sampler.setup_s": "sampler.sample_partition",
    "sampler.kernel_rows": "sampler.kernel_row",
    "sampler.distinct_ratio": "sampler.sample_partition",
    "sampler.kernel_row.busy_s": "sampler.kernel_row",
    "sandpile.erdos_renyi.busy_s": "sandpile.erdos_renyi",
    "sandpile.is_connected.busy_s": "sandpile.is_connected",
    "sandpile.connected_ratio": "sandpile.is_connected",
    "sandpile.reduced_laplacian.busy_s": "sandpile.reduced_laplacian",
    "sandpile.plocal.calls": "sandpile.plocal",
    "sandpile.plocal.busy_s": "sandpile.plocal",
    "sandpile.capped": "sandpile.plocal",
    "sandpile.snf.busy_s": "sandpile.plocal",
    "sandpile.snf_agree": "sandpile.plocal",
    "partitions.enumerate_partitions.busy_s": "partitions.enumerate_partitions",
    "partitions.enumerated": "partitions.enumerate_partitions",
    "measures.tabulate.busy_s": "measures.tabulate",
    "measures.tabulate.entries": "measures.tabulate",
    "measures.to_json_dict.busy_s": "measures.to_json_dict",
    "measures.normalization.busy_s": "measures.normalization",
    "measures.size_length_layers.busy_s": "measures.size_length_layers",
    "measures.series_checks.busy_s": "measures.series_checks",
    "measures.solve_parts_recursion.busy_s": "measures.solve_parts_recursion",
    "qseries.odd_constant.busy_s": "qseries.odd_constant",
    "qseries.verify_euler_identity.busy_s": "qseries.verify_euler_identity",
    "qseries.verify_qbinomial.busy_s": "qseries.verify_qbinomial",
    "cli.import_s": "cli.main",
    "cli.serialize.busy_s": "cli.serialize",
    "cli.write.busy_s": "cli.write",
    "cli.output_bytes": "cli.write",
}


def merge_traces(traces) -> tuple[dict, dict]:
    """Sum span totals and counters over the processes of one op."""
    totals, counters = {}, {}
    for trace in traces:
        for name, (calls, busy, self_s, first) in trace["totals"].items():
            cur = totals.setdefault(name, [0, 0.0, 0.0, first])
            cur[0] += calls
            cur[1] += busy
            cur[2] += self_s
        for key, value in trace["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return totals, counters


def layer_values(totals: dict, counters: dict, processes: int) -> dict:
    def calls(name):
        return totals.get(name, (0,))[0]

    def busy(name):
        return totals[name][1] if name in totals else 0.0

    def per(count, name):
        return count / calls(name) if calls(name) else 0.0

    sample = totals.get("sampler.sample_partition")
    setup = 0.0
    if sample is not None:
        n, total, _, first = sample
        setup = first - ((total - first) / (n - 1) if n > 1 else 0.0)
    values = {name: busy(name[:-len(".busy_s")]) for name in LAYER_SOURCE if name.endswith(".busy_s")}
    values.update({
        "rng.substream.calls": calls("rng.substream"),
        "rng.draws": counters.get("draws", 0),
        "rng.draws_per_trial": per(counters.get("draws", 0), "rng.substream"),
        "rng.next_u64.busy_s": counters.get("replay_s", 0.0),
        "sampler.sample_partition.calls": calls("sampler.sample_partition"),
        "sampler.columns_per_sample": per(counters.get("columns", 0), "sampler.sample_partition"),
        "sampler.setup_s": setup,
        "sampler.kernel_rows": counters.get("kernel_rows", 0),
        "sampler.distinct_ratio": per(counters.get("distinct", 0), "sampler.sample_partition"),
        "sandpile.connected_ratio": per(counters.get("connected", 0), "sandpile.is_connected"),
        "sandpile.plocal.calls": calls("sandpile.plocal"),
        "sandpile.capped": counters.get("capped", 0),
        "sandpile.snf.busy_s": counters.get("snf_s", 0.0),
        "sandpile.snf_agree": counters.get("snf_agree", 0),
        "partitions.enumerated": counters.get("enumerated", 0),
        "measures.tabulate.entries": counters.get("entries", 0),
        "cli.import_s": counters.get("import_s", 0.0) / processes,
        "cli.output_bytes": counters.get("output_bytes", 0),
    })
    return values


def traced_run(ctx: Context, workload: dict, probes: dict, seed: int, seconds: float) -> dict:
    name, commands = workload["name"], workload["commands"]
    probe_ops = [run_op(ctx, other, cmds, op_seed(seed, 0), f"probe-{other}", traced=True)
                 for other, cmds in probes.items() if other != name]
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start < seconds and time.monotonic() < ctx.deadline):
        i = len(traced)
        s = op_seed(seed, i)
        plain.append(run_op(ctx, name, commands, s, f"op{i}"))
        traced.append(run_op(ctx, name, commands, s, f"traced{i}", traced=True))
        if plain[-1]["ok"] and traced[-1]["ok"] and plain[-1]["digests"] != traced[-1]["digests"]:
            traced[-1]["ok"] = False
            traced[-1]["errors"].append("traced digests differ from the plain op's")
    ops = probe_ops + plain + traced
    for op in probe_ops + traced:
        for trace in op["traces"]:
            c = trace["counters"]
            if c["snf_agree"] != c["snf_n"]:
                op["ok"] = False
                op["errors"].append(f"SNF agrees on {c['snf_agree']} of {c['snf_n']} matrices")

    own = [merge_traces(op["traces"]) + (len(op["traces"]),) for op in traced if op["ok"]]
    own_values = [layer_values(*t) for t in own]
    probes = [merge_traces(op["traces"]) + (len(op["traces"]),) for op in probe_ops if op["ok"]]
    metrics, from_probe = {}, []
    for metric, source in LAYER_SOURCE.items():
        if own and all(t[0].get(source, (0,))[0] for t in own):
            metrics[metric] = median([v[metric] for v in own_values])
        else:
            reached = [t for t in probes if t[0].get(source, (0,))[0]]
            metrics[metric] = layer_values(*reached[0])[metric] if reached else 0
            from_probe.append(metric)
    # Plain and traced op i are adjacent in time; the replay and SNF epilogue
    # is extra work, not tracing cost.
    paired = [(t["wall_s"] - sum(x["counters"]["epilogue_s"] for x in t["traces"])) / p["wall_s"]
              for p, t in zip(plain, traced) if p["ok"] and t["ok"]]
    metrics["trace.overhead_ratio"] = median(paired) if paired else 0.0

    self_s = {}
    for totals, _, _ in own:
        for span, (_, _, s, _) in totals.items():
            self_s.setdefault(span, []).append(s)
    return {"ops": ops, "metrics": metrics,
            "details": {"from_probe": from_probe,
                        "self_s_p50": {k: median(v) for k, v in sorted(self_s.items())},
                        "ops": [_op_summary(op) for op in ops]}}


def main(argv=None) -> int:
    bench_path = HERE.parent / "BENCHMARK.json"
    spec = _load(HERE / "spec.json")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "clpart" / "cli.py").is_file():
        print(f"error: no clpart sources under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    bench = _load(bench_path)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]

    import selfcheck

    ctx = Context(root=root, tmp=root / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}",
                  deadline=time.monotonic() + RUN_BUDGET_S, golden=_load(HERE / "golden.json"))
    ctx.tmp.mkdir(parents=True)
    try:
        selfcheck.run_all(ctx, bench, spec)
        env = environment(root, warm_up(ctx))
        workload = dict(spec["workloads"][args.workload], name=args.workload)
        if args.trace:
            run = traced_run(ctx, workload, spec["probe"], args.seed, args.seconds)
        else:
            run = timed_run(ctx, workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(ctx.tmp, ignore_errors=True)
        try:
            ctx.tmp.parent.rmdir()
        except OSError:
            pass
    env["loadavg_1m_end"] = os.getloadavg()[0]

    ops = run["ops"]
    failed = sum(not op["ok"] for op in ops)
    metrics = run["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    for op in ops:
        for error in op["errors"]:
            print(f"FAILED {op['tag']} (seed {op['seed']}): {error}", file=sys.stderr)
    also = dict(run.get("also", {}), error_rate=(failed / len(ops), "ratio"))
    for name, unit in [(m["name"], m["unit"]) for m in declared]:
        print(f"{name:40s} {metrics[name]!r:>24} {unit}")
    for name, (value, unit) in also.items():
        print(f"{name:40s} {value!r:>24} {unit}  (not bounded)")
    details = dict(run["details"], workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, environment=env,
                   **{name: value for name, (value, _) in also.items() if name != "op_s_tail"})
    print(json.dumps(details, sort_keys=True))
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in declared}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
