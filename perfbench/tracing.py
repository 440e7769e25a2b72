"""Run one clpart command in this process with spans around its layer calls.

    PYTHONPATH=src python3 perfbench/tracing.py TRACE.json -- <clpart arguments>

The command runs through ``clpart.cli.main`` exactly as the console script
runs it, so it writes the same bytes.  Before it starts, the functions it
reaches (the CLI's serialize and write helpers included) are replaced, in the
namespaces that call them, by wrappers that record a span around each call
and count work at the same point; no file of the package changes.  Per-trial streams are wrapped to count draws.
After the command, outside its spans, the draws are replayed on a bare
SplitMix64 and the first connected graphs are rerun through the Smith normal
form reference.  TRACE.json receives the span totals, the counters and the
first spans recorded.  The exit code is the command's.
"""

from __future__ import annotations

import json
import os
import sys
import time

MAX_KEPT_SPANS = 2000
SNF_SUBSAMPLE = 8  # connected graphs per command rerun through the SNF reference


class Tracer:
    """Nested spans in one thread, totalled per name, the first few kept."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # [span id, name, start, time covered by children]
        self.spans = []  # (id, parent id, name, start, end)
        self.totals = {}  # name -> [calls, busy, self, first call]
        self.counters = {}
        self.started = 0
        self.draws = 0  # counted by CountingStream

    def enter(self, name):
        self.stack.append([self.started, name, self.clock(), 0.0])
        self.started += 1

    def exit(self):
        sid, name, start, children = self.stack.pop()
        end = self.clock()
        duration = end - start
        total = self.totals.get(name)
        if total is None:
            self.totals[name] = [1, duration, duration - children, duration]
        else:
            total[0] += 1
            total[1] += duration
            total[2] += duration - children
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration  # siblings never overlap in one thread
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((sid, parent[0] if parent else None, name, start, end))

    def count(self, name, k=1):
        self.counters[name] = self.counters.get(name, 0) + k

    def wrap(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` by a wrapper that spans each call as ``name``."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        return original


class CountingStream:
    """Delegates draws to a real stream and counts them."""

    __slots__ = ("inner", "tracer")

    def __init__(self, inner, tracer):
        self.inner = inner
        self.tracer = tracer

    def next_u64(self):
        self.tracer.draws += 1
        return self.inner.next_u64()


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def install(tracer):
    """Wrap every layer call a CLI command makes; returns what the epilogue needs."""
    from clpart import cli, measures, rng, sampler, sandpile

    distinct = set()
    snf_cases = []
    pending = []
    real_substream = rng.substream

    def traced_substream(seed, index):
        tracer.enter("rng.substream")
        try:
            stream = real_substream(seed, index)
        finally:
            tracer.exit()
        return CountingStream(stream, tracer)

    sampler.substream = traced_substream
    sandpile.substream = traced_substream

    def after_sample(args, kwargs, lam):
        distinct.add(lam)
        tracer.count("columns", lam.parts[0] if lam.parts else 0)

    tracer.wrap(sampler, "sample_partition", "sampler.sample_partition", after_sample)
    kernel_row = tracer.wrap(sampler, "kernel_row", "sampler.kernel_row")
    tracer.wrap(cli, "kernel_row", "sampler.kernel_row")

    def after_connected(args, kwargs, connected):
        tracer.count("connected", int(connected))

    def after_laplacian(args, kwargs, matrix):
        if len(snf_cases) + len(pending) < SNF_SUBSAMPLE:
            pending.append(matrix)

    def after_plocal(args, kwargs, result):
        tracer.count("capped", int(result[1]))
        matrix = _arg(args, kwargs, 0, "matrix")
        if pending and pending[-1] is matrix:
            pending.pop()
            snf_cases.append((matrix, _arg(args, kwargs, 1, "p"),
                              _arg(args, kwargs, 2, "cap"), result))

    tracer.wrap(sandpile, "erdos_renyi", "sandpile.erdos_renyi")
    tracer.wrap(sandpile.Graph, "is_connected", "sandpile.is_connected", after_connected)
    tracer.wrap(sandpile, "reduced_laplacian", "sandpile.reduced_laplacian", after_laplacian)
    tracer.wrap(sandpile, "sylow_valuations_mod_prime_power", "sandpile.plocal", after_plocal)

    tracer.wrap(measures, "enumerate_partitions", "partitions.enumerate_partitions",
                lambda args, kwargs, result: tracer.count("enumerated", len(result)))
    tracer.wrap(cli, "tabulate", "measures.tabulate",
                lambda args, kwargs, result: tracer.count("entries", len(result.entries)))
    tracer.wrap(measures.PartitionDistribution, "to_json_dict", "measures.to_json_dict")
    tracer.wrap(measures.PartitionDistribution, "normalization_enclosure", "measures.normalization")
    tracer.wrap(measures, "size_length_layers", "measures.size_length_layers")
    tracer.wrap(cli, "deformed_series_check", "measures.series_checks")
    tracer.wrap(cli, "truncated_series_check", "measures.series_checks")
    tracer.wrap(cli, "solve_parts_recursion", "measures.solve_parts_recursion")

    tracer.wrap(measures, "odd_constant", "qseries.odd_constant")
    tracer.wrap(cli, "verify_euler_identity", "qseries.verify_euler_identity")
    tracer.wrap(cli, "verify_qbinomial", "qseries.verify_qbinomial")

    def after_write(args, kwargs, result):
        output = getattr(args[0], "output", None)
        if output:
            tracer.count("output_bytes", os.path.getsize(output))

    tracer.wrap(cli, "_dumps", "cli.serialize")
    tracer.wrap(cli, "_write_output", "cli.write", after_write)
    return {"distinct": distinct, "snf_cases": snf_cases, "kernel_row": kernel_row}


def epilogue(tracer, state):
    """Work done after the command, outside its spans: replay and SNF reference."""
    from clpart.rng import SplitMix64
    from clpart.sandpile import p_sylow_partition

    begin = time.perf_counter()
    stream = SplitMix64(0x5EED)
    draw = stream.next_u64
    start = time.perf_counter()
    for _ in range(tracer.draws):
        draw()
    tracer.counters["replay_s"] = time.perf_counter() - start
    tracer.counters["draws"] = tracer.draws
    tracer.counters["distinct"] = len(state["distinct"])
    tracer.counters["kernel_rows"] = state["kernel_row"].cache_info().currsize

    agree = 0
    start = time.perf_counter()
    for matrix, p, cap, plocal in state["snf_cases"]:
        agree += p_sylow_partition(matrix, p, cap) == plocal
    tracer.counters["snf_s"] = time.perf_counter() - start
    tracer.counters["snf_n"] = len(state["snf_cases"])
    tracer.counters["snf_agree"] = agree
    tracer.counters["epilogue_s"] = time.perf_counter() - begin


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracing.py TRACE.json -- <clpart arguments>", file=sys.stderr)
        return 2
    trace_path, cli_args = argv[1], argv[3:]
    start = time.perf_counter()
    import clpart.cli
    import_s = time.perf_counter() - start

    tracer = Tracer()
    state = install(tracer)
    tracer.enter("cli.main")
    try:
        rc = clpart.cli.main(cli_args)
    finally:
        tracer.exit()
    sys.stdout.flush()
    epilogue(tracer, state)
    tracer.counters["import_s"] = import_s
    with open(trace_path, "w") as fh:
        json.dump({"rc": rc, "totals": tracer.totals, "counters": tracer.counters,
                   "spans_started": tracer.started, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
