"""The benchmark's traced run still reaches every layer it wraps.

perfbench/tracing.py wraps functions by module and name; a rename or an
import-time capture in the package would make it fail or silently record
nothing.  Tiny commands of each benchmark workload run under it here, and
the sampler's one-partition-per-line mode as well.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

COMMANDS = {
    "sample": ([["sample", "--p", "2", "--trials", "50", "--seed", "1", "--summary"]],
               ["rng.substream", "sampler.sample_partition", "sampler.kernel_row",
                "cli.serialize", "cli.write"]),
    "sample-lines": ([["sample", "--p", "2", "--trials", "50", "--seed", "1"]],
                     ["rng.substream", "sampler.sample_partition", "sampler.kernel_row"]),
    # p = 2 trials never build the Laplacian (two_sylow_partition), so p = 3 reaches it
    "graphs": ([["graphs", "--n", "8", "--q", "1/2", "--p", "2", "--trials", "5", "--seed", "1"],
                ["graphs", "--n", "8", "--q", "1/2", "--p", "3", "--trials", "5", "--seed", "1"]],
               ["rng.substream", "sandpile.erdos_renyi", "sandpile.is_connected",
                "sandpile.reduced_laplacian", "sandpile.plocal"]),
    # the table spans come from pmf --max-size alone: no verify suite enumerates
    "exact": ([["pmf", "--measure", "cl", "--p", "2", "--max-size", "4"],
               ["verify", "--suite", "identities", "--depth", "6"],
               ["verify", "--suite", "recursions", "--p", "2", "--a-max", "4"],
               ["verify", "--suite", "chain", "--p", "2", "--a-max", "4"]],
              ["measures.tabulate", "partitions.enumerate_partitions",
               "measures.size_length_layers", "measures.series_checks",
               "measures.normalization", "qseries.odd_constant",
               "qseries.verify_euler_identity", "qseries.verify_qbinomial",
               "measures.solve_parts_recursion", "sampler.kernel_row"]),
}


@pytest.mark.parametrize("workload", sorted(COMMANDS))
def test_traced_run_records_every_span(workload, tmp_path):
    commands, spans = COMMANDS[workload]
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    calls = dict.fromkeys(spans, 0)
    for argv in commands:
        proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracing.py"), str(trace),
                               "--", *argv], cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        totals = json.loads(trace.read_text())["totals"]
        for name in spans:
            calls[name] += totals.get(name, [0])[0]
    assert all(n > 0 for n in calls.values()), calls
    if workload.startswith("sample"):
        # one substream and one chain run per trial in both output modes
        assert calls["rng.substream"] == calls["sampler.sample_partition"] == 50, calls
