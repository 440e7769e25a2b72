"""Trial ranges split across worker processes give the tables of one process.

The worker count comes from the CPU affinity set: tests replace
``os.sched_getaffinity`` to force 1, 2 or 3 workers on any host, and count
the forks to see that the split happened.
"""

import os
from fractions import Fraction

import pytest

from clpart import rng, sandpile
from clpart.cli import _dumps, main
from clpart.rng import DRAW_BLOCK
from clpart.sampler import SamplerConfig, empirical_distribution
from clpart.sandpile import run_experiment
from clpart.workers import split_counts, worker_count


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def with_cpus(monkeypatch, cpus):
    """Make this process's affinity set hold ``cpus`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def same_for_any_worker_count(monkeypatch, build, splits=True):
    """build() on 1, 2 and 3 CPUs: equal tables and bytes, with one fork per
    worker after the first, or no fork where ``splits`` is false."""
    real, forks = os.fork, []

    def counted():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counted)
    with_cpus(monkeypatch, 1)
    one = build()
    text = b"".join(_dumps(one))
    for workers in (2, 3):
        forks.clear()
        with_cpus(monkeypatch, workers)
        other = build()
        assert len(forks) == (workers - 1 if splits else 0)
        assert other == one
        assert b"".join(_dumps(other)) == text
    return one


# 3 workers need 3 * MIN_WORKER_BLOCKS = 12 blocks; under one block nothing splits
@pytest.mark.parametrize("p, trials", [
    (2, 12 * DRAW_BLOCK + 77), (3, 12 * DRAW_BLOCK), (2, DRAW_BLOCK - 1),
])
def test_sample_tables_do_not_depend_on_the_worker_count(monkeypatch, p, trials):
    config = SamplerConfig(p=p, seed=11)
    table = same_for_any_worker_count(monkeypatch, lambda: empirical_distribution(config, trials),
                                      splits=trials >= 12 * DRAW_BLOCK)
    assert sum(table.counts.values()) == trials
    assert no_child_left()


# 3 workers at n = 12 (66 pairs) need 3 * ceil(MIN_WORKER_PAIRS / 66) = 456 trials;
# 2 trials stay in one process on any CPU count
@pytest.mark.parametrize("p, method, trials", [
    (2, "plocal", 456), (3, "plocal", 456), (2, "snf", 456), (2, "plocal", 2),
])
def test_graph_tables_do_not_depend_on_the_worker_count(monkeypatch, p, method, trials):
    def build():
        return run_experiment(12, Fraction(1, 3), p, trials, seed=4, method=method)

    result = same_for_any_worker_count(monkeypatch, build, splits=trials == 456)
    assert sum(result.distribution.counts.values()) + result.discarded_disconnected == trials
    assert no_child_left()


def test_split_counts_ranges_cover_the_units_once():
    ranges = split_counts(lambda start, stop: {(start, stop): 1}, 10, 3)
    assert sorted(ranges) == [(0, 3), (3, 6), (6, 10)]
    # fewer work units than workers
    assert split_counts(lambda start, stop: {(start, stop): 1}, 2, 3) == {(0, 1): 1, (1, 2): 1}
    assert split_counts(lambda start, stop: {(start, stop): 1}, 1, 3) == {(0, 1): 1}
    assert no_child_left()


def test_worker_count_follows_the_affinity_set_and_the_minimum(monkeypatch):
    with_cpus(monkeypatch, 3)
    assert worker_count(100, 10) == 3
    assert worker_count(25, 10) == 2
    assert worker_count(9, 10) == 1
    with_cpus(monkeypatch, 1)
    assert worker_count(100, 10) == 1


def test_one_cpu_forks_no_process(monkeypatch):
    def refuse():
        raise AssertionError("forked with one CPU")

    with_cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", refuse)
    assert run_experiment(40, Fraction(1, 2), 2, 400, seed=5) is not None
    assert empirical_distribution(SamplerConfig(p=2, seed=5), 40 * DRAW_BLOCK) is not None


def test_replaced_substream_keeps_every_graph_trial_in_process(monkeypatch):
    # 400 trials at n = 40 would split across the three CPUs set here
    with_cpus(monkeypatch, 3)
    assert sandpile._split_route()
    expected = run_experiment(40, Fraction(1, 2), 2, 400, seed=6)
    calls = []

    def counted(seed, index):
        calls.append(index)
        return rng.substream(seed, index)

    monkeypatch.setattr(sandpile, "substream", counted)
    assert not sandpile._split_route()
    result = run_experiment(40, Fraction(1, 2), 2, 400, seed=6)
    assert calls == list(range(400))
    assert result == expected


def fail_where(monkeypatch, error, in_worker):
    """Make the rng lane finalizer raise ``error`` in worker processes only,
    or in this process only."""
    caller, real = os.getpid(), rng._mix_lanes

    def broken(z, low):
        if (os.getpid() != caller) == in_worker:
            raise error("broken on purpose")
        return real(z, low)

    monkeypatch.setattr(rng, "_mix_lanes", broken)


@pytest.mark.parametrize("in_worker", [True, False])
def test_a_failing_range_raises_in_the_caller(monkeypatch, in_worker):
    with_cpus(monkeypatch, 3)
    fail_where(monkeypatch, ArithmeticError, in_worker)
    with pytest.raises(ArithmeticError, match="^broken on purpose$"):
        run_experiment(12, Fraction(1, 3), 2, 456, seed=1)
    assert no_child_left()
    with pytest.raises(ArithmeticError, match="^broken on purpose$"):
        empirical_distribution(SamplerConfig(p=2, seed=1), 12 * DRAW_BLOCK)
    assert no_child_left()


def test_a_failed_fork_is_an_internal_error_and_leaves_no_child(monkeypatch):
    real, forks = os.fork, []

    def fork_once():
        if forks:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork_once)
    with_cpus(monkeypatch, 3)
    with pytest.raises(RuntimeError, match="^cannot start a worker process: "):
        run_experiment(12, Fraction(1, 3), 2, 456, seed=4)
    assert forks and no_child_left()


@pytest.mark.parametrize("error, code", [(RuntimeError, 3), (ValueError, 2)])
@pytest.mark.parametrize("argv", [
    ["graphs", "--n", "40", "--q", "1/2", "--p", "2", "--trials", "400", "--seed", "1"],
    ["sample", "--p", "2", "--trials", str(40 * DRAW_BLOCK), "--seed", "1", "--summary"],
], ids=["graphs", "sample"])
def test_a_worker_error_exits_as_in_one_process(capsys, monkeypatch, argv, error, code):
    with_cpus(monkeypatch, 3)
    fail_where(monkeypatch, error, in_worker=True)
    assert main(argv) == code
    captured = capsys.readouterr()
    prefix = "internal error" if code == 3 else "error"
    assert (captured.out, captured.err) == ("", f"{prefix}: broken on purpose\n")
    assert no_child_left()
