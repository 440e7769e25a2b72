"""Trial ranges split across worker processes give the tables of one process.

``_workers`` forces a worker count; without it the count comes from the
CPU affinity set, which some tests replace to make a one-CPU host split.
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


def same_for_any_worker_count(build):
    one = build(1)
    text = "".join(_dumps(one))
    for workers in (2, 3):
        other = build(workers)
        assert other == one
        assert "".join(_dumps(other)) == text
    return one


@pytest.mark.parametrize("p, trials", [(2, 3 * DRAW_BLOCK + 77), (3, 2 * DRAW_BLOCK),
                                       (2, DRAW_BLOCK - 1)])
def test_sample_tables_do_not_depend_on_the_worker_count(p, trials):
    # DRAW_BLOCK - 1 trials are one block: fewer work units than workers
    config = SamplerConfig(p=p, seed=11)
    table = same_for_any_worker_count(lambda w: empirical_distribution(config, trials, _workers=w))
    assert sum(table.counts.values()) == trials
    assert no_child_left()


@pytest.mark.parametrize("p, method, trials", [(2, "plocal", 90), (3, "plocal", 60),
                                               (2, "snf", 40), (2, "plocal", 2)])
def test_graph_tables_do_not_depend_on_the_worker_count(p, method, trials):
    def build(workers):
        return run_experiment(12, Fraction(1, 3), p, trials, seed=4, method=method,
                              _workers=workers)

    result = same_for_any_worker_count(build)
    assert sum(result.distribution.counts.values()) + result.discarded_disconnected == trials
    assert no_child_left()


def test_split_counts_ranges_cover_the_units_once():
    ranges = split_counts(lambda start, stop: {(start, stop): 1}, 10, 3)
    assert sorted(ranges) == [(0, 3), (3, 6), (6, 10)]
    assert split_counts(lambda start, stop: {(start, stop): 1}, 2, 3) == {(0, 1): 1, (1, 2): 1}
    assert no_child_left()


def test_worker_count_follows_the_affinity_set_and_the_minimum(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert worker_count(100, 10) == 3
    assert worker_count(25, 10) == 2
    assert worker_count(9, 10) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert worker_count(100, 10) == 1


def test_one_cpu_forks_no_process(monkeypatch):
    def refuse():
        raise AssertionError("forked with one CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", refuse)
    assert run_experiment(40, Fraction(1, 2), 2, 400, seed=5) is not None
    assert empirical_distribution(SamplerConfig(p=2, seed=5), 40 * DRAW_BLOCK) is not None


def test_replaced_substream_keeps_every_graph_trial_in_process(monkeypatch):
    # 400 trials at n = 40 would split across the three CPUs set here
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
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
    fail_where(monkeypatch, ArithmeticError, in_worker)
    with pytest.raises(ArithmeticError, match="^broken on purpose$"):
        run_experiment(20, Fraction(1, 2), 2, 60, seed=1, _workers=3)
    assert no_child_left()
    with pytest.raises(ArithmeticError, match="^broken on purpose$"):
        empirical_distribution(SamplerConfig(p=2, seed=1), 3 * DRAW_BLOCK, _workers=3)
    assert no_child_left()


def test_a_failed_fork_is_an_internal_error_and_leaves_no_child(monkeypatch):
    real, forks = os.fork, []

    def fork_once():
        if forks:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork_once)
    with pytest.raises(RuntimeError, match="^cannot start a worker process: "):
        run_experiment(12, Fraction(1, 3), 2, 30, seed=4, _workers=3)
    assert forks and no_child_left()


@pytest.mark.parametrize("error, code", [(RuntimeError, 3), (ValueError, 2)])
@pytest.mark.parametrize("argv", [
    ["graphs", "--n", "40", "--q", "1/2", "--p", "2", "--trials", "400", "--seed", "1"],
    ["sample", "--p", "2", "--trials", str(40 * DRAW_BLOCK), "--seed", "1", "--summary"],
], ids=["graphs", "sample"])
def test_a_worker_error_exits_as_in_one_process(capsys, monkeypatch, argv, error, code):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    fail_where(monkeypatch, error, in_worker=True)
    assert main(argv) == code
    captured = capsys.readouterr()
    prefix = "internal error" if code == 3 else "error"
    assert (captured.out, captured.err) == ("", f"{prefix}: broken on purpose\n")
    assert no_child_left()
