"""Trial ranges split across the CPUs this process may run on.

Every random result in this package is a pure function of (seed, trial), and
the tables built from trials count outcomes, so the sum of the counts over
contiguous trial ranges is the count over all trials, whatever the ranges.
``split_counts`` runs the first range in the calling process and each other
range in an ``os.fork()`` child, which sends its counts back over a pipe with
``marshal`` and leaves by ``os._exit``; the caller adds them up.  Tables are
built from the sum in canonical order, so their bytes do not depend on how
many workers ran.
"""

from __future__ import annotations

import marshal
import os
from collections import Counter


def worker_count(units: int, minimum: int) -> int:
    """One worker per CPU in this process's affinity set, lowered so that
    each gets at least ``minimum`` units of work; 1 where a fork is unsafe.

    A fork while other threads run may deadlock the child (and warns from
    Python 3.12 on), so a process with more than one thread gets 1.
    """
    import threading

    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), units // minimum))


def split_counts(count, units: int, workers: int) -> Counter:
    """The sum of ``count(start, stop)`` over contiguous ranges that cover
    range(units), one range per worker (never more workers than units).

    ``count`` returns a dict of int counts keyed by values ``marshal`` can
    write (ints, bools, None and tuples of them).  With one worker it is
    called once, in this process.  A worker's exception is raised here with
    the same type and message; the earliest range's comes first, so it is the
    one a single worker would have raised.  No child outlives the call.
    """
    workers = min(workers, units)
    if workers <= 1:
        return Counter(count(0, units))
    bounds = [units * i // workers for i in range(workers + 1)]
    children = []  # (pid, read end of its pipe), in range order
    try:
        try:
            for start, stop in zip(bounds[1:-1], bounds[2:]):
                children.append(_fork(count, start, stop))
        except OSError as exc:  # out of processes, memory or file descriptors
            raise RuntimeError(f"cannot start a worker process: {exc}") from exc
        total = Counter(count(0, bounds[1]))
        for pid, read in children:
            total.update(_receive(pid, read))
        return total
    except BaseException:
        if children:
            import signal

            for pid, _ in children:  # none is reaped yet, so each pid is still ours
                os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read in children:
            os.close(read)
            os.waitpid(pid, 0)


def _fork(count, start: int, stop: int) -> tuple[int, int]:
    """Start a child that runs ``count(start, stop)``; its pid and the read
    end of the pipe it writes to."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        _child(count, start, stop, read, write)
    os.close(write)
    return pid, read


def _child(count, start: int, stop: int, read: int, write: int):
    """Run in a forked child: write (counts, None) or (None, pickled
    exception) to ``write`` with marshal, then exit without unwinding into the
    caller's frames or flushing its buffers."""
    try:
        os.close(read)
        try:
            data = marshal.dumps((dict(count(start, stop)), None))
        except BaseException as exc:
            data = marshal.dumps((None, _pickled(exc)))
        with open(write, "wb") as fh:
            fh.write(data)
    finally:
        os._exit(0)


def _pickled(exc: BaseException) -> bytes:
    """The pickled exception, or a RuntimeError naming it where the exception
    does not survive a pickle round trip."""
    import pickle

    try:
        pickle.loads(data := pickle.dumps(exc))
        return data
    except Exception:
        return pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))


def _receive(pid: int, read: int) -> dict:
    """The counts a child wrote on ``read``; its exception raised here."""
    with open(read, "rb", closefd=False) as fh:
        data = fh.read()
    try:
        counts, error = marshal.loads(data)
    except (EOFError, ValueError, TypeError):  # the child died before it wrote them all
        raise RuntimeError(f"worker {pid} exited without sending its counts") from None
    if error is not None:
        import pickle

        raise pickle.loads(error)
    return counts
