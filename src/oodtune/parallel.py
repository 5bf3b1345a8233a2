"""Threads for the parts of a job that split by rows: how many the cores
allow, and a persistent second thread that runs one part while the caller
runs another.

Both `evalcli.evaluate` (its score blocks) and `trainer.train` (its step
halves) read the same rule. Every part runs the same operations at any
thread count, so results do not depend on it.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from collections import deque

# the variables that set the BLAS thread count, in the order they are read
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_threads() -> int:
    """Threads to run row parts on: the usable cores over the BLAS
    threads, at least one.

    The BLAS thread count is the first positive integer among
    BLAS_THREAD_VARS; with none set the BLAS is taken to use every usable
    core, and parts run on the caller's thread alone, since threads that
    each run a multi-threaded matmul oversubscribe the cores.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # no affinity call on this platform
        cores = os.cpu_count() or 1
    for name in BLAS_THREAD_VARS:
        try:
            blas = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if blas > 0:
            break
    else:
        blas = cores
    return max(1, cores // blas)


# how long a waiting thread polls a lock before it blocks on it
SPIN_S = 0.002


def _take(lock: threading.Lock) -> None:
    """Acquire `lock`, polling it for up to SPIN_S before blocking.

    Between polls the thread releases the interpreter lock and stays
    runnable. A thread that blocks at once lets its core idle, and under a
    hypervisor a core idle for a while wakes slowly: on a 2-core virtual
    machine a lock round trip to a thread idle for 2 ms took 99 us
    (median; p90 0.86 ms), against 9 us to one that had just blocked.
    """
    if lock.acquire(blocking=False):
        return
    deadline = time.perf_counter() + SPIN_S
    while time.perf_counter() < deadline:
        time.sleep(0)
        if lock.acquire(blocking=False):
            return
    lock.acquire()


class PairWorker:
    """One worker thread that runs a job while the caller runs another.

    The caller offers a job and wakes the worker; if the worker has not
    started it by the time the caller's own job ends, the caller takes it
    back and runs it itself, so a worker the OS has not scheduled yet never
    holds up the caller. The hand-off is two plain locks, each released by
    one thread and taken by the other, waited on through `_take`; with two
    `threading.Barrier`s in their place a mid-size training step took 6.35
    ms against 5.86 ms (medians of 6 runs on 2 cores). The worker runs
    each job in a copy of the caller's context at the hand-off, so numpy's
    error state (a context variable) holds in it. Use as a context manager:
    the thread stops and is joined on exit, also when the block raises.
    """

    def __init__(self):
        self._wake = threading.Lock()  # released by the caller to wake the worker
        self._wake.acquire()
        self._done = threading.Lock()  # released by the worker after a job it took
        self._done.acquire()
        # the offered job and its context, popped by whichever thread takes it
        self._offered: deque = deque()
        self._error: BaseException | None = None
        self._stop = False
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            _take(self._wake)
            if self._stop:
                return
            try:
                context, job = self._offered.pop()
            except IndexError:  # the caller took it back
                continue
            try:
                context.run(job)
            except BaseException as exc:  # re-raised on the caller by run()
                self._error = exc
            self._done.release()

    def _signal(self) -> None:
        # only the caller releases the wake lock: when it is free, a wake-up
        # is still pending, and the worker will find the current offer
        if self._wake.locked():
            self._wake.release()

    def run(self, mine, theirs) -> None:
        """Call mine() on the caller and theirs() on the worker, or on the
        caller after mine() when the worker has not started it. When both
        have returned, raise the exception of mine() if it raised one, else
        that of theirs()."""
        self._offered.append((contextvars.copy_context(), theirs))
        self._signal()
        try:
            mine()
        finally:
            try:
                self._offered.pop()
                taken_back = True
            except IndexError:  # the worker runs it
                taken_back = False
                _take(self._done)
        if taken_back:
            theirs()
        error, self._error = self._error, None
        if error is not None:
            raise error

    def __enter__(self) -> "PairWorker":
        return self

    def __exit__(self, *exc) -> None:
        self._stop = True
        self._signal()
        self._thread.join()
