"""Threads for the parts of a job: how many the cores allow
(`worker_threads`), and a crew of persistent threads that run a job's
parts with the caller (`Crew`).

Each job opens its own crew for its run, `Crew(parts)`, which caps itself
at `worker_threads()`: `trainer.train` one for the halves of each step
(`FusedStep`), `scoring.evaluate` one for its score blocks, and
`databench.generate` one of two for its noise draws and stores. Every part
runs the same operations at any thread count, so results do not depend
on it. Why each job splits, orders and buffers its parts as it does is
said, with its measurements, where the job does it: `trainer.SPLIT_WORK`,
`scoring.evaluate` and `databench.generate`.

A part writes block-sized arrays only into buffers its caller allocated
before the crew runs (`evaluate`'s score buffers, `generate`'s noise
buffers), since what a worker allocates stays resident in its own malloc
arena after the crew closes (measured in `scoring.evaluate`); the parts
that still allocate say why in their own docstrings (`FusedStep`,
`scoring.evaluate`).
"""

from __future__ import annotations

import contextvars
import os
import threading
import time

# the variables that set the BLAS thread count, in the order they are read
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_threads() -> int:
    """Threads a crew may run parts on: the usable cores over the BLAS
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


def _take(lock: threading.Lock | threading.Semaphore) -> None:
    """Acquire `lock` (or semaphore), polling it for up to SPIN_S before
    blocking.

    Between polls the thread releases the interpreter lock and stays
    runnable. A thread that blocks at once lets its core idle, and under a
    hypervisor a core idle for a while wakes slowly: on a 2-core virtual
    machine a lock round trip to a thread idle for 2 ms took 99 us
    (median; p90 0.86 ms), against 9 us to one that had just blocked.
    Shorter polls did not pay: with SPIN_S at 0.5, 0.2 or 0 ms, in-process
    `generate`, a mid-size `train` and open-eval scoring moved by -9% to
    +9% over 12 and 16 alternating rounds in two sessions, no setting
    faster in both, and blocking only `generate`'s waits read open-eval
    `setup_s` lower in 5 of 10 pairs; so every wait polls for SPIN_S.
    """
    if lock.acquire(blocking=False):
        return
    deadline = time.perf_counter() + SPIN_S
    while time.perf_counter() < deadline:
        time.sleep(0)
        if lock.acquire(blocking=False):
            return
    lock.acquire()


class _Job:
    """One run(): the task, the parts not yet taken (with their indices),
    each worker's context, the workers running a part, and the errors."""

    __slots__ = ("task", "pending", "contexts", "busy", "failed", "waiting")

    def __init__(self, task, parts, workers: int):
        self.task = task
        self.pending = iter(enumerate(parts))
        self.contexts = [contextvars.copy_context() for _ in range(workers)]
        self.busy = 0
        self.failed: dict[int, BaseException] = {}
        self.waiting = False  # the caller waits on the done lock


class Crew:
    """The caller and `threads - 1` persistent worker threads, which run
    the parts of a job together; `threads` is `parts` capped at
    `worker_threads()`, at least one, so a crew never has a thread past
    the job's parts or the cores.

    `run(task, parts)` calls task(part) for every part: each thread takes
    the next part in order under one lock. A part no thread has started
    goes to whichever asks next, so the caller runs it itself when a worker
    has not woken yet; the caller then waits only while a worker still runs
    a part it took. Once a part raises no further part starts, and when
    every started part has returned the exception of the first failing part
    in order is raised. Each worker runs its parts in its own copy of the
    caller's context, taken at run(), so numpy's error state (a context
    variable) holds in it. The hand-off is plain locks waited on through
    `_take`: with two `threading.Barrier`s in their place, a two-thread
    hand-off made a mid-size training step take 6.35 ms against 5.86 ms
    (medians of 6 runs on 2 cores).

    A crew of one starts no thread and runs the parts in a plain loop. Use
    as a context manager, from one thread: the workers stop and are joined
    on exit, also when the block raises, and when a worker fails to start
    the ones already started are stopped and joined before the error is
    raised.
    """

    def __init__(self, parts: int):
        self.threads = max(1, min(parts, worker_threads()))
        self._lock = threading.Lock()  # guards the parts, busy count and errors of a job
        self._done = threading.Lock()  # released by the last busy worker to a waiting caller
        self._done.acquire()
        self._job: _Job | None = None
        self._stop = False
        self._wakes: list[threading.Lock] = []  # one per worker, released by the caller
        self._threads: list[threading.Thread] = []
        for index in range(self.threads - 1):
            wake = threading.Lock()
            wake.acquire()
            thread = threading.Thread(target=self._serve, args=(index, wake), daemon=True)
            try:
                thread.start()
            except BaseException:  # the workers already started would wait forever
                self.__exit__()
                raise
            self._wakes.append(wake)
            self._threads.append(thread)

    def _serve(self, index: int, wake: threading.Lock) -> None:
        while True:
            _take(wake)
            if self._stop:
                return
            job = self._job
            if job is not None:
                job.contexts[index].run(self._drain, job, True)

    def _wake(self) -> None:
        # only the caller releases a wake lock: when it is free, a wake-up is
        # still pending, and the worker will find the current job
        for wake in self._wakes:
            if wake.locked():
                wake.release()

    def _drain(self, job: _Job, worker: bool) -> None:
        """Run the job's next part until none is left or one has failed."""
        while True:
            with self._lock:
                item = None if job.failed else next(job.pending, None)
                if item is None:
                    return
                if worker:
                    job.busy += 1
            index, part = item
            try:
                job.task(part)
            except BaseException as exc:  # raised on the caller by run()
                job.failed[index] = exc
            if worker:
                with self._lock:
                    job.busy -= 1
                    if job.waiting and not job.busy:
                        self._done.release()

    def run(self, task, parts) -> None:
        """Call task(part) for every part on the crew; raise the exception
        of the first failing part in order once every started part has
        returned."""
        if not self._threads:
            for part in parts:
                task(part)
            return
        job = self._job = _Job(task, parts, len(self._threads))
        self._wake()
        self._drain(job, False)
        with self._lock:
            self._job = None
            job.waiting = job.busy > 0
        if job.waiting:
            _take(self._done)
        if job.failed:
            raise job.failed[min(job.failed)]

    def __enter__(self) -> "Crew":
        return self

    def __exit__(self, *exc) -> None:
        self._stop = True
        self._wake()
        for thread in self._threads:
            thread.join()
