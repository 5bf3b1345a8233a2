"""Threads for the parts of a job that split by rows: how many the cores
allow (`worker_threads`), a crew of persistent threads that run a job's
parts with the caller (`Crew`), and a worker that fills a ring of buffers
in order for the caller (`Feed`).

`scoring.evaluate` runs its score blocks and `trainer.FusedStep` the
halves of each training step on a crew of at most `worker_threads()`;
`databench.generate` draws its noise blocks through a feed, on a worker
when `worker_threads()` is 2 or more. Every part runs the same operations
at any thread count, so results do not depend on it.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time

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


def _take(lock: threading.Lock | threading.Semaphore) -> None:
    """Acquire `lock` (or semaphore), polling it for up to SPIN_S before
    blocking.

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
    """The caller and `count - 1` persistent worker threads, which run the
    parts of a job together.

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
    on exit, also when the block raises.
    """

    def __init__(self, count: int):
        self._lock = threading.Lock()  # guards the parts, busy count and errors of a job
        self._done = threading.Lock()  # released by the last busy worker to a waiting caller
        self._done.acquire()
        self._job: _Job | None = None
        self._stop = False
        self._wakes: list[threading.Lock] = []  # one per worker, released by the caller
        self._threads: list[threading.Thread] = []
        for index in range(count - 1):
            wake = threading.Lock()
            wake.acquire()
            thread = threading.Thread(target=self._serve, args=(index, wake), daemon=True)
            self._wakes.append(wake)
            self._threads.append(thread)
            thread.start()

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


class Feed:
    """fill(i) for i = 0, 1, ..., count - 1, in order, each taken by the
    caller once it has returned: on one worker thread that runs at most
    `ring` fills ahead of the caller, or, unless `threaded`, on the caller's
    own thread inside `take()`.

    The caller calls `take()` for each i in turn, which returns i once
    fill(i) has returned, and `give_back()` once it is done with what
    fill(i) wrote, which lets the worker start fill(i + ring). So fill(i)
    may write where fill(i - ring) did: a ring of `ring` buffers, which the
    caller allocates. The worker runs fill and nothing else, outside the
    caller's context; an exception fill raises there is raised by the
    `take()` of its i, and no further fill starts. The hand-off is two
    semaphores waited on through `_take`. Use as a context manager, from
    one thread: the worker stops and is joined on exit, also when the block
    raises.
    """

    def __init__(self, fill, count: int, ring: int, threaded: bool):
        self._fill = fill
        self._taken = 0  # the next i the caller takes
        self._stop = False
        self._failed: tuple[int, BaseException] | None = None  # the fill that raised
        self._thread: threading.Thread | None = None
        if threaded:
            self._free = threading.Semaphore(ring)  # fills the worker may start
            self._full = threading.Semaphore(0)  # fills done and not taken
            self._thread = threading.Thread(target=self._serve, args=(count,), daemon=True)
            self._thread.start()

    def _serve(self, count: int) -> None:
        for i in range(count):
            _take(self._free)
            if self._stop:
                return
            try:
                self._fill(i)
            except BaseException as exc:  # raised on the caller by take()
                self._failed = i, exc
                return
            finally:
                self._full.release()

    def take(self) -> int:
        """The next i, once fill(i) has returned."""
        i = self._taken
        self._taken += 1
        if self._thread is None:
            self._fill(i)
        else:
            _take(self._full)
            if self._failed is not None and self._failed[0] == i:
                raise self._failed[1]
        return i

    def give_back(self) -> None:
        """Let the worker start the fill `ring` past the oldest one taken
        and not given back."""
        if self._thread is not None:
            self._free.release()

    def __enter__(self) -> "Feed":
        return self

    def __exit__(self, *exc) -> None:
        if self._thread is not None:
            self._stop = True
            self._free.release()
            self._thread.join()
