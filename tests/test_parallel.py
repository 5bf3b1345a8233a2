"""The crew that runs a job's parts on the caller and persistent workers:
it has one thread per part as far as the cores allow; every part runs
once; errors are those of the first failing part in order, and no part
starts after a failure; a worker runs under the caller's context; the
caller never waits for a worker that took nothing; the workers are joined
on exit, and when one fails to start. The usable cores are patched, so
every crew here runs on threads on a one-core machine too."""

import sys
import threading

import numpy as np
import pytest

from oodtune import parallel


def _call(job):
    job()


def _cores(monkeypatch, count):
    monkeypatch.setattr(parallel, "worker_threads", lambda: count)


@pytest.mark.parametrize("cores", [1, 2, 4])
@pytest.mark.parametrize("parts", [0, 1, 2, 3, 8])
def test_a_crew_has_a_thread_per_part_as_far_as_the_cores_allow(monkeypatch, cores, parts):
    _cores(monkeypatch, cores)
    before = threading.active_count()
    with parallel.Crew(parts) as crew:
        threads = max(1, min(parts, cores))
        assert crew.threads == threads
        assert len(crew._threads) == threads - 1
        assert threading.active_count() == before + threads - 1
        ran = []
        crew.run(ran.append, range(parts))
        assert sorted(ran) == list(range(parts))
    assert threading.active_count() == before


def test_eight_parts_on_two_cores_start_exactly_one_worker(monkeypatch):
    _cores(monkeypatch, 2)
    start = threading.Thread.start
    started = []

    def counted(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    with parallel.Crew(8) as crew:
        assert crew.threads == 2
        assert started == crew._threads and len(started) == 1


def test_crew_runs_each_part_once_and_raises_the_first_parts_error_first(monkeypatch):
    runs = []

    def job(name, fail=False):
        def run():
            runs.append(name)
            if fail:
                raise ValueError(name)
        return run

    _cores(monkeypatch, 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with parallel.Crew(2) as crew:
            assert crew.threads == 2
            for i in range(500):
                crew.run(_call, [job(("first", i)), job(("second", i))])
            assert sorted(runs) == sorted([("first", i) for i in range(500)]
                                          + [("second", i) for i in range(500)])
            for first, second, want in ((True, False, "a"), (False, True, "b"),
                                        (True, True, "a")):
                runs.clear()
                with pytest.raises(ValueError, match=want):
                    crew.run(_call, [job("a", first), job("b", second)])
                assert "a" in runs
            crew.run(_call, [job("c"), job("d")])  # still serving after an error
    finally:
        sys.setswitchinterval(interval)
    assert not crew._threads[0].is_alive()


def test_crew_runs_a_part_under_the_callers_context_at_the_hand_off(monkeypatch):
    _cores(monkeypatch, 2)
    caller = threading.current_thread()
    started = threading.Event()
    seen = {}

    def part(_):
        if threading.current_thread() is caller:
            started.wait(10)  # until the worker has taken the other part
        else:
            seen.update(under=np.geterr()["under"], thread=threading.current_thread())
            started.set()

    with parallel.Crew(2) as crew:
        assert crew.threads == 2
        with np.errstate(under="raise"):
            crew.run(part, range(2))
    assert started.is_set()
    assert seen == {"under": "raise", "thread": crew._threads[0]}


def test_crew_starts_no_part_after_a_failure_and_raises_the_first_failing_parts_error(
        monkeypatch):
    _cores(monkeypatch, 4)
    started = []
    fifth_failed, third_failed = threading.Event(), threading.Event()

    def part(i):
        started.append(i)
        if i == 3:  # fails only once part 5 has
            fifth_failed.wait(10)
            third_failed.set()
            raise ValueError("part 3")
        if i == 5:
            fifth_failed.set()
            raise ValueError("part 5")
        if i > 5:  # held until both failures: a runner that goes on starts every part
            third_failed.wait(10)

    with parallel.Crew(4) as crew, pytest.raises(ValueError, match="^part 3$"):
        crew.run(part, range(12))
    assert crew.threads == 4
    assert fifth_failed.is_set()
    # up to the failure of part 5, two threads hold parts 3 and 5 and the
    # other two at most one part each after it
    assert sorted(started)[:6] == [0, 1, 2, 3, 4, 5] and max(started) <= 7


def test_caller_runs_every_part_when_the_worker_has_not_woken(monkeypatch):
    caller = threading.current_thread()
    wake = threading.Event()
    timed_out = []
    take = parallel._take

    def held(lock):
        if threading.current_thread() is not caller:  # the worker, waiting for work
            timed_out.append(not wake.wait(10))
        take(lock)

    monkeypatch.setattr(parallel, "_take", held)
    _cores(monkeypatch, 2)
    ran = []
    with parallel.Crew(2) as crew:
        assert crew.threads == 2
        crew.run(lambda i: ran.append((i, threading.current_thread())), range(6))
        wake.set()  # run() has returned without the worker
    assert ran == [(i, caller) for i in range(6)]
    assert timed_out and not any(timed_out)
    assert not crew._threads[0].is_alive()


def test_a_worker_that_fails_to_start_stops_the_workers_already_started(monkeypatch):
    before = threading.active_count()
    start = threading.Thread.start
    started = []

    def second_fails(thread):
        started.append(thread)
        if len(started) == 2:
            raise RuntimeError("can't start new thread")
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", second_fails)
    _cores(monkeypatch, 3)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        parallel.Crew(3)
    monkeypatch.undo()
    assert len(started) == 2 and not started[0].is_alive()
    assert threading.active_count() == before
