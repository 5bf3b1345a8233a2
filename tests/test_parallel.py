"""The crew that runs a job's parts on the caller and persistent workers:
every part runs once; errors are those of the first failing part in
order, and no part starts after a failure; a worker runs under the
caller's context; the caller never waits for a worker that took nothing;
the workers are joined on exit. The feed that fills a ring for the caller:
fills in order, at most a ring ahead, none into a slot not given back;
a fill's error raised at its take; the worker joined on every exit."""

import sys
import threading
import time

import numpy as np
import pytest

from oodtune import parallel


def _call(job):
    job()


def test_crew_runs_each_part_once_and_raises_the_first_parts_error_first():
    runs = []

    def job(name, fail=False):
        def run():
            runs.append(name)
            if fail:
                raise ValueError(name)
        return run

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with parallel.Crew(2) as crew:
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


def test_crew_runs_a_part_under_the_callers_context_at_the_hand_off():
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
        with np.errstate(under="raise"):
            crew.run(part, range(2))
    assert started.is_set()
    assert seen == {"under": "raise", "thread": crew._threads[0]}


def test_crew_starts_no_part_after_a_failure_and_raises_the_first_failing_parts_error():
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
    ran = []
    with parallel.Crew(2) as crew:
        crew.run(lambda i: ran.append((i, threading.current_thread())), range(6))
        wake.set()  # run() has returned without the worker
    assert ran == [(i, caller) for i in range(6)]
    assert timed_out and not any(timed_out)
    assert not crew._threads[0].is_alive()



def test_feed_hands_each_fill_to_the_caller_in_order_and_never_overwrites_a_held_slot():
    ring, count = 2, 3000
    slots = [None] * ring
    filled = []

    def fill(i):
        filled.append(i)
        slots[i % ring] = i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with parallel.Feed(fill, count, ring, threaded=True) as feed:
            for want in range(count):
                i = feed.take()
                assert i == want and slots[i % ring] == i
                if i % 7 == 0:
                    time.sleep(0)  # let the worker run while the caller holds the slot
                assert slots[i % ring] == i  # no fill wrote it before it was given back
                assert len(filled) <= i + ring  # the worker runs at most a ring ahead
                feed.give_back()
    finally:
        sys.setswitchinterval(interval)
    assert filled == list(range(count))
    assert not feed._thread.is_alive()


def test_unthreaded_feed_fills_on_the_caller_inside_take():
    caller = threading.current_thread()
    ran = []
    with parallel.Feed(lambda i: ran.append((i, threading.current_thread())), 4, 1,
                       threaded=False) as feed:
        for want in range(4):
            assert len(ran) == want
            assert feed.take() == want
            feed.give_back()
    assert ran == [(i, caller) for i in range(4)]
    assert feed._thread is None


def test_a_fills_error_is_raised_by_the_take_of_its_index_and_no_fill_follows():
    filled = []

    def fill(i):
        if i == 3:
            raise ValueError("fill 3")
        filled.append(i)

    with pytest.raises(ValueError, match="^fill 3$"):
        with parallel.Feed(fill, 10, 2, threaded=True) as feed:
            for want in range(10):
                assert feed.take() == want
                feed.give_back()
    assert want == 3 and filled == [0, 1, 2]
    assert not feed._thread.is_alive()


def test_a_caller_that_raises_stops_the_worker_within_a_ring():
    filled = []
    with pytest.raises(KeyError):
        with parallel.Feed(filled.append, 1000, 2, threaded=True) as feed:
            feed.take()
            feed.give_back()
            feed.take()
            raise KeyError("caller")
    assert not feed._thread.is_alive()
    # taken 0 and 1 and given back 0: the worker may have filled 2, and
    # sees the stop before any later fill
    assert filled in ([0, 1], [0, 1, 2])
