"""Suite-wide settings: property tests draw a fixed sequence of examples,
so every run of the suite checks the same cases in bounded time; and no
test may leave a thread running (evaluate's block threads and train's
worker must all be joined)."""

import threading

import pytest
from hypothesis import settings

settings.register_profile("oodtune", derandomize=True, deadline=None, max_examples=50,
                          database=None)
settings.load_profile("oodtune")


@pytest.fixture(autouse=True)
def no_thread_left_running():
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before and t.is_alive()]
    assert not left, f"threads left running: {left}"
