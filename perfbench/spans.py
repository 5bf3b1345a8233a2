"""In-memory span recording around calls into the library.

A span is one call: its name, start and end (perf_counter_ns), the span
that caused it and the root span of its job, which acts as the request id.
Spans are kept in a list and written out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class SpanRecorder:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self.spans[self._stack[0]]["id"] if self._stack else sid
        rec = {"id": sid, "root": root, "parent": parent, "name": name,
               "start_ns": time.perf_counter_ns(), "end_ns": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def traced(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def wrapping(self, targets):
        """Replace each (module, attribute) with a span-recording wrapper for
        the duration of the block, so calls the library makes through that
        module attribute are recorded too."""
        originals = []
        try:
            for module, attr in targets:
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
                setattr(module, attr, self.traced(name, fn))
            yield
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def self_ns(self, sid: int) -> int:
        """Duration of a span minus the time its direct children cover.
        Calls are single-threaded, so children never overlap."""
        rec = self.spans[sid]
        covered = sum(s["end_ns"] - s["start_ns"] for s in self.spans if s["parent"] == sid)
        return rec["end_ns"] - rec["start_ns"] - covered

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))
