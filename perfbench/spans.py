"""In-memory spans recorded around calls into homposet's public functions.

The tracer lives in the benchmark, never inside the library: a span opens
in benchmark code right before a call into a module and closes when the
call returns.  Spans are plain dicts so a worker can send them to the
parent process as JSON.
"""
from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Collects spans with name, start, end, parent and run id."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str):
        """Record one span; the yielded dict's counts can be filled in."""
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": None,
            "end": None,
            "counts": {},
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = self.clock()
        try:
            yield rec
        finally:
            rec["end"] = self.clock()
            self._open.pop()
