"""Benchmark-side spans: taken around calls into the program, from outside.

Spans stay in memory and are written once, when the run ends.  A span's
parent is the span that was open on the same thread when it started, so
a layer's *self time* is its duration minus its children's.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager


class SpanLog:
    def __init__(self, workload: str, round_: int = 0):
        self.workload = workload
        self.round = round_
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._open = threading.local()

    @contextmanager
    def span(self, name: str, op=None, **attrs):
        stack = getattr(self._open, "stack", None)
        if stack is None:
            stack = self._open.stack = []
        with self._lock:
            sid = len(self.spans)
            row = {
                "id": sid,
                "name": name,
                "start": 0.0,
                "end": 0.0,
                "parent": stack[-1] if stack else None,
                "workload": self.workload,
                "round": self.round,
                "op": op,
                **attrs,
            }
            self.spans.append(row)
        stack.append(sid)
        row["start"] = time.perf_counter()
        try:
            yield row
        finally:
            row["end"] = time.perf_counter()
            stack.pop()

    def durations(self, *names: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] in names]

    def children(self, parent_id: int) -> list[dict]:
        return [s for s in self.spans if s["parent"] == parent_id]

    def self_time(self, span: dict) -> float:
        covered = sum(c["end"] - c["start"] for c in self.children(span["id"]))
        return (span["end"] - span["start"]) - covered

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)
