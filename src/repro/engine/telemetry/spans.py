"""Span-based tracing for the staged join pipeline.

A *span* is a named, timed interval with attributes: the job is the root
span, every pipeline stage is a child of the job, and executor task
attempts, shuffle fetch retries, block spills/refetches and checkpoint
salvages nest beneath their stage.  Instant occurrences (a task failure,
a backend degradation) are zero-duration *event* spans.

The recorder is **lock-free on the hot path**: every worker thread gets
its own append-only buffer (registered once, under a lock, on the
thread's first span), so concurrent kernel threads never contend while
tracing.  Worker *processes* cannot share the buffers at all -- they
record into a child-local :class:`Tracer` and ship their spans back
pickled with the task result, exactly the discipline the block store
uses for spilled arrays; the parent absorbs them with :meth:`Tracer.merge`.

Two export formats are supported:

* **JSONL** -- one span object per line, easy to grep and stream-parse;
* **Chrome trace-event JSON** -- load the file in ``chrome://tracing``
  (or https://ui.perfetto.dev) for a flame-graph timeline, one track per
  simulated worker.

A disabled tracer (``enabled=False``) keeps the full API but does no
work: ``span()`` hands back a shared no-op context manager and
``event()`` returns immediately, so always-on instrumentation costs a
single attribute check per call site.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "Tracer",
    "new_run_id",
    "validate_span_tree",
    "write_trace",
]

#: Trace export formats understood by :func:`write_trace`.
TRACE_FORMATS = ("jsonl", "chrome")


def new_run_id() -> str:
    """A short, globally unique id naming one join run."""
    return uuid.uuid4().hex[:12]


@dataclass
class Span:
    """One traced interval (or instant event) of a join run.

    ``start``/``end`` are epoch seconds (:func:`time.time`), comparable
    across processes; ``worker`` is the *simulated* worker the span ran
    for (``None`` for driver-side spans); ``cat`` is the coarse span
    category (``job``, ``stage``, ``construction``, ``task``, ``shuffle``,
    ``blockstore``, ``recovery``, ``salvage``); ``kind`` distinguishes intervals
    (``span``) from instant events (``event``).
    """

    name: str
    span_id: str
    parent_id: str | None = None
    cat: str = "span"
    kind: str = "span"
    start: float = 0.0
    end: float = 0.0
    worker: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "cat": self.cat,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "worker": self.worker,
            "attrs": self.attrs,
        }

    @staticmethod
    def from_dict(payload: dict) -> "Span":
        return Span(
            name=payload["name"],
            span_id=payload["span_id"],
            parent_id=payload.get("parent_id"),
            cat=payload.get("cat", "span"),
            kind=payload.get("kind", "span"),
            start=payload.get("start", 0.0),
            end=payload.get("end", 0.0),
            worker=payload.get("worker"),
            attrs=payload.get("attrs") or {},
        )


class _NoopSpan:
    """The shared context manager a disabled tracer hands out."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NOOP = _NoopSpan()


#: Process-wide id sequence shared by every tracer instance.  A pool
#: worker process builds a fresh short-lived tracer per task; a
#: per-instance sequence would restart at 1 each time and mint colliding
#: ``pid.seq`` ids for the same worker process.
_ID_SEQ = itertools.count(1)


class Tracer:
    """Records spans into per-thread buffers; merges child-process spans.

    One tracer serves one run.  Span ids embed the recording process id,
    so ids minted inside pool workers never collide with the parent's
    and a merged trace stays a well-formed tree.
    """

    def __init__(self, enabled: bool = True, run_id: str | None = None):
        self.enabled = enabled
        self.run_id = run_id or new_run_id()
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._buffers: list[list[Span]] = []
        self._merged: list[Span] = []
        self._local = threading.local()

    # ------------------------------------------------------------------
    # recording (hot path: no locks after a thread's first span)
    # ------------------------------------------------------------------
    def _buffer(self) -> list[Span]:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = []
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _next_id(self) -> str:
        # os.getpid() at call time: a fork()ed pool worker inherits the
        # tracer (and _ID_SEQ's position) but must mint ids of its own
        return f"{os.getpid():x}.{next(_ID_SEQ)}"

    def current_id(self) -> str | None:
        """The innermost open span on *this* thread (explicit parenting
        across threads must pass the id by hand)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(
        self,
        name: str,
        cat: str = "span",
        parent_id: str | None = None,
        worker: int | None = None,
        attrs: dict | None = None,
    ) -> Span | None:
        """Open a span without entering it on the thread's stack.

        For spans whose lifetime does not follow lexical scope (e.g. a
        task attempt tracked by a scheduler loop); close with :meth:`end`.
        """
        if not self.enabled:
            return None
        return Span(
            name=name,
            span_id=self._next_id(),
            parent_id=parent_id if parent_id is not None else self.current_id(),
            cat=cat,
            start=time.time(),
            worker=worker,
            attrs=dict(attrs) if attrs else {},
        )

    def end(self, span: Span | None) -> None:
        """Close a span opened with :meth:`begin` and record it."""
        if span is None or not self.enabled:
            return
        span.end = time.time()
        self._buffer().append(span)

    @contextmanager
    def _span_cm(self, span: Span):
        stack = self._stack()
        stack.append(span.span_id)
        try:
            yield span
        finally:
            stack.pop()
            span.end = time.time()
            self._buffer().append(span)

    def span(
        self,
        name: str,
        cat: str = "span",
        parent_id: str | None = None,
        worker: int | None = None,
        **attrs,
    ):
        """Context manager: a span covering the ``with`` body.

        Nested ``span()`` calls on the same thread parent automatically;
        pass ``parent_id`` to attach to a span opened on another thread.
        """
        if not self.enabled:
            return _NOOP
        span = self.begin(name, cat, parent_id, worker, attrs)
        return self._span_cm(span)

    def event(
        self,
        name: str,
        cat: str = "event",
        parent_id: str | None = None,
        worker: int | None = None,
        **attrs,
    ) -> None:
        """Record an instant (zero-duration) event span."""
        if not self.enabled:
            return
        now = time.time()
        self._buffer().append(
            Span(
                name=name,
                span_id=self._next_id(),
                parent_id=parent_id if parent_id is not None else self.current_id(),
                cat=cat,
                kind="event",
                start=now,
                end=now,
                worker=worker,
                attrs=attrs,
            )
        )

    # ------------------------------------------------------------------
    # cross-process merge (pickle-and-merge, like spilled blocks)
    # ------------------------------------------------------------------
    def export_payload(self) -> list[dict]:
        """This tracer's spans as plain dicts, safe to pickle to a parent."""
        return [s.to_dict() for s in self.spans()]

    def merge(self, payload: list[dict] | None) -> None:
        """Absorb spans shipped back from a worker process."""
        if not payload:
            return
        spans = [Span.from_dict(p) for p in payload]
        with self._lock:
            self._merged.extend(spans)

    # ------------------------------------------------------------------
    # reading the trace
    # ------------------------------------------------------------------
    def spans(self) -> list[Span]:
        """Every recorded span, merged across threads, sorted by start."""
        with self._lock:
            out = [s for buf in self._buffers for s in buf]
            out.extend(self._merged)
        out.sort(key=lambda s: (s.start, s.span_id))
        return out

    def __len__(self) -> int:
        with self._lock:
            return sum(len(b) for b in self._buffers) + len(self._merged)


# ----------------------------------------------------------------------
# trace well-formedness (the test suite's check of every trace)
# ----------------------------------------------------------------------


def validate_span_tree(spans: list[Span]) -> None:
    """Raise ``ValueError`` on an ill-formed trace.

    Checks: span ids unique; every ``parent_id`` resolves (no orphans);
    exactly one root interval span; children start within their parent;
    sibling *stage* spans do not overlap (the pipeline runs stages
    sequentially).
    """
    ids = [s.span_id for s in spans]
    if len(ids) != len(set(ids)):
        raise ValueError("duplicate span ids in trace")
    known = set(ids)
    orphans = [s.name for s in spans if s.parent_id is not None and s.parent_id not in known]
    if orphans:
        raise ValueError(f"orphan spans (unknown parent): {sorted(orphans)}")
    roots = [s for s in spans if s.parent_id is None and s.kind == "span"]
    if len(roots) != 1:
        raise ValueError(f"expected exactly one root span, got {len(roots)}")
    by_id = {s.span_id: s for s in spans}
    slack = 1e-6  # clock reads happen a hair apart
    for span in spans:
        if span.parent_id is None:
            continue
        parent = by_id[span.parent_id]
        if span.start < parent.start - slack or (
            parent.kind == "span" and span.start > parent.end + slack
        ):
            raise ValueError(
                f"span {span.name!r} starts outside its parent {parent.name!r}"
            )
    stages = sorted(
        (s for s in spans if s.cat == "stage"), key=lambda s: s.start
    )
    for prev, nxt in zip(stages, stages[1:]):
        if nxt.start < prev.end - slack:
            raise ValueError(
                f"stage spans overlap: {prev.name!r} and {nxt.name!r}"
            )


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------
def _chrome_events(spans: list[Span], run_id: str) -> list[dict]:
    if spans:
        t0 = min(s.start for s in spans)
    else:
        t0 = 0.0
    events = []
    for span in spans:
        tid = span.worker if span.worker is not None else 0
        base = {
            "name": span.name,
            "cat": span.cat,
            "pid": run_id,
            "tid": f"worker {tid}" if span.worker is not None else "driver",
            "args": {**span.attrs, "span_id": span.span_id},
        }
        if span.kind == "event":
            events.append(
                {**base, "ph": "i", "ts": (span.start - t0) * 1e6, "s": "t"}
            )
        else:
            events.append(
                {
                    **base,
                    "ph": "X",
                    "ts": (span.start - t0) * 1e6,
                    "dur": span.duration * 1e6,
                }
            )
    return events


def write_trace(
    spans: list[Span], path: str, fmt: str = "jsonl", run_id: str = ""
) -> None:
    """Write a trace file in ``jsonl`` or ``chrome`` trace-event format."""
    if fmt not in TRACE_FORMATS:
        raise ValueError(f"unknown trace format {fmt!r}; choose from {TRACE_FORMATS}")
    if fmt == "jsonl":
        with open(path, "w") as f:
            f.write(json.dumps({"type": "run", "run_id": run_id}) + "\n")
            for span in spans:
                f.write(json.dumps({"type": "span", **span.to_dict()}) + "\n")
        return
    payload = {
        "traceEvents": _chrome_events(spans, run_id),
        "displayTimeUnit": "ms",
        "metadata": {"run_id": run_id},
    }
    with open(path, "w") as f:
        json.dump(payload, f)
