"""Admission control and micro-batching for the join server.

Two mechanisms keep a resident server healthy under concurrent load:

* **Admission control** -- at most ``max_inflight`` queries execute at
  once (an :class:`asyncio.Semaphore`); at most ``max_queue`` more may
  wait for a slot.  Beyond that the server *rejects* with
  :class:`QueryRejected` instead of queueing unboundedly -- the client
  sees an immediate "overloaded" error and can back off, the classic
  load-shedding admission policy.

* **Micro-batching (single-flight coalescing)** -- concurrent queries
  with the same canonical key (same datasets, same configuration) are
  *compatible*: the join is deterministic, so their answers are
  byte-identical.  Only the first runs; the rest await its future and
  share the result.  Under a traffic spike of popular queries the
  executor sees one join, not N.

The controller is pure asyncio bookkeeping -- the actual join runs in
the thread pool the caller supplies, so the event loop stays responsive
while numpy crunches.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable

__all__ = ["AdmissionController", "QueryRejected"]


class QueryRejected(RuntimeError):
    """The server is saturated: no execution slot and no queue room."""


def _consume_exception(fut: asyncio.Future) -> None:
    """Mark a failed future's exception retrieved (silences the loop's
    'exception was never retrieved' warning when nobody coalesced)."""
    if not fut.cancelled():
        fut.exception()


class AdmissionController:
    """Bounded-concurrency, single-flight query admission.

    The bounds are ``ServerConfig.max_inflight`` / ``max_queue``, which
    that config declares and checks."""

    def __init__(self, max_inflight: int, max_queue: int):
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self._sem = asyncio.Semaphore(max_inflight)
        self._inflight: dict[tuple, asyncio.Future] = {}
        self._waiting = 0
        self._running = 0
        # counters for the stats endpoint
        self.admitted = 0
        self.completed = 0
        self.coalesced = 0
        self.rejected = 0
        self.peak_inflight = 0
        self.peak_waiting = 0

    # ------------------------------------------------------------------
    async def run(self, key: tuple, call: Callable[[], Awaitable]) -> object:
        """Admit one query: coalesce, queue, or reject; return its result.

        ``call`` produces the awaitable that computes the result (e.g.
        ``loop.run_in_executor(pool, thunk)``).  It is invoked only for
        the flight that actually executes.
        """
        existing = self._inflight.get(key)
        if existing is not None:
            self.coalesced += 1
            # shield: one coalesced client disconnecting must not cancel
            # the shared computation the others are waiting on
            return await asyncio.shield(existing)

        if self._waiting >= self.max_queue:
            self.rejected += 1
            raise QueryRejected(
                f"server overloaded: {self._running} quer"
                f"{'y' if self._running == 1 else 'ies'} in flight and "
                f"{self._waiting} waiting (max_queue={self.max_queue})"
            )

        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        fut.add_done_callback(_consume_exception)
        self._inflight[key] = fut
        self._waiting += 1
        self.peak_waiting = max(self.peak_waiting, self._waiting)
        try:
            await self._sem.acquire()
        except BaseException:
            self._waiting -= 1
            self._inflight.pop(key, None)
            fut.cancel()
            raise
        self._waiting -= 1
        self._running += 1
        self.admitted += 1
        self.peak_inflight = max(self.peak_inflight, self._running)
        try:
            result = await call()
        except BaseException as exc:
            if not fut.done():
                fut.set_exception(exc)
            raise
        else:
            if not fut.done():
                fut.set_result(result)
            self.completed += 1
            return result
        finally:
            self._running -= 1
            self._sem.release()
            self._inflight.pop(key, None)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "max_inflight": self.max_inflight,
            "max_queue": self.max_queue,
            "running": self._running,
            "waiting": self._waiting,
            "admitted": self.admitted,
            "completed": self.completed,
            "coalesced": self.coalesced,
            "rejected": self.rejected,
            "peak_inflight": self.peak_inflight,
            "peak_waiting": self.peak_waiting,
        }
