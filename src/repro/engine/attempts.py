"""The attempt ledger: retry, backoff, speculation and the winner rule.

The paper's join is a Spark job: one scheduler owns retries, stragglers
and lost executors, and the executors are only where tasks run.  Here
the ``serial``, pool (``threads`` / ``processes``) and ``cluster`` tiers
are *transports* -- they know how to start an attempt and how to hear
that it ended -- and every decision about an attempt is made by the
:class:`AttemptLedger` they share:

* :meth:`~AttemptLedger.begin` launches an attempt (salvaging
  checkpointed cells first: a fully salvaged task completes without one);
* :meth:`~AttemptLedger.fail` charges a failure against the task's
  per-tier budget -- unless a sibling attempt may still win -- and queues
  the retry behind its exponential backoff, or declares the task
  exhausted on this tier;
* :meth:`~AttemptLedger.win` takes the first result of a task, drops its
  siblings (their spans end ``cancelled``) and ignores late duplicates;
* :meth:`~AttemptLedger.due` and :meth:`~AttemptLedger.stragglers` say
  what to launch next: retries whose backoff expired, and attempts
  older than ``task_timeout`` that deserve a speculative copy.

Decided once, for every tier: ``recovery_seconds`` is the time lost to
failed attempts *plus* the backoff waits; ages and deadlines are read off
one monotonic clock (injectable, so the policy is testable without
processes or sleeps); attempt numbers keep counting across tiers while
the failure budget starts afresh on each.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.engine.faults import FaultEvent, RetryBudgetExhausted, TaskFailure


@dataclass(eq=False)
class Flight:
    """One task attempt between its ``begin`` and its ``win`` or ``fail``."""

    task: int
    attempt: int
    #: Plan positions this attempt runs: the task's, minus salvaged cells.
    positions: np.ndarray
    started: float
    speculative: bool = False
    #: Set once a speculative copy of this attempt has been launched.
    speculated: bool = False
    #: Scheduler-side ``task`` span (``None`` when tracing is disabled).
    span: object = None
    #: The daemon the cluster transport sent it to; the ledger never reads it.
    daemon: int | None = None

    @property
    def span_id(self) -> str | None:
        return self.span.span_id if self.span is not None else None


class AttemptLedger:
    """Attempt bookkeeping for one job, shared by every tier it runs on.

    ``prepare(task, positions)`` salvages checkpointed cells and returns
    the positions still to run; ``absorb(task, block, elapsed)`` takes a
    winner's output.  :meth:`open` starts a tier; the per-task attempt
    counts (the next attempt's number) and ``last_error`` live as long as
    the job.
    """

    def __init__(
        self, policy, faults, report, tracer, registry, log, prepare, absorb,
        clock=time.monotonic,
    ):
        self.policy = policy
        self.faults = faults
        self.report = report
        self.tracer = tracer
        self.registry = registry
        self.log = log
        self.prepare = prepare
        self.absorb = absorb
        self.clock = clock
        self.per_task: dict[int, int] = defaultdict(int)
        self.last_error: BaseException | None = None
        self.open("", {})

    def open(self, backend: str, tasks: dict[int, np.ndarray]) -> None:
        """Start a tier over ``tasks``: the failure budget applies afresh."""
        self.backend = backend
        self.tasks = tasks
        self.completed: set[int] = set()
        self.exhausted: dict[int, np.ndarray] = {}
        self.queued: dict[int, float] = {}  # task -> retry-ready time
        self.failures: dict[int, int] = defaultdict(int)
        self.flights: dict[tuple[int, int], Flight] = {}

    # ------------------------------------------------------------------
    # the five decisions
    # ------------------------------------------------------------------
    def begin(self, task: int, speculative: bool = False) -> Flight | None:
        """Launch one attempt of ``task``; ``None`` when salvage finished it."""
        self.queued.pop(task, None)
        positions = self.prepare(task, self.tasks[task])
        if len(positions) == 0:
            # every remaining cell was salvaged from checkpoints
            self._finish(task)
            self.report.worker_wall.setdefault(task, 0.0)
            return None
        # the number is global, monotonic across tiers: a deterministic
        # fault plan never re-fires a fault the task already survived
        attempt = self.per_task[task]
        self.per_task[task] += 1
        self.registry.counter("executor.attempts").inc()
        self._note(task, attempt)
        span = self.tracer.begin(
            "task",
            cat="task",
            worker=task,
            attrs={
                "attempt": attempt,
                "backend": self.backend,
                "cells": int(len(positions)),
                "speculative": speculative,
            },
        )
        if speculative:
            for sibling in self.flights.values():
                if sibling.task == task:
                    sibling.speculated = True
            self.report.speculative_launched += 1
            self.registry.counter("executor.speculative_launched").inc()
            self.tracer.event(
                "speculation_launched",
                cat="recovery",
                worker=task,
                attempt=attempt,
                backend=self.backend,
            )
        flight = Flight(task, attempt, positions, self.clock(), speculative, span=span)
        self.flights[task, attempt] = flight
        return flight

    def fail(self, flight: Flight, exc: BaseException, now: float) -> float | None:
        """Charge a failed attempt.

        Returns the seconds until the task's retry is due, or ``None``
        when no retry was queued: a sibling attempt may still win, or the
        budget is spent and the task is exhausted on this tier.
        """
        task = flight.task
        del self.flights[task, flight.attempt]
        self.report.recovery_seconds += max(0.0, now - flight.started)
        self.last_error = exc
        self._record_failure(flight, exc)
        if self.flying(task):
            return None  # a sibling attempt may still win
        self.failures[task] += 1
        if self.failures[task] > self.policy.max_retries:
            self.exhausted[task] = self.tasks[task]
            return None
        pause = self.policy.backoff(self.failures[task] - 1)
        self.report.recovery_seconds += pause
        self.queued[task] = now + pause
        return pause

    def win(self, flight: Flight, block, elapsed: float) -> bool:
        """Take a finished attempt's block; ``False`` for a stale duplicate
        (a sibling won first, or the flight was charged to a lost worker)."""
        if self.flights.pop((flight.task, flight.attempt), None) is not flight:
            return False
        self.tracer.end(flight.span)
        if flight.speculative:
            self.report.speculative_wins += 1
            self.registry.counter("executor.speculative_wins").inc()
        self._finish(flight.task)
        self.absorb(flight.task, block, elapsed)
        return True

    def due(self, now: float) -> list[int]:
        """Tasks whose backoff has expired, in task order; they leave the queue."""
        ready = sorted(t for t, at in self.queued.items() if at <= now)
        for task in ready:
            del self.queued[task]
        return ready

    def stragglers(self, now: float) -> list[Flight]:
        """Attempts that deserve a speculative copy: older than
        ``task_timeout``, not speculative themselves, not speculated
        already, and the only attempt of their task in flight."""
        timeout = self.policy.task_timeout
        if timeout is None:
            return []
        return [
            fl for fl in self.flights.values()
            if not (fl.speculative or fl.speculated)
            and now - fl.started >= timeout
            and self.flying(fl.task) == 1
        ]

    # ------------------------------------------------------------------
    # what a transport asks besides
    # ------------------------------------------------------------------
    def flying(self, task: int) -> int:
        """Attempts of ``task`` in flight."""
        return sum(1 for fl in self.flights.values() if fl.task == task)

    @property
    def unfinished(self) -> bool:
        """Whether a task of this tier is neither completed nor exhausted."""
        return len(self.completed) + len(self.exhausted) < len(self.tasks)

    @property
    def attempt_budget(self) -> int:
        """Failures one task may run up on one tier before it is exhausted."""
        return self.policy.max_retries + 1

    def requeue(self, task: int) -> None:
        """Queue a task the transport could not place: no charge, no wait."""
        self.queued.setdefault(task, self.clock())

    def give_up(self, exc: BaseException) -> None:
        """The transport is gone: every unfinished task is exhausted here."""
        for task, positions in self.tasks.items():
            if task not in self.completed:
                self.exhausted.setdefault(task, positions)
        if self.last_error is None:
            self.last_error = exc

    def close(self) -> dict[int, np.ndarray]:
        """End the tier: drop what still flies, return the exhausted tasks."""
        for flight in list(self.flights.values()):
            self._drop(flight)
        return self.exhausted

    def budget_exhausted(self, remaining: int, tier: str) -> RetryBudgetExhausted:
        """The error for ``remaining`` tasks no tier could finish."""
        retries = self.policy.max_retries
        return RetryBudgetExhausted(
            f"{remaining} task(s) failed after {retries} "
            f"retr{'y' if retries == 1 else 'ies'} on the {tier!r} backend"
        )

    # ------------------------------------------------------------------
    def _finish(self, task: int) -> None:
        self.completed.add(task)
        self.queued.pop(task, None)
        for flight in [fl for fl in self.flights.values() if fl.task == task]:
            self._drop(flight)

    def _drop(self, flight: Flight) -> None:
        """A losing sibling: whatever it still returns is a stale duplicate."""
        del self.flights[flight.task, flight.attempt]
        if flight.span is not None:
            flight.span.attrs["cancelled"] = True
            self.tracer.end(flight.span)

    def _note(self, task: int, attempt: int) -> None:
        """Record which fault decisions this attempt will hit.

        The fault plan is deterministic, so the parent can predict the
        child's injections without a reporting channel -- even for a
        ``kill``, which leaves no child to report anything.
        """
        if self.faults is None:
            return
        for kind in ("kill", "straggler", "kernel"):
            clause = self.faults.decide(kind, task, attempt)
            if clause is not None:
                self.report.fault_events.append(
                    FaultEvent(
                        kind, task, attempt, self.backend,
                        clause.delay if kind == "straggler" else 0.0,
                    )
                )

    def _record_failure(self, flight: Flight, exc: BaseException) -> None:
        """Log one attempt failure: report entry, counter, recovery event.

        The triggering exception's type and message travel on the span,
        the ``task_failure`` event, and :attr:`ExecutionReport.failures`
        -- nothing is swallowed.
        """
        failure = TaskFailure.from_exception(
            flight.task, flight.attempt, self.backend, exc, flight.speculative
        )
        self.report.failures.append(failure)
        self.registry.counter(f"executor.failures.{failure.error_type}").inc()
        attrs = failure.to_dict()
        attrs.pop("worker")
        if flight.span is not None:
            flight.span.attrs["error_type"] = failure.error_type
            flight.span.attrs["error_message"] = failure.error_message
        self.tracer.event(
            "task_failure",
            cat="recovery",
            parent_id=flight.span_id,
            worker=flight.task,
            **attrs,
        )
        self.tracer.end(flight.span)
        self.log.warning(
            "task failed: worker=%d attempt=%d backend=%s %s: %s",
            flight.task, flight.attempt, self.backend,
            failure.error_type, failure.error_message,
        )
