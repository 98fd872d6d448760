"""The attempt policy, driven by a fake transport and an injected clock.

No process is forked and nothing sleeps: the "transport" here is the test
calling :class:`~repro.engine.attempts.AttemptLedger` the way the serial
and pool tiers do.  ``test_fault_tolerance.py`` runs one fault
plan through every real tier and checks they account for it alike.
"""

import logging

import numpy as np
import pytest

from repro.engine.attempts import AttemptLedger, backoff
from repro.engine.executor import ExecutionReport
from repro.engine.telemetry import Tracer

TASKS = {0: np.arange(0, 3), 1: np.arange(3, 5)}


class Clock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def make_ledger(max_retries=2, task_timeout=None, prepare=None, tasks=TASKS):
    clock = Clock()
    absorbed = []
    ledger = AttemptLedger(
        max_retries,
        task_timeout,
        None,
        ExecutionReport(backend="fake", os_workers=1),
        Tracer(enabled=False),
        logging.getLogger("test.ledger"),
        prepare or (lambda task, positions: positions),
        lambda task, block, elapsed: absorbed.append((task, block, elapsed)),
        clock=clock,
    )
    ledger.open("fake", tasks)
    return ledger, clock, absorbed


def test_budget_is_exhausted_after_max_retries_plus_one_failures():
    ledger, clock, _ = make_ledger()
    for failure in range(3):
        flight = ledger.begin(0)
        assert flight.attempt == failure
        assert 0 not in ledger.exhausted
        pause = ledger.fail(flight, RuntimeError("boom"), clock.now)
        clock.now += 60.0
    assert pause is None
    assert ledger.exhausted == {0: TASKS[0]} and not ledger.queued
    assert ledger.per_task == {0: 3}
    assert [f.error_type for f in ledger.report.failures] == ["RuntimeError"] * 3
    assert 1 not in ledger.completed and 1 not in ledger.exhausted  # never ran
    assert ledger.close() == {0: TASKS[0]}


def test_a_failure_while_a_sibling_flies_charges_nothing():
    ledger, clock, _ = make_ledger(max_retries=0, task_timeout=1.0)
    original = ledger.begin(0)
    copy = ledger.begin(0, speculative=True)
    assert ledger.fail(copy, RuntimeError("copy died"), clock.now) is None
    assert ledger.failures[0] == 0 and not ledger.exhausted and not ledger.queued
    assert len(ledger.report.failures) == 1 and ledger.report.failures[0].speculative
    # the original is now alone: its failure is the one that counts
    assert ledger.fail(original, RuntimeError("so did the original"), clock.now) is None
    assert ledger.failures[0] == 1 and 0 in ledger.exhausted


def test_the_retry_is_due_exactly_at_its_backoff():
    ledger, clock, _ = make_ledger()
    waited = 0.0
    for retry in range(2):
        flight = ledger.begin(0)
        clock.now += 0.25  # the attempt ran this long before failing
        pause = ledger.fail(flight, RuntimeError("boom"), clock.now)
        assert pause == backoff(retry) == 0.01 * 2**retry
        waited += pause
        assert ledger.due(clock.now + pause - 1e-6) == []
        assert ledger.due(clock.now + pause) == [0]
        assert ledger.due(clock.now + pause) == []  # it left the queue
        clock.now += pause
    # lost attempts and backoff waits both count, on every tier
    assert ledger.report.recovery_seconds == pytest.approx(2 * 0.25 + waited)


def test_due_is_in_task_order(no_backoff):
    ledger, clock, _ = make_ledger()
    for task in (1, 0):
        ledger.fail(ledger.begin(task), RuntimeError("boom"), clock.now)
    assert ledger.due(clock.now) == [0, 1]


def test_a_speculative_win_counts_once_and_a_late_duplicate_is_ignored():
    ledger, clock, absorbed = make_ledger(task_timeout=1.0)
    original = ledger.begin(0)
    clock.now += 2.0
    assert ledger.stragglers(clock.now) == [original]
    copy = ledger.begin(0, speculative=True)
    assert original.speculated and ledger.report.speculative_launched == 1
    assert ledger.win(copy, "copy's block", 0.1) is True
    assert ledger.report.speculative_wins == 1
    assert ledger.completed == {0} and not ledger.flights  # the sibling was dropped
    assert ledger.win(original, "original's block", 2.5) is False
    assert ledger.win(copy, "copy's block, again", 0.1) is False
    assert ledger.report.speculative_wins == 1
    assert absorbed == [(0, "copy's block", 0.1)]


def test_stragglers_are_old_sole_first_copies():
    ledger, clock, _ = make_ledger(task_timeout=1.0)
    slow = ledger.begin(0)
    clock.now += 0.5
    assert ledger.stragglers(clock.now) == []  # not old enough yet
    clock.now += 0.5
    young = ledger.begin(1)
    assert ledger.stragglers(clock.now) == [slow]
    copy = ledger.begin(0, speculative=True)
    clock.now += 5.0
    # neither the speculated original nor its speculative copy, ever again
    assert ledger.stragglers(clock.now) == [young]
    assert copy.speculative and slow.speculated
    no_timeout, clock2, _ = make_ledger(task_timeout=None)
    no_timeout.begin(0)
    assert no_timeout.stragglers(clock2.now + 1e9) == []


def test_an_all_salvaged_begin_completes_the_task_without_an_attempt():
    ledger, clock, _ = make_ledger(
        prepare=lambda task, positions: positions[:0] if task == 0 else positions
    )
    assert ledger.begin(0) is None
    assert ledger.completed == {0}
    assert not ledger.per_task
    assert ledger.report.worker_wall == {0: 0.0}
    assert ledger.begin(1) is not None and ledger.per_task == {1: 1}


def test_a_new_tier_has_a_fresh_budget_and_the_next_attempt_number(no_backoff):
    ledger, clock, _ = make_ledger(max_retries=0)
    ledger.fail(ledger.begin(0), RuntimeError("boom"), clock.now)
    remaining = ledger.close()
    assert set(remaining) == {0}
    ledger.open("next", remaining)
    assert not ledger.exhausted and ledger.failures[0] == 0
    assert ledger.begin(0).attempt == 1

