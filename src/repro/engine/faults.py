"""Deterministic fault injection for the execution engine.

The paper's algorithm runs on a Spark/YARN cluster where executor loss,
shuffle-fetch failures, and stragglers are routine.  This module gives the
reproduction the same adversary, but *deterministically*: a
:class:`FaultPlan` is a seedable list of fault clauses, and whether a
fault fires for a given ``(kind, task, attempt)`` triple is a pure
function of the plan's seed -- independent of thread scheduling, host
speed, or the execution backend.  That is what lets the chaos tests
assert that a faulted run is **bit-identical** to the fault-free one.

Four fault kinds are understood:

``kill``
    The worker dies mid-task.  Under the ``processes`` backend the child
    really exits (``os._exit``), breaking the process pool exactly the
    way a lost Spark executor breaks a stage; under ``threads``/``serial``
    the task raises :class:`InjectedWorkerKill`.
``straggler``
    The task sleeps ``delay`` seconds before running -- a slow node.
    Straggler delays are also charged to the simulated cluster's
    modelled clocks.
``fetch``
    A shuffle fetch fails at the destination worker and must be re-read
    (Spark's ``FetchFailedException``).  Affects the modelled clocks and
    the shuffle accounting; the data itself is intact.
``kernel``
    The local-join kernel raises :class:`InjectedKernelError`.

Fault-spec grammar (the CLI's ``--faults`` argument)::

    spec    := clause ("," clause)*
    clause  := kind (":" param "=" value)*
    kind    := kill | straggler | fetch | kernel
    params  := p=<prob 0..1>      probability per eligible attempt (default 1)
               times=<n>          only attempts 0..n-1 are eligible
                                  (default 1; 0 means every attempt)
               worker=<id>        only this simulated worker's tasks
               delay=<seconds>    straggler sleep
                                  (default 0.05)

Examples::

    kill:p=1:times=1                  first attempt of every task dies
    straggler:worker=0:delay=0.2      sim-worker 0's first attempt is slow
    fetch:p=0.3,kernel:p=0.1          30% fetch failures + 10% kernel errors
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

#: Fault kinds a plan may inject.
FAULT_KINDS = ("kill", "straggler", "fetch", "kernel")

_KIND_ALIASES = {
    "kill": "kill",
    "worker_kill": "kill",
    "straggler": "straggler",
    "delay": "straggler",
    "fetch": "fetch",
    "shuffle_fetch": "fetch",
    "kernel": "kernel",
    "kernel_error": "kernel",
}


class FaultError(RuntimeError):
    """Base class of injected failures."""


class InjectedWorkerKill(FaultError):
    """A worker died mid-task (injected)."""


class InjectedKernelError(FaultError):
    """A local-join kernel raised (injected)."""


class ShuffleFetchError(FaultError):
    """A worker's shuffle fetch kept failing after every retry."""

    def __init__(self, worker: int = -1, attempts: int = 0):
        self.worker = worker
        self.attempts = attempts
        super().__init__(
            f"shuffle fetch for worker {worker} failed after "
            f"{attempts} attempt(s)"
        )

    def __reduce__(self):
        return (ShuffleFetchError, (self.worker, self.attempts))


class RetryBudgetExhausted(RuntimeError):
    """A task kept failing after every configured retry and fallback."""


@dataclass(frozen=True)
class FaultEvent:
    """One injected-fault decision, for metrics and post-mortems."""

    kind: str
    worker: int
    attempt: int
    backend: str = ""
    #: Injected seconds (straggler delay); 0 for the other kinds.
    seconds: float = 0.0


@dataclass(frozen=True)
class TaskFailure:
    """One observed task-attempt failure, with its triggering exception.

    Unlike :class:`FaultEvent` (the *planned* injections), a
    ``TaskFailure`` records what actually went wrong -- injected or real
    -- so recovery spans and the run report can name the exception
    instead of swallowing it.
    """

    worker: int
    attempt: int
    backend: str
    error_type: str
    error_message: str
    speculative: bool = False

    @staticmethod
    def from_exception(
        worker: int,
        attempt: int,
        backend: str,
        exc: BaseException,
        speculative: bool = False,
    ) -> "TaskFailure":
        return TaskFailure(
            worker=worker,
            attempt=attempt,
            backend=backend,
            error_type=type(exc).__name__,
            error_message=str(exc),
            speculative=speculative,
        )

    def to_dict(self) -> dict:
        return {
            "worker": self.worker,
            "attempt": self.attempt,
            "backend": self.backend,
            "error_type": self.error_type,
            "error_message": self.error_message,
            "speculative": self.speculative,
        }


@dataclass(frozen=True)
class FaultClause:
    """One line of a fault plan; see the module docstring for semantics."""

    kind: str
    p: float = 1.0
    times: int = 1  # attempts [0, times) are eligible; 0 = every attempt
    worker: int | None = None
    delay: float = 0.05  # straggler sleep

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"fault probability must be in [0, 1], got {self.p}")
        if self.times < 0:
            raise ValueError(f"times must be >= 0, got {self.times}")
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")

    def spec(self) -> str:
        """The clause back in ``--faults`` grammar."""
        parts = [self.kind]
        if self.p != 1.0:
            parts.append(f"p={self.p:g}")
        if self.times != 1:
            parts.append(f"times={self.times}")
        if self.worker is not None:
            parts.append(f"worker={self.worker}")
        if self.kind == "straggler" and self.delay != 0.05:
            parts.append(f"delay={self.delay:g}")
        return ":".join(parts)


def _uniform(seed: int, clause_index: int, kind: str, key: int, attempt: int) -> float:
    """A deterministic uniform draw in [0, 1) for one fault decision."""
    token = f"{seed}|{clause_index}|{kind}|{key}|{attempt}".encode()
    digest = hashlib.blake2b(token, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic fault-injection plan.

    Decisions depend only on ``(seed, clause, kind, task key, attempt)``,
    so every backend -- and every retry of the same attempt number --
    sees the same faults.  The plan is immutable and picklable; the
    ``processes`` backend ships it to pool workers so injection happens
    inside the child, where a ``kill`` can really take the process down.
    """

    clauses: tuple[FaultClause, ...] = ()
    seed: int = 0

    @staticmethod
    def parse(spec: str, seed: int = 0) -> "FaultPlan":
        """Parse a ``--faults`` spec string (see the module docstring)."""
        clauses: list[FaultClause] = []
        for raw in spec.replace(";", ",").split(","):
            raw = raw.strip()
            if not raw:
                continue
            head, *params = raw.split(":")
            kind = _KIND_ALIASES.get(head.strip().lower())
            if kind is None:
                raise ValueError(
                    f"unknown fault kind {head.strip()!r} in {raw!r}; "
                    f"choose from {FAULT_KINDS}"
                )
            kwargs: dict[str, float | int] = {}
            for param in params:
                if "=" not in param:
                    raise ValueError(
                        f"malformed fault parameter {param!r} in {raw!r}; "
                        "expected key=value"
                    )
                key, _, value = param.partition("=")
                key = key.strip().lower()
                try:
                    if key == "p":
                        kwargs["p"] = float(value)
                    elif key == "times":
                        kwargs["times"] = int(value)
                    elif key == "worker":
                        kwargs["worker"] = int(value)
                    elif key == "delay":
                        kwargs["delay"] = float(value)
                    else:
                        raise ValueError(
                            f"unknown fault parameter {key!r} in {raw!r}"
                        )
                except ValueError as exc:
                    if "unknown fault parameter" in str(exc):
                        raise
                    raise ValueError(
                        f"bad value for {key!r} in {raw!r}: {value!r}"
                    ) from None
            clauses.append(FaultClause(kind, **kwargs))
        if not clauses:
            raise ValueError(f"empty fault spec {spec!r}")
        return FaultPlan(tuple(clauses), seed=seed)

    def spec(self) -> str:
        """The plan back in ``--faults`` grammar (round-trips via parse)."""
        return ",".join(clause.spec() for clause in self.clauses)

    def decide(self, kind: str, key: int, attempt: int) -> FaultClause | None:
        """The clause that fires for this decision, or ``None``.

        ``key`` identifies the task (the simulated worker id for task
        faults, the destination worker for fetch faults); ``attempt`` is
        the task's global attempt number, which keeps incrementing across
        retries and backend fallbacks.
        """
        for index, clause in enumerate(self.clauses):
            if clause.kind != kind:
                continue
            if clause.worker is not None and clause.worker != key:
                continue
            if clause.times and attempt >= clause.times:
                continue
            if _uniform(self.seed, index, kind, key, attempt) < clause.p:
                return clause
        return None

    def straggler_delay(self, key: int, attempt: int) -> float:
        """Injected delay seconds for this task attempt (0 if none)."""
        clause = self.decide("straggler", key, attempt)
        return clause.delay if clause is not None else 0.0

    def __bool__(self) -> bool:
        return bool(self.clauses)
