"""The cluster coordinator: daemon lifecycle, task placement, recovery.

:class:`ClusterService` turns the executor's ``cluster`` backend into a
real shared-nothing process cluster on localhost: it spawns long-lived
worker daemons (:mod:`repro.engine.cluster_backend.daemon`), seeds each
task's shuffle blocks onto a home daemon, places tasks with the LPT
partitioner, and supervises execution with heartbeat-based failure
detection, retry/backoff, straggler speculation, elastic membership and
bounded respawn.  Tasks whose retry budget is exhausted -- or every
unfinished task when the whole cluster collapses -- are handed back to
:func:`~repro.engine.executor.execute_plan`, whose existing fallback
chain degrades cluster → processes → threads → serial.

The scheduler is a *transport* under the job's
:class:`~repro.engine.attempts.AttemptLedger`, like the pool tier: block
seeding, placement, failure detection and respawn are its own; which
attempt to charge, when a retry is due, who is a straggler and who won
are the ledger's calls, so results stitch back in plan order and faulted
cluster runs stay bit-identical to the serial golden.  See
``docs/CLUSTER.md``.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from collections import defaultdict, deque
from dataclasses import dataclass

import numpy as np

from repro.engine.cluster_backend.protocol import recv_msg, send_msg
from repro.engine.executor import _TICK, _task_columns
from repro.engine.faults import FaultEvent
from repro.engine.hygiene import sweep_stale_resources
from repro.engine.lpt import lpt_assignment
from repro.engine.telemetry import MetricsRegistry, Tracer, get_logger

#: Deadline for daemon startup registration (seconds).
_START_TIMEOUT = 10.0


class ClusterUnavailable(RuntimeError):
    """No cluster daemon could be started or registered."""


class DaemonLost(RuntimeError):
    """A daemon died (or went silent) while its task was in flight."""


class RemoteTaskError(RuntimeError):
    """A task attempt failed inside a daemon; carries the remote error."""

    def __init__(self, error_type: str, error_message: str):
        self.remote_type = error_type
        super().__init__(f"{error_type}: {error_message}")


@dataclass(frozen=True)
class ClusterConfig:
    """Tunables of the localhost process cluster (see ``docs/CLUSTER.md``)."""

    #: Daemons to start (``None``: the executor's worker cap).
    daemons: int | None = None
    #: Seconds between daemon heartbeats.
    heartbeat_interval: float = 0.05
    #: Silence, in seconds, after which a daemon is declared lost.
    heartbeat_timeout: float = 2.0
    #: Per-fetch socket timeout for remote block reads.
    fetch_timeout: float = 2.0
    #: Run the startup hygiene sweep (see :mod:`repro.engine.hygiene`).
    sweep_on_start: bool = True

    @staticmethod
    def coerce(value) -> "ClusterConfig":
        if value is None:
            return ClusterConfig()
        if isinstance(value, ClusterConfig):
            return value
        return ClusterConfig(**dict(value))


class _DaemonHandle:
    """Coordinator-side state of one daemon (live, lost, or departed)."""

    def __init__(self, daemon_id: int, proc):
        self.id = daemon_id
        self.proc = proc
        self.pid = proc.pid if proc is not None else None
        self.sock: socket.socket | None = None
        self.send_lock = threading.Lock()
        self.block_addr: tuple[str, int] | None = None
        self.registered = False
        self.lost = False  # declared dead (heartbeat silence)
        self.dead = False  # connection gone for good
        self.departed = False  # graceful leave; never a failure
        self.last_hb = time.monotonic()
        self.queue: deque[int] = deque()
        self.running: set[int] = set()

    @property
    def live(self) -> bool:
        return (
            self.registered and not self.lost and not self.dead
            and not self.departed
        )


class ClusterService:
    """Spawn, supervise and drive a localhost daemon cluster."""

    def __init__(
        self,
        config: ClusterConfig | None = None,
        *,
        faults=None,
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
        log=None,
    ):
        self.config = ClusterConfig.coerce(config)
        self.faults = faults
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.log = log or get_logger(
            "repro.engine.cluster", self.tracer.run_id
        )
        self._daemons: dict[int, _DaemonHandle] = {}
        self._events: queue.Queue = queue.Queue()
        self._server: socket.socket | None = None
        self._addr: tuple[str, int] | None = None
        self._task_blocks: dict[tuple, dict] = {}
        self._blocks_lock = threading.Lock()
        self._next_id = 0
        self.daemons_spawned = 0
        self.fallback_served = 0
        self._stop = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, num_daemons: int) -> None:
        """Open the control server and spawn+register the initial members.

        Raises :class:`ClusterUnavailable` when not a single daemon comes
        up before the start timeout -- the executor then degrades to the
        ``processes`` backend.
        """
        if self.config.sweep_on_start:
            swept = sweep_stale_resources()
            if swept["dirs_removed"] or swept["segments_removed"]:
                self.log.info(
                    "startup hygiene: removed %d stale dir(s), "
                    "%d orphaned shm segment(s)",
                    len(swept["dirs_removed"]),
                    len(swept["segments_removed"]),
                )
        try:
            self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._server.bind(("127.0.0.1", 0))
            self._server.listen(64)
            self._server.settimeout(0.2)
        except OSError as exc:
            raise ClusterUnavailable(
                f"cannot open coordinator socket: {exc}"
            ) from exc
        self._addr = self._server.getsockname()
        spawned = 0
        for _ in range(max(1, num_daemons)):
            if self._spawn() is not None:
                spawned += 1
        deadline = time.monotonic() + _START_TIMEOUT
        while (
            sum(1 for h in self._daemons.values() if h.registered) < spawned
            and time.monotonic() < deadline
        ):
            self._accept_once()
        registered = sum(1 for h in self._daemons.values() if h.registered)
        if registered == 0:
            self.close()
            raise ClusterUnavailable(
                f"no cluster daemon registered within "
                f"{_START_TIMEOUT:.1f}s ({spawned} spawned)"
            )
        if registered < spawned:  # pragma: no cover - timing dependent
            self.log.warning(
                "only %d of %d daemon(s) registered; continuing short-handed",
                registered, spawned,
            )
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True
        )
        self._accept_thread.start()

    def _spawn(self) -> int | None:
        """Fork one daemon process; ``None`` when the spawn itself fails."""
        import multiprocessing as mp

        ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else None
        )
        daemon_id = self._next_id
        self._next_id += 1
        from repro.engine.cluster_backend.daemon import daemon_main

        try:
            proc = ctx.Process(
                target=daemon_main,
                args=(
                    daemon_id,
                    self._addr[0],
                    self._addr[1],
                    self.config.heartbeat_interval,
                    self.faults,
                    self.tracer.enabled,
                    self.tracer.run_id,
                ),
                daemon=True,
            )
            proc.start()
        except (OSError, ValueError) as exc:
            self.log.warning("daemon %d failed to spawn: %s", daemon_id, exc)
            return None
        self._daemons[daemon_id] = _DaemonHandle(daemon_id, proc)
        self.daemons_spawned += 1
        self.registry.counter("cluster.daemons_spawned").inc()
        return daemon_id

    def add_daemon(self) -> int | None:
        """Elastic join: spawn one more member mid-job (registers async)."""
        return self._spawn()

    def remove_daemon(self, daemon_id: int) -> None:
        """Elastic leave: ask a member to finish its task and exit."""
        handle = self._daemons.get(daemon_id)
        if handle is None or not handle.registered or handle.dead:
            return
        handle.departed = True
        try:
            with handle.send_lock:
                send_msg(handle.sock, ("stop", {}))
        except OSError:
            handle.dead = True

    def daemon_pid(self, daemon_id: int) -> int | None:
        """The OS pid of one daemon (chaos tests SIGKILL through this)."""
        handle = self._daemons.get(daemon_id)
        return handle.pid if handle is not None else None

    def live_daemons(self) -> list[int]:
        return sorted(h.id for h in self._daemons.values() if h.live)

    def _place(self, costs: dict[int, float]) -> dict[int, int]:
        """LPT placement of tasks over the live daemons (the cell
        partitioner's greedy: heaviest first, onto the least-loaded member)."""
        live = self.live_daemons()
        if not live:
            return {}
        slots = lpt_assignment(costs, len(live))
        return {task: live[slot] for task, slot in slots.items()}

    def close(self) -> None:
        """Stop every daemon, reap the processes, release the sockets."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        for handle in self._daemons.values():
            if handle.registered and not handle.dead and not handle.departed:
                try:
                    with handle.send_lock:
                        send_msg(handle.sock, ("stop", {}))
                except OSError:
                    pass
        for handle in self._daemons.values():
            if handle.proc is not None:
                handle.proc.join(timeout=1.5)
                if handle.proc.is_alive():
                    handle.proc.kill()
                    handle.proc.join(timeout=1.5)
        for handle in self._daemons.values():
            if handle.sock is not None:
                try:
                    handle.sock.close()
                except OSError:  # pragma: no cover - defensive
                    pass
        if self._server is not None:
            try:
                self._server.close()
            except OSError:  # pragma: no cover - defensive
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=1.0)

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # accept / read threads
    # ------------------------------------------------------------------
    def _accept_once(self) -> None:
        try:
            conn, _addr = self._server.accept()
        except (socket.timeout, OSError):
            return
        try:
            conn.settimeout(5.0)
            mtype, payload = recv_msg(conn)
        except (ConnectionError, OSError):
            conn.close()
            return
        if mtype == "hello":
            self._register(conn, payload)
        elif mtype == "fetch":
            self._serve_fallback(conn, payload)
        else:  # pragma: no cover - unknown peer
            conn.close()

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            self._accept_once()

    def _register(self, conn: socket.socket, payload: dict) -> None:
        handle = self._daemons.get(payload["daemon"])
        if handle is None or handle.registered:  # pragma: no cover
            conn.close()
            return
        conn.settimeout(None)
        handle.sock = conn
        handle.pid = payload["pid"]
        handle.block_addr = ("127.0.0.1", payload["block_port"])
        handle.registered = True
        handle.last_hb = time.monotonic()
        threading.Thread(
            target=self._reader, args=(handle,), daemon=True
        ).start()
        self._events.put(("joined", handle.id, None))

    def _serve_fallback(self, conn: socket.socket, payload: dict) -> None:
        """Authoritative block fetch: the coordinator never loses a block."""
        with self._blocks_lock:
            arrays = self._task_blocks.get(payload["key"])
        self.fallback_served += 1
        self.registry.counter("cluster.fallback_fetches").inc()
        try:
            send_msg(
                conn, ("block", {"found": arrays is not None, "arrays": arrays})
            )
        except OSError:  # pragma: no cover - fetcher died mid-reply
            pass
        finally:
            conn.close()

    def _reader(self, handle: _DaemonHandle) -> None:
        while True:
            try:
                msg = recv_msg(handle.sock)
            except (ConnectionError, OSError):
                self._events.put(("eof", handle.id, None))
                return
            if msg[0] == "hb":
                handle.last_hb = time.monotonic()
                if not handle.lost:
                    continue  # routine beat: no scheduler work needed
            self._events.put(("msg", handle.id, msg))

    # ------------------------------------------------------------------
    # the scheduler
    # ------------------------------------------------------------------
    def execute(
        self,
        plan,
        tasks: dict[int, np.ndarray],
        kernel_name: str,
        eps: float,
        *,
        ledger,
        checkpoints,
    ) -> dict[int, np.ndarray]:
        """Drive ``tasks`` across the daemons; return the unfinished ones.

        The returned dict (task id -> positions) feeds the executor's
        degradation chain: tasks whose retry budget ran out here, or
        everything still pending when the cluster collapsed.
        """
        cfg = self.config
        report = ledger.report
        costs, blocks, metas = self._build_task_blocks(plan, tasks)
        homes = self._seed_blocks(sorted(tasks), costs, blocks)

        def submit(
            task: int, handle: _DaemonHandle, speculative: bool = False
        ) -> bool:
            flight = ledger.begin(task, speculative)
            if flight is None:
                return False
            flight.daemon = handle.id
            home = self._daemons.get(homes.get(task, -1))
            # predict the serve-kill the home daemon will inject while
            # serving this task's fetch (the fault plan is deterministic,
            # and a SIGKILLed server cannot report its own injection).
            # The data plane is always exercised -- even a co-located
            # task fetches its blocks over loopback -- so the only
            # non-firing case is a dead holder (the fetch then falls
            # back to the coordinator, which never injects).
            if (
                ledger.faults is not None
                and home is not None
                and home.live
                and ledger.faults.decide("serve", task, 0) is not None
            ):
                report.fault_events.append(
                    FaultEvent("serve", task, flight.attempt, "cluster")
                )
            message = (
                "task",
                {
                    "task": task,
                    "attempt": flight.attempt,
                    "kernel": kernel_name,
                    "eps": eps,
                    "checkpoints": checkpoints,
                    "positions": flight.positions,
                    "base_positions": tasks[task],
                    "cells": metas[task]["cells"],
                    "origins": metas[task]["origins"],
                    "block_key_r": ("R", homes.get(task, -1), task),
                    "block_key_s": ("S", homes.get(task, -1), task),
                    "block_home": home.block_addr if home is not None else None,
                    "coord_addr": self._addr,
                    "fetch_timeout": cfg.fetch_timeout,
                    "parent_span_id": flight.span_id,
                },
            )
            try:
                with handle.send_lock:
                    send_msg(handle.sock, message)
            except OSError as exc:
                # the daemon died between placement and submission: the
                # attempt is lost with it (the eof event handles the rest)
                ledger.fail(flight, exc, ledger.clock())
                return False
            handle.running.add(task)
            return True

        def on_daemon_down(handle: _DaemonHandle, reason: str) -> None:
            if handle.departed or handle.dead or (
                handle.lost and reason == "heartbeat_timeout"
            ):
                return
            already_lost = handle.lost
            handle.lost = True
            if reason == "connection_lost":
                handle.dead = True
            if already_lost:
                return  # heartbeat loss already paid; this is just the EOF
            report.daemons_lost += 1
            self.registry.counter("cluster.daemons_lost").inc()
            ledger.tracer.event(
                "daemon_lost",
                cat="recovery",
                daemon=handle.id,
                reason=reason,
                backend="cluster",
            )
            self.log.warning("daemon %d lost (%s)", handle.id, reason)
            now = ledger.clock()
            for flight in [
                fl for fl in ledger.flights.values() if fl.daemon == handle.id
            ]:
                handle.running.discard(flight.task)
                ledger.fail(
                    flight,
                    DaemonLost(
                        f"daemon {handle.id} {reason} while running task "
                        f"{flight.task} (attempt {flight.attempt})"
                    ),
                    now,
                )
            rebalance()
            # replace the dead member (bounded) instead of shrinking
            budget = max(2, len(tasks)) * ledger.attempt_budget
            if self.daemons_spawned < budget:
                self._spawn()

        def enqueue(pending) -> None:
            """Queue tasks on the live members, LPT over their costs."""
            placement = self._place({t: costs[t] for t in pending})
            for t in sorted(pending, key=lambda t: (-costs[t], t)):
                if t in placement:
                    self._daemons[placement[t]].queue.append(t)
                else:
                    # nowhere to put it: onto the retry queue at zero
                    # delay, for the collapse check (or a respawn) to find
                    ledger.requeue(t)

        def rebalance() -> None:
            """Re-place every queued-but-not-running task over live members."""
            pending: list[int] = []
            for handle in self._daemons.values():
                while handle.queue:
                    pending.append(handle.queue.popleft())
            pending = [
                t for t in pending
                if t not in ledger.completed and t not in ledger.exhausted
            ]
            enqueue(pending)

        def dispatch() -> None:
            for handle in sorted(
                self._daemons.values(), key=lambda h: h.id
            ):
                if not handle.live:
                    continue
                while not handle.running and handle.queue:
                    task = handle.queue.popleft()
                    if task in ledger.completed or task in ledger.exhausted:
                        continue
                    if ledger.flying(task):
                        continue  # already running elsewhere (rebalanced)
                    if submit(task, handle):
                        break

        def handle_message(handle: _DaemonHandle, msg) -> None:
            mtype, payload = msg
            if mtype == "hb":
                if handle.lost and not handle.dead and not handle.departed:
                    # false positive: the daemon was declared dead on
                    # heartbeat silence but is still alive and talking
                    handle.lost = False
                    report.daemon_rejoins += 1
                    self.registry.counter("cluster.daemon_rejoins").inc()
                    ledger.tracer.event(
                        "daemon_rejoined",
                        cat="recovery",
                        daemon=handle.id,
                        backend="cluster",
                    )
                    self.log.warning(
                        "daemon %d rejoined after false-positive loss",
                        handle.id,
                    )
            elif mtype in ("result", "failed"):
                task = payload["task"]
                handle.running.discard(task)
                ledger.tracer.merge(payload["spans"])
                # no flight: a sibling won first, or the attempt was
                # already charged to a lost daemon
                flight = ledger.flights.get((task, payload["attempt"]))
                if flight is None:
                    return
                if mtype == "failed":
                    ledger.fail(
                        flight,
                        RemoteTaskError(
                            payload["error_type"], payload["error_message"]
                        ),
                        ledger.clock(),
                    )
                elif ledger.win(flight, payload["block"], payload["elapsed"]):
                    report.blocks_refetched += payload["refetched"]
                    if payload["refetched"]:
                        self.registry.counter("cluster.blocks_refetched").inc(
                            payload["refetched"]
                        )
            elif mtype == "goodbye":
                handle.departed = True
                ledger.tracer.event(
                    "daemon_left", cat="recovery", daemon=handle.id,
                    backend="cluster",
                )
                rebalance()

        enqueue(tasks)  # initial placement, over the registered members

        while ledger.unfinished:
            # failure detection: declare silent daemons lost
            beat_deadline = time.monotonic() - cfg.heartbeat_timeout
            for handle in list(self._daemons.values()):
                if handle.live and handle.last_hb < beat_deadline:
                    on_daemon_down(handle, "heartbeat_timeout")
            # drain events
            drained = False
            try:
                kind, did, msg = self._events.get(timeout=_TICK)
                drained = True
            except queue.Empty:
                kind = None
            while kind is not None:
                handle = self._daemons.get(did)
                if handle is not None:
                    if kind == "eof":
                        on_daemon_down(handle, "connection_lost")
                    elif kind == "joined":
                        ledger.tracer.event(
                            "daemon_joined",
                            cat="recovery",
                            daemon=handle.id,
                            backend="cluster",
                        )
                        rebalance()
                    elif kind == "msg":
                        handle_message(handle, msg)
                try:
                    kind, did, msg = self._events.get_nowait()
                except queue.Empty:
                    kind = None
            # retry-ready tasks go back to the least-loaded live member
            now = ledger.clock()
            live = [h for h in self._daemons.values() if h.live]
            if live:
                for task in ledger.due(now):
                    target = min(
                        live,
                        key=lambda h: (len(h.queue) + len(h.running), h.id),
                    )
                    target.queue.append(task)
            dispatch()
            # straggler speculation across real processes: a copy needs an
            # idle daemon other than the flight's
            idle = [h for h in live if not h.running and not h.queue]
            for flight in ledger.stragglers(now):
                target = next((h for h in idle if h.id != flight.daemon), None)
                if target is not None:
                    idle.remove(target)
                    submit(flight.task, target, speculative=True)
            # collapse: no live member and no prospect of one -- neither
            # a spawned-but-unregistered daemon nor a lost one whose
            # process still breathes (a false positive that may rejoin)
            if not drained and not live:
                reviving = any(
                    (not h.registered or (h.lost and not h.dead))
                    and not h.departed
                    and h.proc is not None
                    and h.proc.is_alive()
                    for h in self._daemons.values()
                )
                if not reviving:
                    ledger.give_up(
                        DaemonLost("cluster collapsed: no live daemons remain")
                    )
        report.fallback_fetches = self.fallback_served
        return ledger.close()

    # ------------------------------------------------------------------
    # shuffle blocks
    # ------------------------------------------------------------------
    def _build_task_blocks(self, plan, tasks):
        """Cut each task's inputs into per-side shuffle blocks.

        Returns ``(costs, blocks, metas)``: a modelled cost per task (for
        LPT placement), the block arrays (``ids``/``xs``/``ys``/local
        ``offsets`` per side), and the small per-task plan metadata the
        task message carries (cells and origins).
        """
        costs: dict[int, float] = {}
        blocks: dict[int, dict[str, dict]] = {}
        metas: dict[int, dict] = {}
        for task in sorted(tasks):
            base = tasks[task]
            # a task is a contiguous run of the plan: its blocks are slices
            (r_ids, r_xs, r_ys, r_off, s_ids, s_xs, s_ys, s_off,
             origins) = _task_columns(plan, base)
            r_counts = np.diff(r_off)
            s_counts = np.diff(s_off)
            costs[task] = float(
                (r_counts * s_counts).sum()
                + r_counts.sum() + s_counts.sum() + 1.0
            )
            blocks[task] = {
                "R": {"ids": r_ids, "xs": r_xs, "ys": r_ys, "offsets": r_off},
                "S": {"ids": s_ids, "xs": s_xs, "ys": s_ys, "offsets": s_off},
            }
            metas[task] = {
                "cells": plan.cells[base],
                "origins": origins,
            }
        return costs, blocks, metas

    def _seed_blocks(self, task_ids, costs, blocks) -> dict[int, int]:
        """Ship every task's blocks to its home daemon; wait for acks.

        Homes follow the initial LPT placement, so a healthy first
        attempt always fetches locally (map output lands where the
        reducer runs) and losing a daemon really loses its blocks.  The
        coordinator keeps the authoritative copy for fallback refetches.
        """
        homes = self._place(costs)
        per_daemon: dict[int, dict] = defaultdict(dict)
        with self._blocks_lock:
            for task in task_ids:
                home = homes.get(task, -1)
                for side in ("R", "S"):
                    key = (side, home, task)
                    self._task_blocks[key] = blocks[task][side]
                    if home >= 0:
                        per_daemon[home][key] = blocks[task][side]
        waiting: set[int] = set()
        for daemon_id, entries in per_daemon.items():
            handle = self._daemons[daemon_id]
            try:
                with handle.send_lock:
                    send_msg(
                        handle.sock,
                        ("blocks", {"entries": entries, "tag": daemon_id}),
                    )
                waiting.add(daemon_id)
            except OSError:
                pass  # the eof event will handle the loss
        deadline = time.monotonic() + max(2.0, _START_TIMEOUT / 2)
        requeue = []
        while waiting and time.monotonic() < deadline:
            try:
                kind, did, msg = self._events.get(timeout=_TICK)
            except queue.Empty:
                continue
            if kind == "msg" and msg[0] == "ack":
                waiting.discard(msg[1]["tag"])
            else:
                # anything else (a join, a loss) belongs to the scheduler
                requeue.append((kind, did, msg))
                if kind == "eof":
                    waiting.discard(did)
        for event in requeue:
            self._events.put(event)
        return homes


# ----------------------------------------------------------------------
# the executor-facing tier entry point
# ----------------------------------------------------------------------
def run_cluster_tier(
    plan, tasks, kernel_name, eps, ledger, checkpoints, cluster_config,
    num_daemons: int,
):
    """Run one batch of tasks on a fresh daemon cluster.

    Same contract as the executor's other tiers: returns the tasks that
    could not be finished here (for the degradation chain).  Raises
    :class:`ClusterUnavailable` only when the cluster never came up at
    all, in which case no task has been attempted.
    """
    service = ClusterService(
        cluster_config,
        faults=ledger.faults,
        tracer=ledger.tracer,
        registry=ledger.registry,
        log=ledger.log,
    )
    try:
        service.start(num_daemons)
        return service.execute(
            plan, tasks, kernel_name, eps,
            ledger=ledger, checkpoints=checkpoints,
        )
    finally:
        ledger.report.daemons_spawned += service.daemons_spawned
        service.close()
