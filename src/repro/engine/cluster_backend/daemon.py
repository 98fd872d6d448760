"""The cluster worker daemon: one long-lived OS process per member.

A daemon owns three threads:

* the **control loop** (main thread) -- receives shuffle blocks and task
  assignments from the coordinator over one persistent socket, runs one
  task at a time through the same :func:`~repro.engine.executor._run_attempt`
  the other backends use, and ships results (plus any recorded spans)
  back by value;
* the **block server** -- a listening socket serving ``(side, src, dst)``
  shuffle blocks to remote fetches from sibling daemons, the promoted
  :class:`~repro.engine.blockstore.BlockStore` contract made real;
* the **heartbeat loop** -- periodic liveness beats on the control
  socket; the coordinator declares the daemon lost when beats stop for
  longer than the configured detection timeout.

Fault injection runs *inside* the daemon, exactly like the ``processes``
backend: a ``kill`` clause SIGKILLs the live process mid-task (after the
checkpointed midpoint when checkpointing is on), a ``serve`` clause
SIGKILLs the daemon while it is serving a block fetch, and a
``heartbeat`` clause delays beats to force false-positive detection.
See ``docs/CLUSTER.md`` for the full failure model.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time

import numpy as np

from repro.engine.cluster_backend.protocol import (
    BlockUnavailable,
    ConnectionClosed,
    recv_msg,
    request,
    send_msg,
)
from repro.engine.executor import ExecutionPlan, _run_attempt
from repro.engine.faults import FaultPlan
from repro.engine.telemetry import Tracer


#: Holder retries before a fetch falls back to the coordinator's copy,
#: and the linear backoff base between them (seconds).
_FETCH_RETRIES = 2
_FETCH_BACKOFF = 0.02


def _sigkill_self() -> None:
    """Die the way a lost executor dies: no cleanup, no exit handlers."""
    os.kill(os.getpid(), signal.SIGKILL)


class _GlobalPositionCheckpoints:
    """Checkpoint adapter: daemon-local plan positions -> global positions.

    A daemon rebuilds its task as a small local plan (positions
    ``0..k-1``), but checkpoints must be keyed by the *global* plan
    position so the coordinator's salvage pass finds them.
    """

    def __init__(self, inner, base_positions: np.ndarray):
        self._inner = inner
        self._base = base_positions

    def save_cell(self, pos, rid, sid, candidates, seconds):
        self._inner.save_cell(int(self._base[pos]), rid, sid, candidates, seconds)

    def load_cell(self, pos):
        return self._inner.load_cell(int(self._base[pos]))


# ----------------------------------------------------------------------
# block server (the data plane)
# ----------------------------------------------------------------------
def _serve_one(conn: socket.socket, shelf, lock, faults, stop) -> None:
    try:
        conn.settimeout(5.0)
        mtype, payload = recv_msg(conn)
        if mtype != "fetch":
            return
        key = payload["key"]
        if faults is not None:
            # key = (side, src daemon, destination task): a ``serve``
            # clause kills the *holder* mid-fetch, keyed by the task
            # whose blocks were being served
            if faults.decide("serve", int(key[2]), 0) is not None:
                _sigkill_self()
        with lock:
            arrays = shelf.get(key)
        send_msg(conn, ("block", {"found": arrays is not None, "arrays": arrays}))
    except (ConnectionError, OSError):
        pass
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - defensive
            pass


def _serve_blocks(server: socket.socket, shelf, lock, faults, stop) -> None:
    server.settimeout(0.2)
    while not stop.is_set():
        try:
            conn, _addr = server.accept()
        except socket.timeout:
            continue
        except OSError:
            return
        threading.Thread(
            target=_serve_one, args=(conn, shelf, lock, faults, stop),
            daemon=True,
        ).start()


# ----------------------------------------------------------------------
# heartbeats (the liveness plane)
# ----------------------------------------------------------------------
def _heartbeat_loop(sock, send_lock, daemon_id, interval, faults, stop):
    beat = 0
    while not stop.is_set():
        if faults is not None:
            clause = faults.decide("heartbeat", daemon_id, beat)
            if clause is not None:
                # a network partition / GC pause in miniature: the daemon
                # stays alive and keeps working, but its beats go quiet
                # long enough for the coordinator to declare it dead
                stop.wait(clause.delay)
        try:
            with send_lock:
                send_msg(sock, ("hb", {"daemon": daemon_id, "beat": beat}))
        except OSError:
            return
        beat += 1
        stop.wait(interval)


# ----------------------------------------------------------------------
# task execution
# ----------------------------------------------------------------------
def _fetch_block(key, home, coord, timeout, tracer):
    """Pull one shuffle block: holder first, coordinator as last resort.

    Retries the holder ``_FETCH_RETRIES`` times with linear backoff; a holder
    that is dead (connection refused / timed out) or that no longer has
    the block falls back to the coordinator's authoritative copy.  The
    fallback is a *refetch* in the recovery-accounting sense: the block's
    primary location was lost.  Returns ``(arrays, refetched)``.
    """
    last: Exception | None = None
    if home is not None:
        for i in range(_FETCH_RETRIES + 1):
            try:
                mtype, payload = request(
                    home[0], home[1], ("fetch", {"key": key}), timeout
                )
                if mtype == "block" and payload["found"]:
                    return payload["arrays"], 0
                last = BlockUnavailable(f"holder has no block {key!r}")
            except (ConnectionError, OSError, socket.timeout) as exc:
                last = exc
            if i < _FETCH_RETRIES:
                time.sleep(_FETCH_BACKOFF * (i + 1))
    if tracer.enabled:
        tracer.event(
            "block_refetch",
            cat="recovery",
            key=list(key),
            error_type=type(last).__name__ if last is not None else None,
        )
    try:
        mtype, payload = request(
            coord[0], coord[1], ("fetch", {"key": key}), timeout
        )
    except (ConnectionError, OSError, socket.timeout) as exc:
        raise BlockUnavailable(
            f"block {key!r} unreachable on holder and coordinator"
        ) from exc
    if mtype != "block" or not payload["found"]:
        raise BlockUnavailable(f"no authoritative copy of block {key!r}")
    return payload["arrays"], 1


def _run_task(payload, daemon_id, faults, trace_enabled, run_id):
    """Execute one task assignment; return the reply message."""
    task = payload["task"]
    attempt = payload["attempt"]
    tracer = Tracer(enabled=trace_enabled, run_id=run_id)
    reply = {"daemon": daemon_id, "task": task, "attempt": attempt}
    try:
        refetched = 0
        sides = {}
        for side in ("R", "S"):
            arrays, extra = _fetch_block(
                payload[f"block_key_{side.lower()}"],
                payload["block_home"],
                payload["coord_addr"],
                payload["fetch_timeout"],
                tracer,
            )
            sides[side] = arrays
            refetched += extra
        # the task as a small plan of its own: positions 0..k-1
        base = payload["base_positions"]
        plan = ExecutionPlan(
            payload["cells"],
            np.zeros(len(base), dtype=np.int64),
            sides["R"]["ids"], sides["R"]["xs"], sides["R"]["ys"],
            sides["R"]["offsets"],
            sides["S"]["ids"], sides["S"]["xs"], sides["S"]["ys"],
            sides["S"]["offsets"],
            origins=payload["origins"],
        )
        checkpoints = payload["checkpoints"]
        if checkpoints is not None:
            checkpoints = _GlobalPositionCheckpoints(checkpoints, base)
        block, elapsed, _ = _run_attempt(
            plan, np.searchsorted(base, payload["positions"]),
            payload["kernel"], payload["eps"], task, attempt, faults,
            checkpoints, tracer, payload["parent_span_id"],
            on_kill=_sigkill_self, daemon=daemon_id,
        )
        block.positions = base[block.positions]
    except Exception as exc:
        reply.update(
            error_type=type(exc).__name__, error_message=str(exc),
            spans=tracer.export_payload(),
        )
        return "failed", reply
    reply.update(
        block=block, elapsed=elapsed, refetched=refetched,
        spans=tracer.export_payload(),
    )
    return "result", reply


# ----------------------------------------------------------------------
# daemon entry point
# ----------------------------------------------------------------------
def daemon_main(
    daemon_id: int,
    coord_host: str,
    coord_port: int,
    heartbeat_interval: float,
    faults: FaultPlan | None,
    trace_enabled: bool,
    run_id: str | None,
) -> None:
    """Run one cluster daemon until told to stop (or killed).

    Spawned as a child process by the coordinator; connects back over
    TCP, registers with its block-server port, then serves the control
    loop.  Exits with ``os._exit`` so a forked child never runs the
    parent's atexit/cleanup machinery.
    """
    try:
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.bind(("127.0.0.1", 0))
        server.listen(16)
        block_port = server.getsockname()[1]
        shelf: dict = {}
        shelf_lock = threading.Lock()
        stop = threading.Event()
        threading.Thread(
            target=_serve_blocks,
            args=(server, shelf, shelf_lock, faults, stop),
            daemon=True,
        ).start()

        sock = socket.create_connection((coord_host, coord_port), timeout=10)
        sock.settimeout(None)
        send_lock = threading.Lock()
        with send_lock:
            send_msg(
                sock,
                (
                    "hello",
                    {
                        "daemon": daemon_id,
                        "pid": os.getpid(),
                        "block_port": block_port,
                    },
                ),
            )
        threading.Thread(
            target=_heartbeat_loop,
            args=(sock, send_lock, daemon_id, heartbeat_interval, faults, stop),
            daemon=True,
        ).start()

        while True:
            try:
                mtype, payload = recv_msg(sock)
            except (ConnectionError, OSError):
                break
            if mtype == "blocks":
                with shelf_lock:
                    shelf.update(payload["entries"])
                with send_lock:
                    send_msg(
                        sock,
                        ("ack", {"daemon": daemon_id, "tag": payload["tag"]}),
                    )
            elif mtype == "task":
                reply = _run_task(
                    payload, daemon_id, faults, trace_enabled, run_id
                )
                with send_lock:
                    send_msg(sock, reply)
            elif mtype == "stop":
                stop.set()
                with send_lock:
                    send_msg(sock, ("goodbye", {"daemon": daemon_id}))
                break
    except BaseException:  # pragma: no cover - a dying daemon stays quiet
        pass
    finally:
        os._exit(0)
