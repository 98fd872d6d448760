"""``repro top``: a live terminal dashboard over a running join server.

The renderer is a pure function -- ``render_stats(stats, prev=...)``
turns one ``stats``-op payload (plus the previous poll, for deltas and
rates) into fixed-width text -- and :class:`TopDashboard` is the small
polling loop around it.  Keeping the renderer pure means the CLI's
``repro query ... stats`` one-shot, the ``repro top`` loop, and the
tests all share one formatting path, and the dashboard never imports the
serving layer: it is handed an opaque ``poll()`` callable (the CLI wires
in ``JoinClient.stats``), so ``repro.obs`` stays below ``repro.serving``
in the import DAG.

It renders the one shape the server sends: sections the server
reports as off render no row.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, TextIO

from repro.engine.telemetry.report import fmt_bytes

__all__ = ["TopDashboard", "render_stats"]

#: ANSI clear-screen + cursor-home, used between dashboard frames
CLEAR = "\x1b[2J\x1b[H"


def _fmt_seconds(value: float) -> str:
    value = float(value)
    if value >= 120:
        return f"{value / 60:.1f}m"
    if value >= 1:
        return f"{value:.2f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.1f}ms"
    return f"{value * 1e6:.0f}us"


def _fmt_count(value: Any) -> str:
    return str(int(value))


def _hit_rate(stats: Dict[str, Any]) -> str:
    hits, total = stats["hits"], stats["hits"] + stats["misses"]
    if not total:
        return "0/0"
    return f"{100.0 * hits / total:.0f}% ({hits}/{total})"


def _delta(
    current: Dict[str, Any], prev: Optional[Dict[str, Any]], *path: str
) -> Optional[float]:
    if prev is None:
        return None
    for key in path:
        current, prev = current[key], prev[key]
    return float(current) - float(prev)


def _with_delta(value: str, delta: Optional[float]) -> str:
    if delta is None:
        return value
    return f"{value} (+{delta:g})" if delta >= 0 else f"{value} ({delta:g})"


def render_stats(
    stats: Dict[str, Any],
    prev: Optional[Dict[str, Any]] = None,
    *,
    width: int = 78,
) -> str:
    """Render one ``stats`` payload as a fixed-width text dashboard.

    ``stats`` is what the server's ``stats`` op returns
    (``JoinServer.snapshot()``).  ``prev`` (the previous poll of the same
    server) adds per-interval deltas and a queries/sec rate; sections
    the server reports as off (SLO, history, metrics endpoint) and
    sections with nothing to show yet are omitted.
    """
    lines: List[str] = []

    # -- header --------------------------------------------------------
    head = (
        f"repro server pid {stats['pid']}"
        f"  backend={stats['backend']}"
        f"  up {_fmt_seconds(stats['uptime_seconds'])}"
    )
    state = "DEGRADED" if stats["degraded"] else "healthy"
    lines.append(f"{head:<{max(0, width - len(state))}}{state}")
    lines.append("-" * width)

    # -- queries -------------------------------------------------------
    dq = _delta(stats, prev, "queries_total")
    rate = ""
    du = _delta(stats, prev, "uptime_seconds")
    if dq is not None and du and du > 0:
        rate = f"  {dq / du:.2f} q/s"
    row = f"queries    total {_with_delta(_fmt_count(stats['queries_total']), dq)}"
    row += f"  failed {_with_delta(_fmt_count(stats['queries_failed']), _delta(stats, prev, 'queries_failed'))}"
    row += f"  errors {_fmt_count(stats['serving']['errors'])}"
    row += rate
    lines.append(row)

    # -- latency -------------------------------------------------------
    latency = stats["latency"]
    if latency["count"]:
        lines.append(
            "latency    "
            f"p50 {_fmt_seconds(latency['p50'])}"
            f"  p95 {_fmt_seconds(latency['p95'])}"
            f"  p99 {_fmt_seconds(latency['p99'])}"
            f"  mean {_fmt_seconds(latency['mean'])}"
            f"  max {_fmt_seconds(latency['max'])}"
            f"  n={_fmt_count(latency['count'])}"
        )

    # -- caches --------------------------------------------------------
    artifact = stats["artifact_cache"]
    lines.append(
        "caches     "
        f"artifact {_hit_rate(artifact)} {fmt_bytes(artifact['bytes'])}"
        f"  result {_hit_rate(stats['result_cache'])}"
        f"  plan {_hit_rate(stats['plan_cache'])}"
    )

    # -- admission -----------------------------------------------------
    admission = stats["admission"]
    lines.append(
        "admission  "
        f"inflight {_fmt_count(admission['running'])}"
        f"/{_fmt_count(admission['max_inflight'])}"
        f"  queued {_fmt_count(admission['waiting'])}"
        f"/{_fmt_count(admission['max_queue'])}"
        f"  rejected {_with_delta(_fmt_count(admission['rejected']), _delta(stats, prev, 'admission', 'rejected'))}"
        f"  coalesced {_fmt_count(admission['coalesced'])}"
    )

    # -- shared pools --------------------------------------------------
    pools = stats["shared_pools"]
    if pools["enabled"]:
        lines.append(
            "pools      "
            f"hits {_fmt_count(pools['hits'])}"
            f"/{_fmt_count(pools['acquires'])}"
            f"  resident {len(pools['resident'])}"
        )

    # -- planner clock error -------------------------------------------
    parts = [
        f"{phase} {100.0 * snap['mean']:.1f}%/p95 {100.0 * snap['p95']:.1f}%"
        for phase, snap in stats["planner_errors"].items()
        if snap["count"]
    ]
    if parts:
        lines.append("plan err   " + "  ".join(parts))

    # -- SLO -----------------------------------------------------------
    slo = stats["slo"]
    if slo["enabled"]:
        window = slo["window"]
        verdict = "BREACH" if slo["degraded"] else "ok"
        lines.append(
            f"slo        {verdict}"
            f"  window p95 {_fmt_seconds(window['p95_seconds'])}"
            f"  err {100.0 * float(window['error_rate']):.1f}%"
            f"  alerts {_fmt_count(slo['alerts'])}"
        )
        for violation in slo["violations"]:
            lines.append(f"           ! {violation}")

    # -- history -------------------------------------------------------
    history = stats["history"]
    if history is not None:
        lines.append(
            "history    "
            f"runs {_with_delta(_fmt_count(history['appended']), _delta(stats, prev, 'history', 'appended'))}"
            f"  {fmt_bytes(history['active_bytes'])}"
            f"  rotations {_fmt_count(history['rotations'])}"
            f"  -> {history['path']}"
        )

    # -- datasets / endpoint -------------------------------------------
    if stats["datasets"]:
        names = ", ".join(sorted(d["name"] for d in stats["datasets"]))
        lines.append(f"datasets   {names}")
    if stats["metrics_endpoint"] is not None:
        lines.append(f"metrics    {stats['metrics_endpoint']}")

    return "\n".join(lines) + "\n"


class TopDashboard:
    """Poll ``poll()`` every ``interval`` seconds and render frames.

    ``iterations=None`` loops until interrupted (Ctrl-C exits cleanly);
    tests pass a small count and a ``StringIO`` sink.  ``clear=True``
    prefixes each frame with an ANSI clear-screen so a terminal shows a
    steady dashboard rather than a scroll.
    """

    def __init__(
        self,
        poll: Callable[[], Dict[str, Any]],
        *,
        interval: float = 2.0,
        iterations: Optional[int] = None,
        out: Optional[TextIO] = None,
        clear: bool = True,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if interval <= 0:
            raise ValueError("top interval must be > 0")
        self.poll = poll
        self.interval = float(interval)
        self.iterations = iterations
        self.out = out
        self.clear = clear
        self._sleep = sleep
        self.frames = 0

    def run(self) -> int:
        """Render frames until the iteration budget or Ctrl-C; returns frames."""
        import sys

        out = self.out if self.out is not None else sys.stdout
        prev: Optional[Dict[str, Any]] = None
        try:
            while self.iterations is None or self.frames < self.iterations:
                if self.frames:
                    self._sleep(self.interval)
                stats = self.poll()
                frame = render_stats(stats, prev)
                if self.clear:
                    out.write(CLEAR)
                out.write(frame)
                out.flush()
                prev = stats
                self.frames += 1
        except KeyboardInterrupt:
            pass
        return self.frames
