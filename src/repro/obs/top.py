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

Every section degrades gracefully: a payload from an older server (or
one with observability features off) simply renders fewer rows.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, TextIO

__all__ = ["TopDashboard", "render_stats"]

#: ANSI clear-screen + cursor-home, used between dashboard frames
CLEAR = "\x1b[2J\x1b[H"


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    value = float(value)
    if value >= 120:
        return f"{value / 60:.1f}m"
    if value >= 1:
        return f"{value:.2f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.1f}ms"
    return f"{value * 1e6:.0f}us"


def _fmt_bytes(value: Optional[float]) -> str:
    if value is None:
        return "-"
    value = float(value)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.0f}{unit}" if unit == "B" else f"{value:.1f}{unit}"
        value /= 1024
    return f"{value:.1f}GiB"


def _fmt_count(value: Any) -> str:
    try:
        return str(int(value))
    except (TypeError, ValueError):
        return "-"


def _hit_rate(stats: Optional[Dict[str, Any]]) -> str:
    if not isinstance(stats, dict):
        return "-"
    hits = stats.get("hits", 0) or 0
    misses = stats.get("misses", 0) or 0
    total = hits + misses
    if not total:
        return "0/0"
    return f"{100.0 * hits / total:.0f}% ({hits}/{total})"


def _delta(
    current: Dict[str, Any], prev: Optional[Dict[str, Any]], *path: str
) -> Optional[float]:
    def dig(payload):
        node: Any = payload
        for key in path:
            if not isinstance(node, dict):
                return None
            node = node.get(key)
        return node

    now = dig(current)
    before = dig(prev) if prev else None
    if now is None or before is None:
        return None
    try:
        return float(now) - float(before)
    except (TypeError, ValueError):
        return None


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

    ``prev`` (the previous poll of the same server) adds per-interval
    deltas and a queries/sec rate; sections whose data is absent from
    the payload are omitted.
    """
    lines: List[str] = []
    serving = stats.get("serving") or {}
    uptime = stats.get("uptime_seconds")
    queries = stats.get("queries_total", serving.get("queries"))
    failed = stats.get("queries_failed", serving.get("queries_failed"))

    # -- header --------------------------------------------------------
    head = (
        f"repro server pid {stats.get('pid', '?')}"
        f"  backend={stats.get('backend', '?')}"
        f"  up {_fmt_seconds(uptime)}"
    )
    state = "DEGRADED" if stats.get("degraded") else "healthy"
    lines.append(f"{head:<{max(0, width - len(state))}}{state}")
    lines.append("-" * width)

    # -- queries -------------------------------------------------------
    dq = _delta(stats, prev, "queries_total")
    rate = ""
    du = _delta(stats, prev, "uptime_seconds")
    if dq is not None and du and du > 0:
        rate = f"  {dq / du:.2f} q/s"
    row = f"queries    total {_with_delta(_fmt_count(queries), dq)}"
    row += f"  failed {_with_delta(_fmt_count(failed), _delta(stats, prev, 'queries_failed'))}"
    if serving.get("errors") is not None:
        row += f"  errors {_fmt_count(serving.get('errors'))}"
    row += rate
    lines.append(row)

    # -- latency -------------------------------------------------------
    latency = stats.get("latency")
    if isinstance(latency, dict) and latency.get("count"):
        lines.append(
            "latency    "
            f"p50 {_fmt_seconds(latency.get('p50'))}"
            f"  p95 {_fmt_seconds(latency.get('p95'))}"
            f"  p99 {_fmt_seconds(latency.get('p99'))}"
            f"  mean {_fmt_seconds(latency.get('mean'))}"
            f"  max {_fmt_seconds(latency.get('max'))}"
            f"  n={_fmt_count(latency.get('count'))}"
        )

    # -- caches --------------------------------------------------------
    artifact = stats.get("artifact_cache")
    result = stats.get("result_cache")
    plan = stats.get("plan_cache")
    if artifact or result or plan:
        row = "caches     "
        if isinstance(artifact, dict):
            row += (
                f"artifact {_hit_rate(artifact)}"
                f" {_fmt_bytes(artifact.get('bytes'))}  "
            )
        if isinstance(result, dict):
            row += f"result {_hit_rate(result)}  "
        if isinstance(plan, dict):
            row += f"plan {_hit_rate(plan)}"
        lines.append(row.rstrip())

    # -- admission -----------------------------------------------------
    admission = stats.get("admission")
    if isinstance(admission, dict):
        lines.append(
            "admission  "
            f"inflight {_fmt_count(admission.get('running'))}"
            f"/{_fmt_count(admission.get('max_inflight'))}"
            f"  queued {_fmt_count(admission.get('waiting'))}"
            f"/{_fmt_count(admission.get('max_queue'))}"
            f"  rejected {_with_delta(_fmt_count(admission.get('rejected')), _delta(stats, prev, 'admission', 'rejected'))}"
            f"  coalesced {_fmt_count(admission.get('coalesced'))}"
        )

    # -- shared pools --------------------------------------------------
    pools = stats.get("shared_pools")
    if isinstance(pools, dict) and pools.get("enabled"):
        lines.append(
            "pools      "
            f"hits {_fmt_count(pools.get('hits'))}"
            f"/{_fmt_count(pools.get('acquires'))}"
            f"  resident {_fmt_count(len(pools.get('resident', [])) if isinstance(pools.get('resident'), (list, tuple)) else pools.get('resident'))}"
        )

    # -- planner clock error -------------------------------------------
    planner_errors = stats.get("planner_errors")
    if isinstance(planner_errors, dict):
        parts = []
        for phase, snap in planner_errors.items():
            if isinstance(snap, dict) and snap.get("count"):
                parts.append(
                    f"{phase} {100.0 * float(snap.get('mean', 0.0)):.1f}%"
                    f"/p95 {100.0 * float(snap.get('p95', 0.0)):.1f}%"
                )
        if parts:
            lines.append("plan err   " + "  ".join(parts))

    # -- cluster daemon health -----------------------------------------
    cluster = stats.get("cluster")
    if isinstance(cluster, dict) and any(cluster.values()):
        spawned = cluster.get("daemons_spawned", 0)
        lost = cluster.get("daemons_lost", 0)
        lines.append(
            "cluster    "
            f"daemons {_fmt_count(spawned)} spawned"
            f"  {_with_delta(_fmt_count(lost), _delta(stats, prev, 'cluster', 'daemons_lost'))} lost"
            f"  {_fmt_count(cluster.get('daemon_rejoins'))} rejoined"
            f"  blocks refetched {_fmt_count(cluster.get('blocks_refetched'))}"
        )

    # -- SLO -----------------------------------------------------------
    slo = stats.get("slo")
    if isinstance(slo, dict) and slo.get("enabled"):
        window = slo.get("window") or {}
        verdict = "BREACH" if slo.get("degraded") else "ok"
        row = (
            f"slo        {verdict}"
            f"  window p95 {_fmt_seconds(window.get('p95_seconds'))}"
            f"  err {100.0 * float(window.get('error_rate', 0.0)):.1f}%"
            f"  alerts {_fmt_count(slo.get('alerts'))}"
        )
        violations = slo.get("violations") or []
        lines.append(row)
        for violation in violations:
            lines.append(f"           ! {violation}")

    # -- history -------------------------------------------------------
    history = stats.get("history")
    if isinstance(history, dict):
        lines.append(
            "history    "
            f"runs {_with_delta(_fmt_count(history.get('appended')), _delta(stats, prev, 'history', 'appended'))}"
            f"  {_fmt_bytes(history.get('active_bytes'))}"
            f"  rotations {_fmt_count(history.get('rotations'))}"
            f"  -> {history.get('path', '?')}"
        )

    # -- datasets / endpoint -------------------------------------------
    datasets = stats.get("datasets")
    if isinstance(datasets, dict) and datasets:
        names = ", ".join(sorted(str(k) for k in datasets))
        lines.append(f"datasets   {names}")
    elif isinstance(datasets, (list, tuple)) and datasets:
        names = ", ".join(
            sorted(
                str(d.get("name", "?")) if isinstance(d, dict) else str(d)
                for d in datasets
            )
        )
        lines.append(f"datasets   {names}")
    endpoint = stats.get("metrics_endpoint")
    if endpoint:
        lines.append(f"metrics    {endpoint}")

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
