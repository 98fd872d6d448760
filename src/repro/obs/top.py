"""The text dashboard of a running join server's ``stats``.

``render_stats(stats)`` is a pure function: it turns one ``stats``-op
payload into fixed-width text, which ``repro query --stats`` prints.  It
takes the payload, not a client, so ``repro.obs`` stays below
``repro.serving`` in the import DAG.

It renders the one shape the server sends: sections the server
reports as off render no row.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.engine.telemetry.report import fmt_bytes

__all__ = ["render_stats"]


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


def render_stats(stats: Dict[str, Any], *, width: int = 78) -> str:
    """Render one ``stats`` payload as a fixed-width text dashboard.

    ``stats`` is what the server's ``stats`` op returns
    (``JoinServer.snapshot()``).  Sections the server reports as off
    (SLO, history, metrics endpoint) and sections with nothing to show
    yet are omitted.
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
    lines.append(
        f"queries    total {_fmt_count(stats['queries_total'])}"
        f"  failed {_fmt_count(stats['queries_failed'])}"
        f"  errors {_fmt_count(stats['serving']['errors'])}"
    )

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
        f"  rejected {_fmt_count(admission['rejected'])}"
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
            f"runs {_fmt_count(history['appended'])}"
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

