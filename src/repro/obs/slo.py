"""SLO watchdog: rolling-window latency percentiles against thresholds.

A resident server needs more than raw latency samples -- it needs to
*know* when it is degraded.  :class:`SLOWatchdog` keeps a time-bounded
window of per-query ``(timestamp, latency, failed)`` samples, computes
exact percentiles over the window on demand, and compares them (plus the
window error rate) against its two thresholds.  The window is
:data:`WINDOW_SECONDS` long, and no verdict is rendered until it holds
:data:`MIN_SAMPLES` samples.

Alerting is edge-triggered: one structured-log ``warning`` through
``repro.engine.telemetry.get_logger`` when the window first breaches
(naming every violated objective), one ``info`` when it recovers --
never a log line per query.  The current verdict is exposed as a
``degraded`` flag plus the full :meth:`status` dict, which the join
server's ``stats`` op and the Prometheus exporter both surface.

The window is a deque of samples in arrival order beside a list of its
successful latencies kept sorted by ``bisect``, and a running failure
count.  A query costs one ``deque.append``, one ``insort`` and a
``bisect`` delete per expired sample -- each a ``memmove`` of at most the
window's length, microseconds at thousands of samples -- and a verdict
reads its percentiles off the sorted list by index.  Nothing re-sorts the
window, so the observability perfsmoke guard budgets the per-query cost
inside its 2% overhead envelope.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left, insort
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.engine.telemetry import get_logger

__all__ = ["MIN_SAMPLES", "WINDOW_SECONDS", "SLOWatchdog"]

_LOG = get_logger("repro.obs.slo")

#: The rolling window's length: samples older than this expire.
WINDOW_SECONDS = 300.0
#: No verdict until the window holds this many samples, so a single slow
#: cold query cannot flap the flag.
MIN_SAMPLES = 5


def _percentile(ordered: List[float], q: float) -> float:
    """Exact nearest-rank percentile of a pre-sorted list."""
    # 0 <= q <= 1 keeps the rank in range
    return ordered[round(q * (len(ordered) - 1))] if ordered else 0.0


class SLOWatchdog:
    """Track per-query latency/failure samples and flag SLO breaches.

    ``p95_seconds`` bounds the window's p95 latency and ``error_rate`` its
    share of failed queries; ``None`` disables that objective.  The
    server checks both values (``ServerConfig``).
    """

    def __init__(
        self,
        p95_seconds: Optional[float],
        error_rate: Optional[float],
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.p95_seconds = p95_seconds
        self.error_rate = error_rate
        self._clock = clock
        self._lock = threading.Lock()
        self._samples: Deque[Tuple[float, float, bool]] = deque()
        #: the window's successful latencies, ascending
        self._ordered: List[float] = []
        #: the window's failed samples
        self._window_failures = 0
        self._degraded = False
        self._alerts = 0
        self._recoveries = 0
        self._observed = 0
        self._failed = 0
        self._last_violations: List[str] = []

    @property
    def enabled(self) -> bool:
        return self.p95_seconds is not None or self.error_rate is not None

    # ------------------------------------------------------------------
    # hot path
    # ------------------------------------------------------------------

    def observe(self, latency_seconds: float, *, failed: bool = False) -> None:
        """Record one query; re-evaluates the window verdict."""
        now = self._clock()
        latency, failed = float(latency_seconds), bool(failed)
        with self._lock:
            self._samples.append((now, latency, failed))
            self._observed += 1
            if failed:
                self._failed += 1
                self._window_failures += 1
            else:
                insort(self._ordered, latency)
            self._expire_locked(now)
            self._evaluate_locked()

    def _expire_locked(self, now: float) -> None:
        horizon = now - WINDOW_SECONDS
        samples, ordered = self._samples, self._ordered
        while samples and samples[0][0] < horizon:
            _, latency, failed = samples.popleft()
            if failed:
                self._window_failures -= 1
            else:
                del ordered[bisect_left(ordered, latency)]

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def _window_locked(self) -> Dict[str, float]:
        latencies = self._ordered
        failures = self._window_failures
        total = len(self._samples)
        return {
            "samples": total,
            "failures": failures,
            "error_rate": failures / total if total else 0.0,
            "p50_seconds": _percentile(latencies, 0.50),
            "p95_seconds": _percentile(latencies, 0.95),
            "p99_seconds": _percentile(latencies, 0.99),
            "max_seconds": latencies[-1] if latencies else 0.0,
        }

    def _evaluate_locked(self) -> None:
        if not self.enabled:
            return
        window = self._window_locked()
        if window["samples"] < MIN_SAMPLES:
            return
        p95, error_rate = self.p95_seconds, self.error_rate
        violations = []
        if p95 is not None and window["p95_seconds"] > p95:
            violations.append(f"p95 {window['p95_seconds']:.4f}s > {p95:.4f}s")
        if error_rate is not None and window["error_rate"] > error_rate:
            violations.append(
                f"error-rate {window['error_rate']:.3f} > {error_rate:.3f}"
            )
        if violations and not self._degraded:
            self._degraded = True
            self._alerts += 1
            self._last_violations = violations
            _LOG.warning(
                "SLO breach (window %.0fs, %d samples): %s",
                WINDOW_SECONDS,
                window["samples"],
                "; ".join(violations),
            )
        elif not violations and self._degraded:
            self._degraded = False
            self._recoveries += 1
            self._last_violations = []
            _LOG.info(
                "SLO recovered (window %.0fs, %d samples, p95=%.4fs)",
                WINDOW_SECONDS,
                window["samples"],
                window["p95_seconds"],
            )
        elif violations:
            self._last_violations = violations

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        with self._lock:
            return self._degraded

    @property
    def alerts(self) -> int:
        with self._lock:
            return self._alerts

    def status(self) -> Dict[str, Any]:
        """Verdict + window percentiles for ``stats``/exporter surfaces."""
        with self._lock:
            self._expire_locked(self._clock())
            window = self._window_locked()
            return {
                "enabled": self.enabled,
                "degraded": self._degraded,
                "violations": list(self._last_violations),
                "alerts": self._alerts,
                "recoveries": self._recoveries,
                "observed": self._observed,
                "failed": self._failed,
                "window_seconds": WINDOW_SECONDS,
                "thresholds": {
                    "p95_seconds": self.p95_seconds,
                    "error_rate": self.error_rate,
                    "min_samples": MIN_SAMPLES,
                },
                "window": window,
            }
