"""SLO watchdog: rolling-window latency percentiles against thresholds.

A resident server needs more than raw latency samples -- it needs to
*know* when it is degraded.  :class:`SLOWatchdog` keeps a time-bounded
window of per-query ``(timestamp, latency, failed)`` samples, computes
exact percentiles over the window on demand, and compares them (plus the
window error rate) against :class:`SLOConfig` thresholds.

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

import math
import threading
import time
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.engine.telemetry import get_logger

__all__ = ["SLOConfig", "SLOWatchdog"]

_LOG = get_logger("repro.obs.slo")


@dataclass(frozen=True)
class SLOConfig:
    """Service-level objectives for the rolling window.

    A threshold of ``None`` disables that objective.  ``min_samples``
    stops a single slow cold query from flapping the flag: no verdict is
    rendered until the window holds that many samples.
    """

    window_seconds: float = 300.0
    p95_seconds: Optional[float] = None
    error_rate: Optional[float] = None
    min_samples: int = 5

    def __post_init__(self) -> None:
        # each named as ServerConfig names it (slo_<field>); the checks
        # are written so that NaN fails them
        for label, value in (
            ("window_seconds", self.window_seconds),
            ("p95_seconds", self.p95_seconds),
        ):
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"slo_{label} must be finite and > 0, got {value}")
        if self.error_rate is not None and not 0 < self.error_rate <= 1:
            raise ValueError(
                f"slo_error_rate must be in (0, 1] when set, got {self.error_rate}"
            )
        if not (float(self.min_samples).is_integer() and self.min_samples >= 1):
            raise ValueError(
                f"slo_min_samples must be a whole number >= 1, got {self.min_samples}"
            )

    @property
    def enabled(self) -> bool:
        return self.p95_seconds is not None or self.error_rate is not None


def _percentile(ordered: List[float], q: float) -> float:
    """Exact nearest-rank percentile of a pre-sorted list."""
    # 0 <= q <= 1 keeps the rank in range
    return ordered[round(q * (len(ordered) - 1))] if ordered else 0.0


class SLOWatchdog:
    """Track per-query latency/failure samples and flag SLO breaches."""

    def __init__(
        self,
        config: SLOConfig,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config
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
        horizon = now - self.config.window_seconds
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
        cfg = self.config
        if not cfg.enabled:
            return
        window = self._window_locked()
        if window["samples"] < cfg.min_samples:
            return
        violations = []
        if cfg.p95_seconds is not None and window["p95_seconds"] > cfg.p95_seconds:
            violations.append(
                f"p95 {window['p95_seconds']:.4f}s > {cfg.p95_seconds:.4f}s"
            )
        if cfg.error_rate is not None and window["error_rate"] > cfg.error_rate:
            violations.append(
                f"error-rate {window['error_rate']:.3f} > {cfg.error_rate:.3f}"
            )
        if violations and not self._degraded:
            self._degraded = True
            self._alerts += 1
            self._last_violations = violations
            _LOG.warning(
                "SLO breach (window %.0fs, %d samples): %s",
                cfg.window_seconds,
                window["samples"],
                "; ".join(violations),
            )
        elif not violations and self._degraded:
            self._degraded = False
            self._recoveries += 1
            self._last_violations = []
            _LOG.info(
                "SLO recovered (window %.0fs, %d samples, p95=%.4fs)",
                cfg.window_seconds,
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
                "enabled": self.config.enabled,
                "degraded": self._degraded,
                "violations": list(self._last_violations),
                "alerts": self._alerts,
                "recoveries": self._recoveries,
                "observed": self._observed,
                "failed": self._failed,
                "window_seconds": self.config.window_seconds,
                "thresholds": {
                    "p95_seconds": self.config.p95_seconds,
                    "error_rate": self.config.error_rate,
                    "min_samples": self.config.min_samples,
                },
                "window": window,
            }
