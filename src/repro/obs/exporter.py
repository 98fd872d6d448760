"""Prometheus text-format rendering and the localhost scrape endpoint.

The join server reads its state once into one plain dict
(``JoinServer.snapshot()``, the payload of its ``stats`` op); this
module renders such a dict in the Prometheus text exposition format
(version 0.0.4) so standard scrapers can watch a resident server.

Two halves:

* :func:`render_metrics` -- ``render_metrics(snapshot, families)`` walks
  a declarative family table, one :class:`Family` row
  ``(name, kind, help, path)`` per metric family.
  :func:`check_families` runs the naming rules (``repro_`` prefix,
  snake_case, unit suffixes) over a table once, so a misnamed family
  fails at import rather than silently shipping.
* :class:`PrometheusEndpoint` -- a minimal asyncio HTTP/1.0 server bound
  to localhost that answers ``GET /metrics`` with the rendered text, or
  ``500`` naming the exception when rendering raises.  It mounts beside
  the serving line protocol on its own port (``0`` picks an ephemeral
  one) and is the first rung of the ROADMAP's HTTP front-end.

A row's ``path`` is a dotted key path into the snapshot:

* counter/gauge: it leads to a number (a bool counts 0/1, a list its
  items); histogram: to a ``Histogram.snapshot()`` dict (its ``buckets``
  map bound -> count, plus ``count`` and ``sum``);
* one segment may hold a ``{label}`` placeholder (``"{cache}_cache.hits"``,
  ``"planner_errors.{phase}"``): the family gets one sample per matching
  key of the dict at that level, the placeholder's text as label value;
* a path that resolves to ``None`` -- a missing key, or a feature the
  server reports as off -- contributes no sample, and a family with no
  sample is omitted, unless its row names a ``default`` to report
  instead;
* an *info* family's path is a mapping ``{label: path}``: one sample of
  constant value 1 whose labels are read from the snapshot.
"""

from __future__ import annotations

import asyncio
import math
import re
from typing import (
    Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple,
)

from repro.engine.telemetry import get_logger

__all__ = [
    "CONTENT_TYPE",
    "Family",
    "PrometheusEndpoint",
    "check_families",
    "render_metrics",
    "validate_metric_name",
]

_LOG = get_logger("repro.obs.exporter")

#: Prometheus text exposition content type
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

KINDS = ("counter", "gauge", "histogram")

_NAME_RE = re.compile(r"^repro(_[a-z][a-z0-9]*)+$")


def validate_metric_name(name: str, kind: str) -> None:
    """Raise ``ValueError`` unless ``name`` obeys the exporter contract.

    Rules (mirrored by the pytest metrics-name lint):

    * snake_case with a ``repro_`` prefix: lowercase ASCII segments
      separated by single underscores;
    * counters end ``_total``;
    * histograms end in a unit suffix (``_seconds``, ``_bytes`` or the
      dimensionless ``_ratio``);
    * gauges never end ``_total`` (that suffix is reserved for
      counters), and if they carry a unit word it must be the suffix
      (``..._seconds``/``..._bytes``, never ``seconds_...``).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown metric kind {kind!r}; expected one of {KINDS}")
    if not _NAME_RE.match(name):
        raise ValueError(
            f"metric name {name!r} must be snake_case with a 'repro_' prefix"
        )
    if kind == "counter":
        if not name.endswith("_total"):
            raise ValueError(f"counter {name!r} must end with '_total'")
    else:
        if name.endswith("_total"):
            raise ValueError(
                f"{kind} {name!r} must not end with '_total' (counters only)"
            )
    if kind == "histogram":
        if not name.endswith(("_seconds", "_bytes", "_ratio")):
            raise ValueError(
                f"histogram {name!r} must end with '_seconds', '_bytes' or '_ratio'"
            )
    # unit words, when present, must be the terminal suffix
    base = name
    for suffix in ("_total",):
        if base.endswith(suffix):
            base = base[: -len(suffix)]
    for unit in ("seconds", "bytes"):
        if unit in base.split("_") and not base.endswith("_" + unit):
            raise ValueError(
                f"metric {name!r} mentions unit '{unit}' but does not end with"
                f" '_{unit}'"
            )


class Family(NamedTuple):
    """One exported metric family: a row of a family table."""

    name: str
    kind: str
    help: str
    #: dotted key path into the snapshot, or ``{label: path}`` for an
    #: info family (see the module docstring)
    path: Any
    #: the value reported when ``path`` names no sample (``None``: omit)
    default: Any = None


def check_families(families: Iterable[Family]) -> Tuple[Family, ...]:
    """The table as a tuple, once every row passes the naming lint.

    Raises ``ValueError`` on a misnamed family, an empty help text or a
    name used twice.
    """
    table = tuple(families)
    seen = set()
    for family in table:
        validate_metric_name(family.name, family.kind)
        if not family.help.strip():
            raise ValueError(
                f"metric {family.name!r} must have non-empty help text"
            )
        if family.name in seen:
            raise ValueError(f"metric {family.name!r} declared twice")
        seen.add(family.name)
    return table


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape_label(str(val))}"' for key, val in sorted(labels.items())
    )
    return "{" + body + "}"


_PLACEHOLDER = re.compile(r"\{(\w+)\}")


def _resolve(node: Any, path: str) -> Any:
    for key in path.split("."):
        node = node.get(key) if isinstance(node, dict) else None
    return node


def _series(
    snapshot: Dict[str, Any], path: Any
) -> List[Tuple[Dict[str, str], Any]]:
    """``(labels, value)`` for every sample ``path`` names in ``snapshot``."""
    if isinstance(path, dict):  # info family
        labels = {label: str(_resolve(snapshot, p)) for label, p in path.items()}
        return [(labels, 1)]
    series: List[Tuple[Dict[str, str], Any]] = [({}, snapshot)]
    for segment in path.split("."):
        placeholder = _PLACEHOLDER.search(segment)
        pattern = placeholder and re.compile(
            _PLACEHOLDER.sub("(.+)", segment), re.DOTALL
        )
        step = []
        for labels, node in series:
            if not isinstance(node, dict):
                continue
            if pattern is None:
                step.append((labels, node.get(segment)))
                continue
            for key, child in node.items():
                match = pattern.fullmatch(key)
                if match:
                    step.append(({**labels, placeholder[1]: match[1]}, child))
        series = step
    return [
        (labels, len(value) if isinstance(value, list) else value)
        for labels, value in series
        if value is not None
    ]


def _samples(family: Family, labels: Dict[str, str], value: Any) -> Iterable[str]:
    if family.kind != "histogram":
        yield f"{family.name}{_format_labels(labels)} {_format_value(value)}"
        return
    # cumulative buckets + _sum/_count
    cumulative = 0
    for bound, bucket_count in value["buckets"].items():
        cumulative += int(bucket_count)
        bucket_labels = {**labels, "le": _format_value(float(bound))}
        yield f"{family.name}_bucket{_format_labels(bucket_labels)} {cumulative}"
    count = int(value["count"])
    yield f"{family.name}_bucket{_format_labels({**labels, 'le': '+Inf'})} {count}"
    yield f"{family.name}_sum{_format_labels(labels)} {_format_value(value['sum'])}"
    yield f"{family.name}_count{_format_labels(labels)} {count}"


def render_metrics(
    snapshot: Dict[str, Any], families: Iterable[Family]
) -> str:
    """Render ``snapshot`` through a family table as Prometheus text."""
    lines: List[str] = []
    for family in families:
        series = _series(snapshot, family.path)
        if not series and family.default is not None:
            series = [({}, family.default)]
        if not series:
            continue
        lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for labels, value in series:
            lines.extend(_samples(family, labels, value))
    return "\n".join(lines) + "\n"


class PrometheusEndpoint:
    """Minimal localhost HTTP scrape endpoint over a ``render()`` callable.

    Deliberately tiny: HTTP/1.0 semantics, ``Connection: close``, two
    routes (``/metrics`` and a ``/healthz`` liveness probe).  A render
    that raises answers ``500`` with the exception type and is logged
    once; the next scrape renders afresh.  Binds to
    loopback only -- observability never widens the server's network
    surface.  ``port=0`` binds an ephemeral port, recorded in ``.port``
    after :meth:`start`.
    """

    def __init__(
        self,
        render: Callable[[], str],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._render = render
        self.host = host
        self.port = int(port)
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        sock = self._server.sockets[0]
        self.port = sock.getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await asyncio.wait_for(reader.readline(), timeout=10.0)
            parts = request_line.decode("latin-1", "replace").split()
            method = parts[0].upper() if parts else ""
            path = parts[1] if len(parts) > 1 else "/"
            # drain headers until the blank line; we never use them
            while True:
                header = await asyncio.wait_for(reader.readline(), timeout=10.0)
                if header in (b"\r\n", b"\n", b""):
                    break
            if method not in ("GET", "HEAD"):
                await self._respond(writer, 405, "method not allowed\n")
            elif path.split("?")[0] == "/metrics":
                try:
                    body = self._render()
                except Exception as exc:
                    _LOG.exception("metrics render failed")
                    await self._respond(writer, 500, f"{type(exc).__name__}\n")
                else:
                    await self._respond(
                        writer, 200, body, content_type=CONTENT_TYPE,
                        head_only=method == "HEAD",
                    )
            elif path.split("?")[0] == "/healthz":
                await self._respond(writer, 200, "ok\n")
            else:
                await self._respond(writer, 404, "not found\n")
        except (asyncio.TimeoutError, ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        body: str,
        *,
        content_type: str = "text/plain; charset=utf-8",
        head_only: bool = False,
    ) -> None:
        reason = {
            200: "OK", 404: "Not Found", 405: "Method Not Allowed",
            500: "Internal Server Error",
        }[status]
        payload = body.encode("utf-8")
        head = (
            f"HTTP/1.0 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head if head_only else head + payload)
        await writer.drain()
