"""The wire protocol of the join server: newline-delimited JSON.

One request per line, one response per line, UTF-8, over a localhost TCP
socket or a unix-domain socket.  Requests are objects with an ``op``
field (:data:`OPS`); responses always carry ``ok`` (and ``error`` +
``error_type`` when ``ok`` is false).  The framing is deliberately
boring -- any language with a socket and a JSON parser is a client.

Request sizes are bounded (:data:`MAX_LINE_BYTES`) so a confused client
cannot balloon the server's read buffer; response sizes are bounded by
the query's ``max_pairs`` field.
"""

from __future__ import annotations

import json

__all__ = [
    "MAX_LINE_BYTES",
    "OPS",
    "ProtocolError",
    "decode_request",
    "encode",
    "error_response",
]

#: Operations the server understands.
OPS = (
    "ping",
    "register",
    "query",
    "stats",
    "shutdown",
)

#: Upper bound on one request line (1 MiB is generous for JSON configs).
MAX_LINE_BYTES = 1 << 20


class ProtocolError(ValueError):
    """A request the server cannot parse or validate."""


def encode(payload: dict) -> bytes:
    """One response/request as a JSON line (compact separators)."""
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def decode_request(line: bytes) -> dict:
    """Parse and structurally validate one request line."""
    try:
        request = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(request, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(request).__name__}"
        )
    op = request.get("op")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r}; choose from {', '.join(OPS)}"
        )
    return request


def error_response(exc: BaseException) -> dict:
    """The uniform failure envelope."""
    return {
        "ok": False,
        "error": str(exc),
        "error_type": type(exc).__name__,
    }
