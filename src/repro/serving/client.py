"""A small synchronous client for the join server.

Connects over the unix-domain socket or localhost TCP port the server
listens on, speaks the newline-JSON protocol of
:mod:`repro.serving.protocol`, and raises :class:`ServerError` when a
response carries ``ok: false``.  Used by the ``repro query`` CLI
subcommand, the serving tests, and the serving benchmark; it is also
the reference for clients in other languages (the protocol is one JSON
object per line).
"""

from __future__ import annotations

import json
import socket

from repro.serving.protocol import MAX_LINE_BYTES, OPS, ProtocolError

__all__ = ["JoinClient", "ServerError", "connect"]


class ServerError(RuntimeError):
    """The server answered with ``ok: false``."""

    def __init__(self, message: str, error_type: str = ""):
        super().__init__(message)
        self.error_type = error_type


class JoinClient:
    """One connection to a running join server."""

    def __init__(
        self,
        socket_path: str | None = None,
        port: int | None = None,
        timeout: float = 60.0,
    ):
        if (socket_path is None) == (port is None):
            raise ValueError(
                "provide exactly one of socket_path or port"
            )
        if socket_path is not None:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout)
            self._sock.connect(socket_path)
        else:
            self._sock = socket.create_connection(
                ("127.0.0.1", port), timeout=timeout
            )
        self._file = self._sock.makefile("rb")

    # ------------------------------------------------------------------
    def request(self, op: str, **fields) -> dict:
        """Send one request and return the server's decoded response."""
        if op not in OPS:
            raise ProtocolError(
                f"unknown op {op!r}; choose from {', '.join(OPS)}"
            )
        payload = {"op": op, **fields}
        line = (
            json.dumps(payload, separators=(",", ":")) + "\n"
        ).encode("utf-8")
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(
                f"request of {len(line)} bytes exceeds the "
                f"{MAX_LINE_BYTES}-byte protocol limit"
            )
        self._sock.sendall(line)
        raw = self._file.readline(MAX_LINE_BYTES + 1)
        if not raw:
            raise ConnectionError("server closed the connection")
        response = json.loads(raw.decode("utf-8"))
        if not response.get("ok", False):
            raise ServerError(
                response.get("error", "unknown server error"),
                response.get("error_type", ""),
            )
        return response

    # convenience wrappers -------------------------------------------------
    def ping(self) -> dict:
        return self.request("ping")

    def register(self, name: str, spec: str | None = None, **fields) -> dict:
        return self.request(
            "register", name=name, spec=spec or name, **fields
        )

    def query(self, r: str, s: str, eps: float, **fields) -> dict:
        return self.request("query", r=r, s=s, eps=eps, **fields)

    def stats(self) -> dict:
        return self.request("stats")

    def shutdown(self) -> dict:
        return self.request("shutdown")

    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "JoinClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def connect(address: dict, timeout: float = 60.0) -> JoinClient:
    """Open a client from a server ``address`` dict (socket or port)."""
    if "socket" in address and address["socket"]:
        return JoinClient(socket_path=address["socket"], timeout=timeout)
    return JoinClient(port=address["port"], timeout=timeout)
