"""RunHistory: append-only, rotation-bounded JSONL store of RunReports.

A single telemetry run produces a :class:`repro.engine.telemetry.RunReport`;
this module persists *many* of them so planner accuracy can be replayed
across accumulated runs (``repro.planner.accuracy.replay_reports``) and a
long-lived server leaves an auditable trail of every query it executed.

Design points:

* **Envelope lines.**  Each record is one JSON line::

      {"type": "run_report", "run_id": ..., "recorded_at": ..., "report": {...}}

  ``report`` is exactly ``RunReport.to_json()``, so a stored line replays
  through the planner-accuracy harness unchanged.
* **Atomic appends.**  A record is serialised to one ``bytes`` blob
  (including the trailing newline) and written with a single buffered
  ``write`` + ``flush`` under a lock, so concurrent appenders and an
  abrupt SIGKILL can corrupt at most the final line -- which readers
  tolerate (skipped and counted, never raised).
* **Bounded retention.**  When the active file would exceed
  ``max_bytes`` it is rotated logrotate-style (``path`` -> ``path.1`` ->
  ``path.2`` ...) keeping at most ``retain_files`` rotated generations;
  older generations are unlinked.  History can therefore run forever on
  a resident server without unbounded disk growth.
* **No upward imports.**  The store speaks plain dicts; the pipeline
  reaches it duck-typed through ``ExecutionSettings.history`` and the
  planner harness consumes ``reports()`` output, keeping ``repro.obs``
  importable from both sides without layering cycles.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
from typing import Any, Dict, Iterator, List, Optional

from repro._checks import check_count

__all__ = ["RunHistory"]

#: record discriminator so future line types can share the file
_RECORD_TYPE = "run_report"


class RunHistory:
    """Append-only JSONL store of RunReports with size-bounded rotation.

    Parameters
    ----------
    path:
        Active JSONL file; parent directories are created on demand.
    max_bytes:
        Rotate the active file before an append would push it past this
        size.  ``0`` disables rotation (the file grows without bound).
    retain_files:
        How many rotated generations (``path.1`` .. ``path.N``) to keep;
        older generations are deleted at rotation time.
    """

    def __init__(
        self,
        path: str,
        *,
        max_bytes: int = 64 * 1024 * 1024,
        retain_files: int = 2,
    ) -> None:
        check_count("max_bytes", max_bytes, 0)
        check_count("retain_files", retain_files, 1)
        self.path = os.fspath(path)
        self.max_bytes = int(max_bytes)
        self.retain_files = int(retain_files)
        self._lock = threading.Lock()
        self._fh: Optional[io.BufferedWriter] = None
        self._closed = False
        self._appended = 0
        self._rotations = 0
        self._corrupt_lines = 0
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def _open_locked(self) -> io.BufferedWriter:
        if self._closed:
            raise ValueError("RunHistory is closed")
        if self._fh is None or self._fh.closed:
            self._fh = open(self.path, "ab")
        return self._fh

    def _rotated_path(self, generation: int) -> str:
        return f"{self.path}.{generation}"

    def _rotate_locked(self) -> None:
        """Shift path -> path.1 -> path.2 ... dropping the oldest."""
        if self._fh is not None and not self._fh.closed:
            self._fh.flush()
            self._fh.close()
        self._fh = None
        overflow = self._rotated_path(self.retain_files)
        if os.path.exists(overflow):
            os.unlink(overflow)
        for gen in range(self.retain_files - 1, 0, -1):
            src = self._rotated_path(gen)
            if os.path.exists(src):
                os.replace(src, self._rotated_path(gen + 1))
        if os.path.exists(self.path):
            os.replace(self.path, self._rotated_path(1))
        self._rotations += 1

    def append_report(
        self, report: Dict[str, Any], *, run_id: Optional[str] = None
    ) -> str:
        """Append one ``RunReport.to_json()`` dict; returns its run id.

        The duck-typed hook the staged pipeline calls through
        ``ExecutionSettings.history`` -- it must never raise for a
        well-formed report, and the caller guards against the rest so a
        history failure can never fail a join.
        """
        rid = str(run_id or report.get("header", {}).get("run_id") or "")
        envelope = {
            "type": _RECORD_TYPE,
            "run_id": rid,
            "recorded_at": time.time(),
            "report": report,
        }
        line = (
            json.dumps(envelope, separators=(",", ":"), default=str) + "\n"
        ).encode("utf-8")
        with self._lock:
            fh = self._open_locked()
            if self.max_bytes and fh.tell() + len(line) > self.max_bytes:
                if fh.tell() > 0:  # never rotate an empty file
                    self._rotate_locked()
                fh = self._open_locked()
            fh.write(line)
            fh.flush()
            self._appended += 1
        return rid

    def flush(self) -> None:
        with self._lock:
            if self._fh is not None and not self._fh.closed:
                self._fh.flush()

    def close(self) -> None:
        """Flush and close the active file; idempotent."""
        with self._lock:
            if self._fh is not None and not self._fh.closed:
                self._fh.flush()
                self._fh.close()
            self._fh = None
            self._closed = True

    def __enter__(self) -> "RunHistory":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def files(self) -> List[str]:
        """Existing history files, oldest first (rotated then active)."""
        out = []
        for gen in range(self.retain_files, 0, -1):
            candidate = self._rotated_path(gen)
            if os.path.exists(candidate):
                out.append(candidate)
        if os.path.exists(self.path):
            out.append(self.path)
        return out

    def entries(self) -> Iterator[Dict[str, Any]]:
        """Yield stored envelopes oldest-first, skipping corrupt lines.

        A partial trailing line (crash mid-append) or a hand-mangled
        record is counted in ``stats()['corrupt_lines']`` and skipped.
        """
        self.flush()
        for path in self.files():
            try:
                fh = open(path, "rb")
            except OSError:
                continue
            with fh:
                for raw in fh:
                    if not raw.endswith(b"\n"):
                        self._corrupt_lines += 1
                        continue
                    raw = raw.strip()
                    if not raw:
                        continue
                    try:
                        entry = json.loads(raw)
                    except ValueError:
                        self._corrupt_lines += 1
                        continue
                    if (
                        not isinstance(entry, dict)
                        or entry.get("type") != _RECORD_TYPE
                        or not isinstance(entry.get("report"), dict)
                    ):
                        self._corrupt_lines += 1
                        continue
                    yield entry

    def reports(self) -> Iterator[Dict[str, Any]]:
        """Yield stored ``RunReport.to_json()`` dicts, oldest first.

        Feed the result straight to
        ``repro.planner.accuracy.replay_reports`` to recompute planner
        clock errors across every retained run.
        """
        for entry in self.entries():
            yield entry["report"]

    def get(self, run_id: str) -> Optional[Dict[str, Any]]:
        """Latest stored report for ``run_id``, or ``None``."""
        found = None
        for entry in self.entries():
            if entry.get("run_id") == run_id:
                found = entry["report"]
        return found

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            active_bytes = 0
            try:
                active_bytes = os.path.getsize(self.path)
            except OSError:
                pass
            return {
                "path": self.path,
                "active_bytes": active_bytes,
                "max_bytes": self.max_bytes,
                "retain_files": self.retain_files,
                "appended": self._appended,
                "rotations": self._rotations,
                "corrupt_lines": self._corrupt_lines,
                "closed": self._closed,
            }
