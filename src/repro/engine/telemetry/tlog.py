"""Structured logging with a per-run ``run_id`` field.

Every engine component logs through ``get_logger(name, run_id)``, which
returns a :class:`logging.LoggerAdapter` that stamps each record with
the join run's id, so interleaved runs (or a driver plus its worker
processes) stay separable in one stream::

    12:01:33 WARNING repro.engine.executor [run=1f6e9c2a4d31] task 3 ...

The library itself never configures handlers: records propagate to the
standard :mod:`logging` tree, where an application (or ``caplog`` in a
test) sees them, and Python's last-resort handler prints warnings and
errors to stderr when nothing is configured -- so e.g. the block store's
spill-directory fallback warning is visible by default.  The CLI's
``--quiet`` calls :func:`configure` to install a stderr handler that
shows nothing below CRITICAL.
"""

from __future__ import annotations

import logging
import sys

__all__ = ["LOG_LEVELS", "ROOT_LOGGER", "configure", "get_logger"]

#: The logger namespace every engine/pipeline logger lives beneath.
ROOT_LOGGER = "repro"

#: Levels :func:`configure` accepts (``quiet`` shows nothing below
#: CRITICAL -- the CLI's ``--quiet``).
LOG_LEVELS = ("debug", "info", "warning", "error", "quiet")

_FORMAT = "%(asctime)s %(levelname)s %(name)s [run=%(run_id)s] %(message)s"
_DATE_FORMAT = "%H:%M:%S"


class _RunIdFilter(logging.Filter):
    """Guarantee every record carries a ``run_id`` for the formatter."""

    def filter(self, record: logging.LogRecord) -> bool:
        if not hasattr(record, "run_id"):
            record.run_id = "-"
        return True


def get_logger(name: str, run_id: str | None = None) -> logging.LoggerAdapter:
    """A structured logger stamping records with ``run_id``.

    ``name`` is placed under the ``repro`` namespace when not already
    there; ``run_id`` defaults to ``-`` (a component logging outside any
    run, e.g. at import or cleanup time).
    """
    if name != ROOT_LOGGER and not name.startswith(ROOT_LOGGER + "."):
        name = f"{ROOT_LOGGER}.{name}"
    return logging.LoggerAdapter(
        logging.getLogger(name), {"run_id": run_id or "-"}
    )


def _resolve_level(level: str | int) -> int:
    if isinstance(level, int):
        return level
    text = level.strip().lower()
    if text == "quiet":
        return logging.CRITICAL
    numeric = logging.getLevelName(text.upper())
    if not isinstance(numeric, int):
        raise ValueError(
            f"unknown log level {level!r}; choose from {LOG_LEVELS}"
        )
    return numeric


def configure(level: str | int = "warning", stream=None) -> logging.Logger:
    """Install (or retune) the ``repro`` stderr handler; idempotent.

    Returns the configured root ``repro`` logger.  Calling again only
    adjusts the level, so tests and repeated CLI invocations in one
    process never stack handlers.
    """
    root = logging.getLogger(ROOT_LOGGER)
    root.setLevel(_resolve_level(level))
    handler = next(
        (
            h
            for h in root.handlers
            if getattr(h, "_repro_telemetry", False)
        ),
        None,
    )
    if handler is None:
        handler = logging.StreamHandler(stream or sys.stderr)
        handler._repro_telemetry = True
        handler.setFormatter(logging.Formatter(_FORMAT, _DATE_FORMAT))
        handler.addFilter(_RunIdFilter())
        root.addHandler(handler)
        # the dedicated handler replaces Python's last-resort printing
        root.propagate = False
    elif stream is not None:
        handler.setStream(stream)
    return root
