"""Startup hygiene: reclaim temp resources a crashed run left behind.

A SIGKILLed join (or any abruptly-dead process) never reaches the
BlockStore cleanup path, so its spill directories and
POSIX shared-memory segments leak.  Every such resource is tagged with
its owner pid at creation time -- spill/checkpoint temp directories carry
an ``.repro-owner-pid`` marker file, shared-memory segments embed the pid
in their ``repro_<pid>_<seq>_<nonce>`` name -- so a later run can tell a
*stale* resource (owner dead) from one belonging to a live sibling
process, and sweep only the former.

``repro serve`` sweeps on every start-up;
:func:`sweep_stale_resources` is also safe to call from anywhere else,
because it touches nothing whose owner is still alive and nothing it
cannot attribute to an owner.
"""

from __future__ import annotations

import os
import shutil
import tempfile

#: Marker file naming the pid that owns a spill/checkpoint temp directory.
OWNER_MARKER = ".repro-owner-pid"

#: Temp-directory prefixes of the block store (``repro-ckpt-`` is where
#: cell checkpoints lived before they joined the store's directory; kept
#: so an older run's leftovers are still swept).
TEMP_PREFIXES = ("repro-spill-", "repro-ckpt-")

#: Prefix of the join server's pid-guarded state directories and of its
#: socket files (see :mod:`repro.serving.server`).
SERVE_PREFIX = "repro-serve-"

#: Prefix of this package's named shared-memory segments.
SHM_PREFIX = "repro_"

#: Where POSIX shared memory is visible as files (Linux).
DEFAULT_SHM_DIR = "/dev/shm"


def pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (signal-0 probe)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - alive, other user
        return True
    except OSError:  # pragma: no cover - defensive
        return True
    return True


def write_owner_marker(directory: str, pid: int | None = None) -> None:
    """Tag ``directory`` with its owner pid (best effort, never raises)."""
    try:
        path = os.path.join(directory, OWNER_MARKER)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(str(os.getpid() if pid is None else pid))
    except OSError:  # pragma: no cover - hygiene must never break a run
        pass


def _dir_owner(directory: str) -> int | None:
    """The pid recorded in a directory's owner marker, or ``None``."""
    try:
        with open(
            os.path.join(directory, OWNER_MARKER), encoding="ascii"
        ) as fh:
            return int(fh.read().strip())
    except (OSError, ValueError):
        return None


def shm_segment_owner(name: str) -> int | None:
    """The pid embedded in a ``repro_<pid>_...`` segment name, or ``None``."""
    if not name.startswith(SHM_PREFIX):
        return None
    parts = name[len(SHM_PREFIX):].split("_")
    try:
        return int(parts[0])
    except (IndexError, ValueError):
        return None


def server_socket_owner(name: str) -> int | None:
    """The pid embedded in a ``repro-serve-<pid>.sock`` file name.

    A SIGKILLed server never unlinks its listening socket; the pid baked
    into the default socket name lets a later sweep tell a stale socket
    (owner dead) from one a live server is still accepting on.  Returns
    ``None`` for names that are not pid-stamped server sockets.
    """
    if not name.startswith(SERVE_PREFIX) or not name.endswith(".sock"):
        return None
    stem = name[len(SERVE_PREFIX):-len(".sock")]
    try:
        return int(stem.split("-")[0].split("_")[0])
    except (IndexError, ValueError):
        return None


def sweep_stale_resources(
    tmp_root: str | None = None,
    shm_dir: str | None = None,
) -> dict:
    """Remove orphaned spill dirs and shared-memory segments (pid-guarded).

    Scans ``tmp_root`` (default: the system temp directory) for
    ``repro-spill-*`` / ``repro-ckpt-*`` / ``repro-serve-*`` directories
    plus stale pid-stamped ``repro-serve-<pid>.sock`` socket files, and
    ``shm_dir`` (default ``/dev/shm``) for ``repro_*`` segments.  A
    resource is removed only when its recorded owner pid is provably
    dead; unmarked directories and live owners are left alone.  Returns
    a report dict with ``dirs_removed``, ``segments_removed``,
    ``sockets_removed`` and ``skipped`` lists.
    """
    report = {
        "dirs_removed": [],
        "segments_removed": [],
        "sockets_removed": [],
        "skipped": [],
    }
    root = tmp_root if tmp_root is not None else tempfile.gettempdir()
    try:
        entries = sorted(os.listdir(root))
    except OSError:
        entries = []
    for entry in entries:
        if not entry.startswith(TEMP_PREFIXES + (SERVE_PREFIX,)):
            continue
        path = os.path.join(root, entry)
        if not os.path.isdir(path):
            # a socket file a killed server left outside any state dir
            owner = server_socket_owner(entry)
            if owner is None or pid_alive(owner):
                continue
            try:
                os.unlink(path)
                report["sockets_removed"].append(path)
            except OSError:  # pragma: no cover - raced with another sweep
                pass
            continue
        owner = _dir_owner(path)
        if owner is None or pid_alive(owner):
            report["skipped"].append(path)
            continue
        try:
            shutil.rmtree(path, ignore_errors=True)
            report["dirs_removed"].append(path)
        except OSError:  # pragma: no cover - defensive
            report["skipped"].append(path)

    shm_root = shm_dir if shm_dir is not None else DEFAULT_SHM_DIR
    if os.path.isdir(shm_root):
        try:
            segments = sorted(os.listdir(shm_root))
        except OSError:  # pragma: no cover - defensive
            segments = []
        for name in segments:
            owner = shm_segment_owner(name)
            if owner is None:
                continue
            if pid_alive(owner):
                report["skipped"].append(os.path.join(shm_root, name))
                continue
            try:
                os.unlink(os.path.join(shm_root, name))
                report["segments_removed"].append(name)
            except OSError:  # pragma: no cover - raced with another sweep
                pass
    return report
