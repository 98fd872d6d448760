"""Plain-text point IO (the HDFS text-file stand-in).

Format: one point per line, ``id,x,y`` -- the raw txt layout Algorithm 5
loads with ``sc.textFile``.  Used by the Spark-style pipeline example and
round-trip tests.
"""

from __future__ import annotations

import numpy as np

from repro.data.pointset import PointSet


def write_points_text(points: PointSet, path: str) -> None:
    """Write a point set as ``id,x,y`` lines."""
    with open(path, "w") as f:
        for pid, x, y in zip(points.ids, points.xs, points.ys):
            f.write(f"{int(pid)},{float(x)!r},{float(y)!r}\n")


#: One ``id,x,y`` line as a record.
_RECORD = np.dtype([("id", np.int64), ("x", np.float64), ("y", np.float64)])


def _read_records(path: str) -> np.ndarray:
    """The ``id,x,y`` lines of one file as records, parsed by numpy's C reader.

    Blank lines are skipped; a malformed line raises ``ValueError``.
    """
    with open(path) as f:
        lines = [line for line in f if not line.isspace()]
    if not lines:  # loadtxt warns about input without data
        return np.empty(0, dtype=_RECORD)
    return np.loadtxt(lines, delimiter=",", dtype=_RECORD, comments=None, ndmin=1)


def read_points_text(
    path: str, payload_bytes: int = 0, name: str = ""
) -> PointSet:
    """Read a point set written by :func:`write_points_text`."""
    rows = _read_records(path)
    return PointSet(rows["x"], rows["y"], rows["id"], payload_bytes, name)


def write_points_text_parts(points: PointSet, directory: str, parts: int) -> list[str]:
    """Write a point set as HDFS-style part files (``part-00000`` ...).

    Rows are split into contiguous blocks, mirroring how HDFS chunks a
    file; returns the part paths in order.
    """
    import os

    if parts < 1:
        raise ValueError("need at least one part")
    os.makedirs(directory, exist_ok=True)
    n = len(points)
    block = -(-n // parts) if n else 1
    paths = []
    for p in range(parts):
        lo, hi = p * block, min((p + 1) * block, n)
        path = os.path.join(directory, f"part-{p:05d}")
        with open(path, "w") as f:
            for i in range(lo, hi):
                f.write(
                    f"{int(points.ids[i])},{float(points.xs[i])!r},"
                    f"{float(points.ys[i])!r}\n"
                )
        paths.append(path)
    return paths


def read_points_text_parts(directory: str, payload_bytes: int = 0, name: str = "") -> PointSet:
    """Read a directory of part files back into a :class:`PointSet`."""
    import os

    rows = np.concatenate([np.empty(0, dtype=_RECORD)] + [
        _read_records(os.path.join(directory, entry))
        for entry in sorted(os.listdir(directory))
        if entry.startswith("part-")
    ])
    return PointSet(rows["x"], rows["y"], rows["id"], payload_bytes, name)
