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

