"""Cache keys for the serving layer.

Two kinds of key are derived here:

* :func:`dataset_fingerprint` -- a content hash of a
  :class:`~repro.data.pointset.PointSet` (ids, coordinates, payload
  size).  Two registrations of byte-identical data share every cached
  artifact, however they were loaded.
* :func:`grid_partition_key` / :func:`query_key` -- the tuple of the
  dataset fingerprints plus every configuration field that feeds the
  pipeline's build/partition stage (respectively: the whole query).  A
  field missing from the key would alias two different builds, so the
  keys enumerate config fields *explicitly* -- adding a knob to
  ``JoinConfig`` that changes the build must extend the key, and the
  serving tests assert distinct configs produce distinct keys.
"""

from __future__ import annotations

import hashlib

__all__ = ["dataset_fingerprint", "grid_partition_key", "query_key"]


def dataset_fingerprint(points) -> str:
    """A content hash of a point set (first 16 hex digits of sha256)."""
    digest = hashlib.sha256()
    digest.update(len(points.xs).to_bytes(8, "little"))
    digest.update(int(points.payload_bytes).to_bytes(8, "little"))
    digest.update(points.ids.tobytes())
    digest.update(points.xs.tobytes())
    digest.update(points.ys.tobytes())
    return digest.hexdigest()[:16]


def _mbr_key(mbr) -> tuple | None:
    if mbr is None:
        return None
    return (mbr.xmin, mbr.ymin, mbr.xmax, mbr.ymax)


def grid_partition_key(cfg, r_fingerprint: str, s_fingerprint: str) -> tuple:
    """The artifact-cache key of one build/partition stage output.

    Covers everything :class:`~repro.joins.distance_join.JoinConfig`
    feeds into grid construction, sampling, agreement generation and
    cell placement.  Execution-only fields (backend, faults, spill,
    retries) deliberately do not appear: they cannot change the built
    artifacts.
    """
    return (
        "grid_partition",
        r_fingerprint,
        s_fingerprint,
        float(cfg.eps),
        cfg.method,
        float(cfg.sample_rate),
        int(cfg.seed),
        float(cfg.resolution_factor),
        cfg.cell_assignment,
        int(cfg.num_workers),
        int(cfg.resolved_partitions()),
        bool(cfg.duplicate_free),
        cfg.marking_ordering,
        _mbr_key(cfg.mbr),
    )


def query_key(cfg, r_fingerprint: str, s_fingerprint: str) -> tuple:
    """The result-cache / coalescing key of one full distance join.

    A superset of :func:`grid_partition_key`: adds the fields that do
    change the *result set or its metrics* without changing the built
    artifacts (kernel choice changes candidate counts; ``collect_pairs``
    changes what is materialized).
    """
    return (
        "query",
        grid_partition_key(cfg, r_fingerprint, s_fingerprint),
        cfg.local_kernel,
        bool(cfg.collect_pairs),
    )
