"""Capture golden outputs of the three join drivers.

Writes ``tests/golden/driver_goldens.json``: for a small matrix of
configurations per driver, the SHA-256 of the sorted result pair list
plus the exact integer metrics (replication, shuffle volumes, candidate
comparisons).  For the point distance join the modelled times are also
pinned (full-precision reprs) -- the staged-pipeline refactor must keep
them bit-identical.

Run from the repo root::

    PYTHONPATH=src python scripts/capture_driver_goldens.py [--check]

``--check`` captures in memory and never writes the file: it prints every
field that differs from the committed goldens (with the relative change
of each ``repr``'d modelled clock) and exits 1 on any difference, 0 when
every row matches.

The committed file was captured from the pre-refactor drivers (PR 3
tree) so the equivalence matrix in ``tests/test_driver_equivalence.py``
proves the refactored drivers reproduce the legacy outputs exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

OUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tests",
    "golden",
    "driver_goldens.json",
)


def pairs_digest(pairs) -> str:
    """Order-independent digest of a result pair collection."""
    blob = ";".join(f"{a},{b}" for a, b in sorted(pairs)).encode()
    return hashlib.sha256(blob).hexdigest()


def core_metrics(m) -> dict:
    return {
        "replicated_r": int(m.replicated_r),
        "replicated_s": int(m.replicated_s),
        "shuffle_records": int(m.shuffle_records),
        "shuffle_bytes": int(m.shuffle_bytes),
        "remote_records": int(m.remote_records),
        "remote_bytes": int(m.remote_bytes),
        "candidate_pairs": int(m.candidate_pairs),
        "results": int(m.results),
        "grid_cells": int(m.grid_cells),
    }


def capture_distance():
    from repro.data.generators import gaussian_clusters
    from repro.joins.distance_join import JoinConfig, distance_join

    r = gaussian_clusters(600, seed=1, name="R")
    s = gaussian_clusters(550, seed=2, name="S")
    rows = []
    for method in ("lpib", "diff", "uni_r", "eps_grid"):
        for assignment in ("lpt", "hash"):
            cfg = JoinConfig(
                eps=0.02, method=method, num_workers=4,
                cell_assignment=assignment, seed=0, local_kernel="plane_sweep",
            )
            res = distance_join(r, s, cfg)
            row = {
                "method": method,
                "cell_assignment": assignment,
                "pairs_sha256": pairs_digest(res.pairs_set()),
                "metrics": core_metrics(res.metrics),
                # the refactor must not move the modelled clocks at all
                "construction_time_model": repr(
                    res.metrics.construction_time_model
                ),
                "join_time_model": repr(res.metrics.join_time_model),
            }
            rows.append(row)
    return rows


def capture_object():
    from repro.data.object_generators import random_boxes, random_polygons, random_polylines
    from repro.geometry.point import Side
    from repro.joins.object_join import (
        ObjectSet,
        object_distance_join,
        object_intersection_join,
    )

    boxes_r = ObjectSet(random_boxes(300, Side.R, seed=11), "R")
    boxes_s = ObjectSet(random_boxes(300, Side.S, seed=22), "S")
    polys = ObjectSet(random_polygons(250, Side.R, seed=31), "P")
    lines = ObjectSet(random_polylines(250, Side.S, seed=42), "L")
    rows = []
    for method in ("lpib", "diff", "uni_r", "eps_grid"):
        res = object_distance_join(boxes_r, boxes_s, 0.01, method=method)
        rows.append({
            "workload": "boxes-distance",
            "method": method,
            "pairs_sha256": pairs_digest(res.pairs_set()),
            "metrics": core_metrics(res.metrics),
        })
    for method in ("lpib", "uni_s"):
        res = object_intersection_join(polys, lines, method=method)
        rows.append({
            "workload": "poly-line-intersection",
            "method": method,
            "pairs_sha256": pairs_digest(res.pairs_set()),
            "metrics": core_metrics(res.metrics),
        })
    return rows


def capture_generalized():
    from repro.data.generators import gaussian_clusters, real_like
    from repro.joins.generalized_join import (
        GeneralizedJoinConfig,
        generalized_distance_join,
    )

    r = gaussian_clusters(800, seed=101, name="R")
    s = real_like(800, seed=11, name="S")
    rows = []
    for partition in ("grid", "quadtree"):
        for method in ("lpib", "diff", "uni_r", "clone"):
            cfg = GeneralizedJoinConfig(
                eps=0.02, partition=partition, method=method, num_workers=4
            )
            res = generalized_distance_join(r, s, cfg)
            rows.append({
                "partition": partition,
                "method": method,
                "pairs_sha256": pairs_digest(res.pairs_set()),
                "metrics": core_metrics(res.metrics),
            })
    return rows


def differences(path: str, old, new) -> list[str]:
    """One line per leaf of ``old``/``new`` whose values differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [
            line
            for key in sorted(old.keys() | new.keys())
            for line in differences(f"{path}.{key}", old.get(key), new.get(key))
        ]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [
            line
            for i, (a, b) in enumerate(zip(old, new))
            for line in differences(f"{path}[{i}]", a, b)
        ]
    if old == new:
        return []
    line = f"{path}: {old!r} -> {new!r}"
    try:  # the modelled clocks are pinned as float reprs
        a, b = float(old), float(new)
    except (TypeError, ValueError):
        return [line]
    if isinstance(old, str) and a != 0:
        line += f" (relative change {(b - a) / a:+.3e})"
    return [line]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare a fresh capture with the committed file; write nothing",
    )
    args = parser.parse_args(argv)
    goldens = {
        "distance": capture_distance(),
        "object": capture_object(),
        "generalized": capture_generalized(),
    }
    if args.check:
        with open(OUT) as f:
            committed = json.load(f)
        diff = differences("goldens", committed, goldens)
        for line in diff:
            print(line)
        total = sum(len(v) for v in goldens.values())
        print(f"{len(diff)} field(s) differ over {total} golden rows ({OUT})")
        return 1 if diff else 0
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as f:
        json.dump(goldens, f, indent=2, sort_keys=True)
        f.write("\n")
    total = sum(len(v) for v in goldens.values())
    print(f"wrote {total} golden rows to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
