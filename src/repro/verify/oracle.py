"""Ground-truth distance joins and assignment verification.

These utilities are the arbiters for the two properties every assignment
scheme must satisfy (Defs. 3.2 and 3.3 of the paper):

* **correctness** -- the union of the per-cell joins equals the true join;
* **duplicate-freeness** -- no result pair is produced by two cells.

Points are given as ``(pid, x, y)`` triples per input.  The partitioned
join deliberately keeps *multiplicity*: a pair reported by two cells shows
up twice, which is exactly the violation we need to detect.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from repro.geometry.distance import euclidean_sq

PointTriple = tuple[int, float, float]


def brute_force_pairs(
    r_pts: Sequence[PointTriple], s_pts: Sequence[PointTriple], eps: float
) -> set[tuple[int, int]]:
    """All ``(rid, sid)`` pairs within ``eps``, by exhaustive comparison."""
    eps_sq = eps * eps
    return {
        (rid, sid)
        for rid, rx, ry in r_pts
        for sid, sx, sy in s_pts
        if euclidean_sq(rx, ry, sx, sy) <= eps_sq
    }


def kdtree_pairs(
    r_pts: Sequence[PointTriple], s_pts: Sequence[PointTriple], eps: float
) -> set[tuple[int, int]]:
    """All ``(rid, sid)`` pairs within ``eps``, via KD-trees (fast oracle)."""
    if not r_pts or not s_pts:
        return set()
    from scipy.spatial import cKDTree

    r_ids = [p[0] for p in r_pts]
    s_ids = [p[0] for p in s_pts]
    tree_r = cKDTree([(p[1], p[2]) for p in r_pts])
    tree_s = cKDTree([(p[1], p[2]) for p in s_pts])
    out: set[tuple[int, int]] = set()
    for i, neighbours in enumerate(tree_r.query_ball_tree(tree_s, eps)):
        rid = r_ids[i]
        out.update((rid, s_ids[j]) for j in neighbours)
    return out


def assignment_join_pairs(
    assigner,
    r_pts: Sequence[PointTriple],
    s_pts: Sequence[PointTriple],
    eps: float,
) -> list[tuple[int, int]]:
    """Per-cell join results concatenated over all cells, with multiplicity.

    ``assigner`` must expose ``assign(x, y, side) -> tuple[cell_id, ...]``.
    """
    from repro.geometry.point import Side  # local import to avoid cycles

    by_cell_r: dict[int, list[PointTriple]] = {}
    by_cell_s: dict[int, list[PointTriple]] = {}
    for pid, x, y in r_pts:
        for cell in assigner.assign(x, y, Side.R):
            by_cell_r.setdefault(cell, []).append((pid, x, y))
    for pid, x, y in s_pts:
        for cell in assigner.assign(x, y, Side.S):
            by_cell_s.setdefault(cell, []).append((pid, x, y))

    eps_sq = eps * eps
    pairs: list[tuple[int, int]] = []
    for cell, r_local in by_cell_r.items():
        s_local = by_cell_s.get(cell)
        if not s_local:
            continue
        for rid, rx, ry in r_local:
            for sid, sx, sy in s_local:
                if euclidean_sq(rx, ry, sx, sy) <= eps_sq:
                    pairs.append((rid, sid))
    return pairs


@dataclass
class VerificationResult:
    """Outcome of checking an assignment against the ground truth."""

    correct: bool
    duplicate_free: bool
    missing: set[tuple[int, int]] = field(default_factory=set)
    spurious: set[tuple[int, int]] = field(default_factory=set)
    duplicated: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.correct and self.duplicate_free

    def describe(self) -> str:
        if self.ok:
            return "assignment is correct and duplicate-free"
        parts = []
        if self.missing:
            parts.append(f"{len(self.missing)} missing pairs (e.g. {next(iter(self.missing))})")
        if self.spurious:
            parts.append(f"{len(self.spurious)} spurious pairs")
        if self.duplicated:
            pair, count = next(iter(self.duplicated.items()))
            parts.append(f"{len(self.duplicated)} duplicated pairs (e.g. {pair} x{count})")
        return "; ".join(parts)


def verify_assignment(
    assigner,
    r_pts: Sequence[PointTriple],
    s_pts: Sequence[PointTriple],
    eps: float,
    expected: set[tuple[int, int]] | None = None,
) -> VerificationResult:
    """Check correctness and duplicate-freeness of an assignment scheme."""
    if expected is None:
        expected = kdtree_pairs(r_pts, s_pts, eps)
    produced = assignment_join_pairs(assigner, r_pts, s_pts, eps)
    counts = Counter(produced)
    produced_set = set(counts)
    return VerificationResult(
        correct=produced_set == expected,
        duplicate_free=all(c == 1 for c in counts.values()),
        missing=expected - produced_set,
        spurious=produced_set - expected,
        duplicated={p: c for p, c in counts.items() if c > 1},
    )
