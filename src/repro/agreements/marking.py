"""Duplicate-free graph generation: edge marking and locking (Algorithm 1).

A triangle of a quartet subgraph whose three pair-agreements use **both**
types can produce duplicate join results (Lemma 4.8): the *apex* cell --
the one connected to the other two by same-type edges -- replicates its
duplicate-prone points to both of them.  Marking one of the apex's two
edges excludes those points from one destination; locking protects the two
edges into the remaining destination (the triangle's third vertex), whose
replication now carries the correctness of the excluded pairs.

Algorithm 1 greedily marks edges in the paper's priority order: edges
between diagonally adjacent cells first (marking them never requires
supplementary-area replication, Cor. 4.9), then side edges, each group in
descending weight order.  A defensive repair pass afterwards resolves any
mixed triangle the greedy pass left unmarked; across the exhaustive test
suite the repair never fires, but it turns a silent correctness hazard
into an explicit guarantee.

:func:`mark_quartet` is the scalar reference, one quartet at a time over
its view; :func:`generate_duplicate_free_graph` runs the same algorithm in
lockstep over the graph's ``(quartets, 12)`` arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.agreements.graph import (
    DIAGONAL,
    EDGE_COLUMN,
    EDGE_POSITIONS,
    POSITION_INDEX,
    TRIANGLES,
    AgreementGraph,
    DirectedEdge,
    QuartetSubgraph,
)


class MarkingError(RuntimeError):
    """Raised when a quartet cannot be made duplicate-free."""


@dataclass
class MarkingReport:
    """Outcome of duplicate-free graph generation."""

    quartets: int = 0
    mixed_triangles: int = 0
    marked_edges: int = 0
    repaired_triangles: int = 0

    def merge(self, other: "MarkingReport") -> None:
        self.quartets += other.quartets
        self.mixed_triangles += other.mixed_triangles
        self.marked_edges += other.marked_edges
        self.repaired_triangles += other.repaired_triangles


def triangle_apex(sub: QuartetSubgraph, tri: tuple[int, int, int]) -> int | None:
    """The apex cell of a triangle, or ``None`` if all agreements match.

    In a mixed triangle exactly one vertex is connected to the other two by
    edges of one type while the opposite pair uses the other type; that
    vertex is the apex and its two outgoing edges are the marking
    candidates (Sect. 4.5.1).
    """
    a, b, c = tri
    t_ab = sub.edge(a, b).side
    t_ac = sub.edge(a, c).side
    t_bc = sub.edge(b, c).side
    if t_ab == t_ac == t_bc:
        return None
    if t_ab == t_ac:
        return a
    if t_ab == t_bc:
        return b
    return c


def mixed_triangles(sub: QuartetSubgraph):
    """Triangles of a subgraph that carry both agreement types."""
    for tri in sub.triangles():
        if triangle_apex(sub, tri) is not None:
            yield tri


def _is_resolved(sub: QuartetSubgraph, tri: tuple[int, int, int]) -> bool:
    """Whether a mixed triangle has a marked apex edge."""
    apex = triangle_apex(sub, tri)
    if apex is None:
        return True
    others = [v for v in tri if v != apex]
    return any(sub.edge(apex, v).marked for v in others)


def unresolved_mixed_triangles(sub: QuartetSubgraph) -> list[tuple[int, int, int]]:
    """Mixed triangles that still lack a marked apex edge."""
    return [tri for tri in mixed_triangles(sub) if not _is_resolved(sub, tri)]


#: Edge-examination orders for Algorithm 1.  ``paper`` is Sect. 5.2's
#: rule: diagonal (corner-touching) edges first -- marking them never
#: induces supplementary-area replication -- then side edges, each group
#: by descending weight.  The alternatives exist for the edge-ordering
#: ablation benchmark.
ORDERINGS = ("paper", "weight_only", "arbitrary")


def _ordered_edges(sub: QuartetSubgraph, ordering: str = "paper") -> list[DirectedEdge]:
    """Algorithm 1's examination order."""
    order_key = lambda e: (-e.weight, e.tail, e.head)  # noqa: E731
    if ordering == "paper":
        diagonal, side = [], []
        for e in sub.edges():
            bucket = diagonal if sub.pair_is_diagonal(e.tail, e.head) else side
            bucket.append(e)
        return sorted(diagonal, key=order_key) + sorted(side, key=order_key)
    if ordering == "weight_only":
        return sorted(sub.edges(), key=order_key)
    if ordering == "arbitrary":
        return sorted(sub.edges(), key=lambda e: (e.tail, e.head))
    raise ValueError(f"unknown ordering {ordering!r}; choose from {ORDERINGS}")


def _mark_candidates(sub: QuartetSubgraph, e: DirectedEdge):
    """Third vertices through which ``e`` is eligible for marking.

    Edge ``e = e_ij`` can be marked in triangle ``(i, j, k)`` when
    ``e_ik`` shares its type, ``e_jk`` has the other type, and neither
    support edge is already marked (Algorithm 1, lines 5-6).
    """
    for k in sub.third_vertices(e.tail, e.head):
        e_ik = sub.edge(e.tail, k)
        e_jk = sub.edge(e.head, k)
        if (
            e_ik.side == e.side
            and e_jk.side != e.side
            and not e_ik.marked
            and not e_jk.marked
        ):
            yield k, e_ik, e_jk


def _apply_mark(e: DirectedEdge, e_ik: DirectedEdge, e_jk: DirectedEdge) -> None:
    e.marked = True
    e_ik.locked = True
    e_jk.locked = True


def mark_quartet(sub: QuartetSubgraph, ordering: str = "paper") -> MarkingReport:
    """Run Algorithm 1 on one quartet subgraph, with a repair pass.

    Returns a report; raises :class:`MarkingError` if some mixed triangle
    cannot be resolved even by the repair pass.
    """
    report = MarkingReport(quartets=1)
    report.mixed_triangles = sum(1 for _ in mixed_triangles(sub))

    for e in _ordered_edges(sub, ordering):
        if e.locked or e.marked:
            continue
        choices = list(_mark_candidates(sub, e))
        if not choices:
            continue
        # When both triangles qualify, pick the one whose locked edges have
        # the largest weight sum (Sect. 5.2).
        choices.sort(key=lambda c: (-(c[1].weight + c[2].weight), c[0]))
        _k, e_ik, e_jk = choices[0]
        _apply_mark(e, e_ik, e_jk)
        report.marked_edges += 1

    _repair_quartet(sub, report)
    return report


def _repair_quartet(sub: QuartetSubgraph, report: MarkingReport) -> None:
    """Defensive repair: resolve leftover mixed triangles ignoring locks
    (but never marking over a marked support edge, which would break
    correctness)."""
    for tri in unresolved_mixed_triangles(sub):
        apex = triangle_apex(sub, tri)
        base = [v for v in tri if v != apex]
        repaired = False
        for head in base:
            e = sub.edge(apex, head)
            if e.marked:
                continue
            k = next(v for v in base if v != head)
            e_ik = sub.edge(apex, k)
            e_jk = sub.edge(head, k)
            if not e_ik.marked and not e_jk.marked:
                _apply_mark(e, e_ik, e_jk)
                report.marked_edges += 1
                report.repaired_triangles += 1
                repaired = True
                break
        if not repaired:
            raise MarkingError(
                f"quartet {sub.corner}: mixed triangle {tri} cannot be resolved"
            )


# Static structure of a quartet's 12 edge columns (EDGE_POSITIONS order).
# Cell ids ascend with position (bl < br < tl < tr), so ``(tail, head)`` by
# id -- the scalar tie-break -- is the columns' order by position indexes.
_ENDS = [(POSITION_INDEX[t], POSITION_INDEX[h]) for t, h in EDGE_POSITIONS]
_BY_ENDS = np.argsort([4 * i + j for i, j in _ENDS])
_IS_SIDE_EDGE = np.array([DIAGONAL[t] != h for t, h in EDGE_POSITIONS])
#: _ordered_edges' weight-free keys per ordering: the columns in key order,
#: cut into the groups that the weight sort stays within
_ORDER_GROUPS = {
    "paper": (_BY_ENDS[np.argsort(_IS_SIDE_EDGE[_BY_ENDS], kind="stable")], (0, 4, 12)),
    "weight_only": (_BY_ENDS, (0, 12)),
    "arbitrary": (_BY_ENDS, ()),
}
# per column e_ij and third vertex k (ascending): the columns of e_ik, of e_jk
_IK, _JK = (
    np.array([[EDGE_COLUMN[ends[n], k] for k in range(4) if k not in ends] for ends in _ENDS])
    for n in (0, 1)
)
# The lockstep keeps a quartet's marks and locks as one uint16 each: bit c
# is edge column c.  Per column e_ij and third vertex k: the bits of its
# support edges e_ik and e_jk, which the mark tests and then locks.
_EDGE_BIT = (1 << np.arange(12)).astype(np.uint16)
_SUPPORT = _EDGE_BIT[_IK] | _EDGE_BIT[_JK]
# Set in every mark word: a test mask holding it fails whatever the edges.
_NEVER = np.uint16(1 << 12)

# Every static fact of a quartet is a function of its six pair types, so
# it is tabled over the 64 type patterns (bit k: pair k of PAIR_POSITIONS
# is R).  _TESTS[n]: per pattern and column e_ij, the bits the mark through
# the n-th third vertex k tests -- e_ij's own and its support edges', and
# _NEVER unless e_ik shares e_ij's type and e_jk does not.
_PATTERN_IS_R = ((np.arange(64)[:, None] >> np.arange(6)) & 1).astype(bool).repeat(2, axis=1)
_UNTYPED = (_PATTERN_IS_R[:, _IK] != _PATTERN_IS_R[:, :, None]) | (
    _PATTERN_IS_R[:, _JK] == _PATTERN_IS_R[:, :, None]
)
_TESTS = [(_SUPPORT[:, n] | _EDGE_BIT | _UNTYPED[:, :, n] * _NEVER).ravel() for n in (0, 1)]
# per triangle and vertex: the columns of the vertex's two edges into the
# triangle -- the marking candidates, if the vertex is the apex
_TRI_OUT = np.array(
    [
        [[EDGE_COLUMN[v, w] for w in tri if w != v] for v in tri]
        for tri in ([POSITION_INDEX[p] for p in names] for names in TRIANGLES)
    ]
)
# per pattern and triangle: the apex's two edges as bits, 0 in a pure
# triangle (a vertex whose two edges share a type is every vertex of a
# pure triangle and only the apex of a mixed one)
_SAME = _PATTERN_IS_R[:, _TRI_OUT[..., 0]] == _PATTERN_IS_R[:, _TRI_OUT[..., 1]]
_APEX_EDGES = np.where(
    _SAME.all(axis=2),
    0,
    np.sum((_EDGE_BIT[_TRI_OUT[..., 0]] | _EDGE_BIT[_TRI_OUT[..., 1]]) * _SAME, axis=2),
).astype(np.uint16)
_MIXED_TRIANGLES = np.count_nonzero(_APEX_EDGES, axis=1)
del _UNTYPED, _SAME


def _pack(flags: np.ndarray) -> np.ndarray:
    """``(quartets, 12)`` bools -> one uint16 per quartet, bit c = column c."""
    return flags @ _EDGE_BIT


def _unpack(bits: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_pack`."""
    return (bits[:, None] & _EDGE_BIT) != 0


def _examination_order(weight: np.ndarray, ordering: str) -> np.ndarray:
    """:func:`_ordered_edges` for every row: ``(12, quartets)`` columns, step-major.

    Within each group of the ordering's static keys, a stable sort by
    descending weight keeps the static order among equal weights.
    """
    columns, groups = _ORDER_GROUPS[ordering]
    if not groups:
        return np.broadcast_to(columns[:, None], (12, len(weight)))
    lighter = -weight[:, columns]
    rank = np.concatenate(
        [start + np.argsort(lighter[:, start:end], axis=1, kind="stable")
         for start, end in zip(groups, groups[1:])],
        axis=1,
    )
    return columns[rank.T]


def generate_duplicate_free_graph(
    graph: AgreementGraph, ordering: str = "paper"
) -> MarkingReport:
    """Mark every quartet of an agreement graph (Sect. 5.2).

    :func:`mark_quartet` on all quartets in lockstep: step ``t`` examines
    every quartet's ``t``-th edge at once, starting from the graph's
    current marks and locks.  The lockstep runs on the quartets whose
    pairs use both types; in the others no triangle is mixed, so nothing
    can be marked or locked.  A step is a few operations on one uint16 of
    mark bits and one of lock bits per quartet, against masks that the
    quartet's type pattern and weights fix before the first step.
    """
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}; choose from {ORDERINGS}")
    report = MarkingReport(quartets=len(graph.cells))
    pattern = graph.is_r[:, 0::2] @ _EDGE_BIT[:6]
    mixed = np.nonzero((pattern != 0) & (pattern != 63))[0]
    if not len(mixed):
        return report
    pattern, weight = pattern[mixed].astype(np.intp), graph.weight[mixed]
    order = _examination_order(weight, ordering)
    at = pattern * 12 + order
    edge_bit = _EDGE_BIT[order]
    tests = [table[at] for table in _TESTS]
    locks = [support[order] for support in _SUPPORT.T]
    # both triangles qualify: the larger locked weight sum wins, then the
    # lower third vertex
    weight = weight.T.copy()  # edge-major
    sums = [weight[_IK[:, n]] + weight[_JK[:, n]] for n in (0, 1)]
    second_wins = (sums[1] > sums[0]).ravel()[order * len(mixed) + np.arange(len(mixed))]

    marked = _pack(graph.marked)[mixed] | _NEVER
    locked = _pack(graph.locked)[mixed]
    for t in range(12):
        # e_ij is free, e_ik and e_jk are unmarked and typed for the mark
        blocked = locked & edge_bit[t]
        ok0 = ((marked & tests[0][t]) | blocked) == 0
        ok1 = ((marked & tests[1][t]) | blocked) == 0
        second = ok1 & (second_wins[t] | ~ok0)
        hit = ok0 | ok1
        marked |= edge_bit[t] * hit
        locked |= np.where(second, locks[1][t], locks[0][t] * hit)
        report.marked_edges += int(np.count_nonzero(hit))
    for flags, bits in ((graph.marked, marked), (graph.locked, locked)):
        flags[mixed] = _unpack(bits)

    report.mixed_triangles = int(_MIXED_TRIANGLES[pattern].sum())
    apex_edges = _APEX_EDGES[pattern]
    unresolved = ((apex_edges != 0) & (marked[:, None] & apex_edges == 0)).any(axis=1)
    for row in mixed[unresolved].tolist():  # never taken across the exhaustive suite
        _repair_quartet(QuartetSubgraph(graph, row), report)
    return report
