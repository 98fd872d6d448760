"""Broadcast-variable size modelling.

Algorithm 5 broadcasts the grid -- including the per-cell statistics and
the marked graph of agreements -- to every executor (line 6).  At the
paper's scale this is megabytes per worker and part of the construction
cost; this module models the serialized size of the broadcast structures
so the driver can charge it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.agreements.graph import AgreementGraph
from repro.grid.grid import Grid

#: Modelled bytes per broadcast grid cell entry (id + counts).
_CELL_ENTRY_BYTES = 24
#: Modelled bytes per directed edge of a quartet subgraph
#: (tail, head, type, weight, flags).
_EDGE_BYTES = 24
#: Modelled bytes per quartet dictionary entry (reference point + key).
_QUARTET_BYTES = 32
#: Fixed envelope (grid geometry, headers).
_ENVELOPE_BYTES = 256


@dataclass(frozen=True)
class BroadcastCost:
    """Size and per-worker distribution cost of one broadcast variable."""

    payload_bytes: int
    num_workers: int

    @property
    def total_bytes(self) -> int:
        """Bytes shipped over the network (one copy per remote worker)."""
        return self.payload_bytes * max(self.num_workers - 1, 0)

    def time_model(self, remote_byte_cost: float) -> float:
        """Modelled broadcast time: workers fetch concurrently, so the
        makespan is one payload at remote-read speed."""
        return self.payload_bytes * remote_byte_cost


def grid_broadcast_bytes(grid: Grid) -> int:
    """Serialized size of a bare grid broadcast (PBSM baselines)."""
    return _ENVELOPE_BYTES + grid.num_cells * _CELL_ENTRY_BYTES


def agreement_broadcast_bytes(graph: AgreementGraph) -> int:
    """Serialized size of the grid + agreements broadcast."""
    edges = 12 * len(graph.quartets)
    return (
        grid_broadcast_bytes(graph.grid)
        + len(graph.quartets) * _QUARTET_BYTES
        + edges * _EDGE_BYTES
        + len(graph.pair_types) * 12  # pair -> type entries
    )


def broadcast_cost(payload_bytes: int, num_workers: int) -> BroadcastCost:
    """Package a payload size into a :class:`BroadcastCost`."""
    if payload_bytes < 0:
        raise ValueError("payload size must be non-negative")
    return BroadcastCost(payload_bytes, num_workers)
