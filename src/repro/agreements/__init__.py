"""The graph of agreements (Sect. 4 of the paper).

An *agreement* between two adjacent grid cells designates which input
(R or S) is replicated across their shared border or corner.  The graph of
agreements models one agreement per adjacent cell pair, organized into
fully-connected four-vertex subgraphs -- one per *quartet* of cells around
each interior grid corner.  Edge *marking* and *locking* (Algorithm 1)
turn an arbitrary instance into one with the duplicate-free property.
"""

from repro.agreements.graph import AgreementGraph, DirectedEdge, PairTypes, QuartetSubgraph
from repro.agreements.policies import (
    AgreementPolicy,
    DiffPolicy,
    LPiBPolicy,
    UniformPolicy,
    instantiate_pair_types,
)
from repro.agreements.marking import (
    generate_duplicate_free_graph,
    mark_quartet,
    mixed_triangles,
    unresolved_mixed_triangles,
)

__all__ = [
    "AgreementGraph",
    "AgreementPolicy",
    "DiffPolicy",
    "DirectedEdge",
    "LPiBPolicy",
    "PairTypes",
    "QuartetSubgraph",
    "UniformPolicy",
    "generate_duplicate_free_graph",
    "instantiate_pair_types",
    "mark_quartet",
    "mixed_triangles",
    "unresolved_mixed_triangles",
]
