"""The graph of agreements (Sect. 4 of the paper).

An *agreement* between two adjacent grid cells designates which input
(R or S) is replicated across their shared border or corner.  The graph of
agreements models one agreement per adjacent cell pair, organized into
fully-connected four-vertex subgraphs -- one per *quartet* of cells around
each interior grid corner.  Edge *marking* and *locking* (Algorithm 1)
turn an arbitrary instance into one with the duplicate-free property.
"""

from repro._lazy import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "graph": ("AgreementGraph", "DirectedEdge", "PairTypes", "QuartetSubgraph"),
    "marking": (
        "generate_duplicate_free_graph", "mark_quartet", "mixed_triangles",
        "unresolved_mixed_triangles",
    ),
    "policies": (
        "AgreementPolicy", "DiffPolicy", "LPiBPolicy", "UniformPolicy",
        "instantiate_pair_types",
    ),
})
