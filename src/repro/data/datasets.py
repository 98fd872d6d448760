"""Named datasets mirroring the paper's Table 2, at configurable scale.

The paper joins four sets: TIGER Area Hydrography (R1, 94.1M points), OSM
Parks (R2, 42.7M), and two 100M-point Gaussian synthetics (S1, S2).  We
generate laptop-scale counterparts that preserve the *relative*
cardinalities and the distribution classes; ``base_n`` is the stand-in
for the paper's 100M.

Tuple-size factors f0-f4 (Figs. 16-18) model growing non-spatial payloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.data.generators import UNIT_MBR, gaussian_clusters, real_like
from repro.data.pointset import PointSet

#: Payload bytes per tuple for the paper's tuple-size factors f0..f4.
TUPLE_SIZE_FACTORS: dict[str, int] = {
    "f0": 0,
    "f1": 32,
    "f2": 64,
    "f3": 128,
    "f4": 256,
}

#: Default stand-in for the paper's 100M-point cardinality.
DEFAULT_BASE_N = 20_000


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for one named dataset."""

    codename: str
    product: str
    relative_cardinality: float  # fraction of base_n
    factory: Callable[..., PointSet]
    seed: int


_SPECS: dict[str, DatasetSpec] = {
    "R1": DatasetSpec("R1", "TIGER/Area Hydrography (surrogate)", 0.941, real_like, 11),
    "R2": DatasetSpec("R2", "OSM/Parks (surrogate)", 0.427, real_like, 23),
    "S1": DatasetSpec("S1", "SYNTHETIC/Gaussian", 1.0, gaussian_clusters, 101),
    "S2": DatasetSpec("S2", "SYNTHETIC/Gaussian", 1.0, gaussian_clusters, 202),
}


def load_dataset(
    codename: str,
    base_n: int = DEFAULT_BASE_N,
    payload_bytes: int = 0,
    size_factor: int = 1,
) -> PointSet:
    """Generate one of the paper's datasets by codename (R1, R2, S1, S2).

    ``size_factor`` scales the cardinality (the x1..x8 sweep of Fig. 13).
    """
    try:
        spec = _SPECS[codename]
    except KeyError:
        raise ValueError(
            f"unknown dataset {codename!r}; choose from {sorted(_SPECS)}"
        ) from None
    n = int(round(spec.relative_cardinality * base_n))
    ps = spec.factory(
        n, mbr=UNIT_MBR, seed=spec.seed, payload_bytes=payload_bytes, name=codename
    )
    if size_factor > 1:
        ps = ps.tile(size_factor)
    return ps

