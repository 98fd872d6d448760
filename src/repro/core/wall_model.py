"""The predicted *wall* clock of a ``serial`` join: terms and fitted constants.

The modelled clock of :mod:`repro.core.cost_model` is the paper's cluster
makespan -- every term divided by the worker count, assign cheap, the
shuffle a network.  On the ``serial`` backend the simulated workers are a
loop in one interpreter, so that clock prices sixteen workers below four
while the caller waits *longer* for them.  This module prices what the
caller waits for instead: a linear model per pipeline phase over
quantities a :class:`~repro.core.cost_model.CostPrediction` already
carries (:meth:`~repro.core.cost_model.CostPrediction.quantities`), with
no division by the worker count.

===========  ===================  ============================================
phase        measured stage       terms (one fitted coefficient each)
===========  ===================  ============================================
``build``    ``build_partition``  fixed; fixed again when an agreement graph
                                  is built; input points (the Bernoulli
                                  sample is a pass over them); grid cells;
                                  cells again when built adaptively
``assign``   ``assign``           input points; points classified against the
                                  agreement graph; replicas emitted, priced
                                  apart for universal, adaptive and
                                  ``eps_grid`` assignment
``shuffle``  ``shuffle``          shuffled records; records x simulated
                                  workers (one pass a worker)
``join``     ``local_join``       per kernel: fixed; one task a simulated
                                  worker (``grid_hash``'s, the kernel measured
                                  at more than one worker count, for all);
                                  cells holding both inputs; their R records
                                  (probe: three windows, two sorted searches
                                  each) and S records (keying and one sort);
                                  candidates; results (expand)
===========  ===================  ============================================

Arrays longer than :data:`CACHE_RECORDS` stop being cache-resident and a
record costs more from there on: the point and record terms have a
``*_big`` twin counting the records beyond it.  That hinge is what makes
universal replication's extra records dearer at 1M a side than at 40k, and
with it the measured crossover (docs/PLANNER.md "Two clocks").

:data:`WALL_COEFFICIENTS` are *constants*: ``scripts/fit_wall_model.py``
produces them by deterministic least squares from the checked-in
calibration table ``scripts/wall_calibration.csv`` (``--check`` reproduces
them; ``--write`` refits after the code they describe changed).
Nothing here learns at run time.
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = [
    "ADAPTIVE_METHODS",
    "CACHE_RECORDS",
    "WALL_COEFFICIENTS",
    "WALL_PHASES",
    "WALL_STAGES",
    "wall_group",
    "wall_line",
    "wall_seconds",
    "wall_terms",
]

#: wall phase -> the stage span carrying its measured seconds
WALL_STAGES = {
    "build": "build_partition",
    "assign": "assign",
    "shuffle": "shuffle",
    "join": "local_join",
}
WALL_PHASES = tuple(WALL_STAGES)

#: methods that build an agreement graph and classify points against it
ADAPTIVE_METHODS = ("lpib", "diff")

#: Records a column holds before a pass over it leaves the cache (2 MB of
#: float64).  Measured per-record costs of assign and shuffle are flat up to
#: ~200k records and 1.5-1.8x that from 600k on; the fit is insensitive to
#: the knee anywhere in 150k-400k.
CACHE_RECORDS = 1 << 18


def wall_group(phase: str, kernel: str) -> str:
    """A phase's coefficient group; the join phase is fitted per kernel."""
    return f"join/{kernel}" if phase == "join" else phase


def wall_terms(q: Mapping[str, Any]) -> dict[str, dict[str, float]]:
    """The regressors of every phase for one candidate's quantities.

    ``q`` is :meth:`CostPrediction.quantities`, a calibration-table row
    or the ``quantities`` of a recorded run's planner section, all alike.
    """
    points = float(q["n_r"] + q["n_s"])
    replicas = float(q["replicated_r"] + q["replicated_s"])
    records = points + replicas
    cells = float(q["cells"])
    workers = float(q["workers"])
    adaptive = 1.0 if q["method"] in ADAPTIVE_METHODS else 0.0
    eps_grid = 1.0 if q["method"] == "eps_grid" else 0.0
    return {
        "build": {
            "fixed": 1.0,
            "adaptive": adaptive,
            "point": points,
            "cell": cells,
            "adaptive_cell": adaptive * cells,
        },
        "assign": {
            "point": points,
            "point_big": max(0.0, points - CACHE_RECORDS),
            "adaptive_point": adaptive * points,
            "replica": (1.0 - adaptive - eps_grid) * replicas,
            "adaptive_replica": adaptive * replicas,
            "eps_grid_replica": eps_grid * replicas,
        },
        "shuffle": {
            "record": records,
            "record_big": max(0.0, records - CACHE_RECORDS),
            "record_task": records * workers,
        },
        "join": {
            "fixed": 1.0,
            "task": workers,
            "cell": float(q["joinable_cells"]),
            "r_record": float(q["joinable_r"]),
            "s_record": float(q["joinable_s"]),
            "candidate": float(q["candidates"]),
            "result": float(q["results"]),
        },
    }


def wall_seconds(
    q: Mapping[str, Any], coefficients: Mapping[str, Mapping[str, float]] | None = None
) -> dict[str, float]:
    """Predicted wall seconds per phase; a term without a coefficient costs nothing."""
    coefficients = WALL_COEFFICIENTS if coefficients is None else coefficients
    kernel = q["kernel"]
    return {
        phase: sum([
            c * terms[name]
            for name, c in coefficients[wall_group(phase, kernel)].items()
        ])
        for phase, terms in wall_terms(q).items()
    }


def wall_line(q: Mapping[str, Any]) -> dict[str, tuple[float, float]]:
    """Per phase: ``(seconds without a worker, seconds each worker adds)``.

    Every term is constant in ``q["workers"]`` or proportional to it, so
    two evaluations price every worker count of a (method, kernel): the
    planner's inner loop is one multiply-add a phase.
    """
    none = wall_seconds({**q, "workers": 0})
    one = wall_seconds({**q, "workers": 1})
    return {phase: (none[phase], one[phase] - none[phase]) for phase in none}


# BEGIN FITTED (scripts/fit_wall_model.py --write)
WALL_COEFFICIENTS: dict[str, dict[str, float]] = {
    'build': {
        'fixed': 0.000363943,
        'adaptive': 0.00127962,
        'point': 1.49496e-08,
        'cell': 9.73747e-08,
        'adaptive_cell': 9.91478e-07,
    },
    'assign': {
        'point': 2.67063e-08,
        'point_big': 1.94362e-08,
        'adaptive_point': 2.00181e-08,
        'replica': 6.51534e-09,
        'adaptive_replica': 1.23871e-07,
        'eps_grid_replica': 4.41133e-08,
    },
    'shuffle': {
        'record': 2.86561e-08,
        'record_big': 1.41911e-08,
        'record_task': 1.88948e-09,
    },
    'join/grid_hash': {
        'task': 0.00014681,
        'cell': 1.21165e-05,
        'r_record': 2.41179e-07,
        's_record': 2.15593e-08,
        'result': 2.43682e-08,
    },
    'join/nested_loop': {
        'fixed': 0.00148784,
        'task': 0.00014681,
        'cell': 7.89182e-06,
        'r_record': 1.34427e-07,
        's_record': 3.66045e-08,
        'candidate': 8.08322e-09,
        'result': 2.08355e-08,
    },
    'join/plane_sweep': {
        'fixed': 0.000362405,
        'task': 0.00014681,
        'cell': 5.13785e-05,
        's_record': 1.28268e-09,
        'candidate': 8.50661e-09,
        'result': 4.13842e-08,
    },
    'join/rtree': {
        'task': 0.00014681,
        'cell': 0.000146675,
        's_record': 1.32951e-07,
        'candidate': 3.83214e-10,
        'result': 7.21444e-08,
    },
}
# END FITTED
