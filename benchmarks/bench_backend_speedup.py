"""Backend speedup benchmark: measured wall clock vs. modelled makespan.

Runs the same epsilon-distance join on every execution backend
(``serial`` | ``threads`` | ``processes``) and records,
per (kernel, backend): the end-to-end wall seconds, the measured
local-join makespan (max over OS workers of their summed per-cell wall
time), and the modelled makespan from the cost model.  Results land in
``benchmarks/results/BENCH_backend.json``.

Run directly for the full sweep::

    PYTHONPATH=src python benchmarks/bench_backend_speedup.py \
        --n 200000 --workers 4 --eps 0.009 --kernel grid_hash

Python's GIL serializes the ``threads`` backend for these numpy-heavy
kernels, so its speedup hovers near 1x; ``processes`` is the backend the
acceptance numbers refer to.  The emitted JSON records ``cpu_count`` --
on a single-CPU host no backend can beat serial, and the numbers say so.
"""

import argparse
import json
import time
from pathlib import Path

from conftest import bench_run_metadata

RESULTS = Path(__file__).resolve().parent / "results" / "BENCH_backend.json"


def run_once(n, eps, kernel, backend, workers, seed_r=5, seed_s=6):
    import numpy as np

    from repro.data.pointset import PointSet
    from repro.joins.distance_join import JoinConfig, distance_join

    rng_r = np.random.default_rng(seed_r)
    rng_s = np.random.default_rng(seed_s)
    r = PointSet(rng_r.uniform(0, 1, n), rng_r.uniform(0, 1, n), name="R")
    s = PointSet(rng_s.uniform(0, 1, n), rng_s.uniform(0, 1, n), name="S")

    cfg = JoinConfig(
        eps=eps,
        method="lpib",
        num_workers=workers,
        local_kernel=kernel,
        execution_backend=backend,
        executor_workers=workers,
    )
    t0 = time.perf_counter()
    res = distance_join(r, s, cfg)
    wall = time.perf_counter() - t0
    m = res.metrics
    return {
        "kernel": kernel,
        "backend": backend,
        "n": n,
        "eps": eps,
        "sim_workers": workers,
        "os_workers": m.extra.get("executor_os_workers", 1),
        "wall_seconds": round(wall, 4),
        "join_wall_makespan": round(m.join_wall_makespan, 4),
        "join_wall_total": round(m.extra.get("join_wall_total", 0.0), 4),
        "modelled_makespan": round(m.join_time_model, 4),
        "modelled_launch_adjusted": round(
            m.extra.get("join_time_model_launch_adjusted", m.join_time_model), 4
        ),
        "results": m.results,
        "candidate_pairs": m.candidate_pairs,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=200_000, help="points per side")
    ap.add_argument("--workers", type=int, default=4)
    ap.add_argument("--eps", type=float, default=0.009)
    ap.add_argument("--kernel", default="grid_hash")
    ap.add_argument("--backends", nargs="*",
                    default=["serial", "threads", "processes"])
    ap.add_argument("--out", default=str(RESULTS))
    args = ap.parse_args(argv)

    rows = []
    serial_wall = None
    for backend in args.backends:
        row = run_once(args.n, args.eps, args.kernel, backend, args.workers)
        if backend == "serial":
            serial_wall = row["join_wall_makespan"]
        if serial_wall:
            row["speedup_vs_serial"] = round(
                serial_wall / max(row["join_wall_makespan"], 1e-9), 3
            )
        rows.append(row)
        print(
            f"{backend:>10}: wall {row['wall_seconds']:.2f}s, "
            f"join makespan {row['join_wall_makespan']:.2f}s measured / "
            f"{row['modelled_makespan']:.2f}s modelled, "
            f"{row['results']:,} results"
        )

    payload = {
        "description": "measured local-join wall clock per execution backend",
        **bench_run_metadata(),
        "runs": rows,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
