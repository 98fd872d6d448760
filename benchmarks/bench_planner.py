"""Planner benchmark: auto-tuned plans vs static plans on modelled clocks.

Scores the cost-based planner (``repro.planner.plan_join``) against the
full static configuration grid on the paper's workload grid:

* **fig10 workloads** -- the eps sweep (0.009..0.018) over the dataset
  combos (S1 x S2, R1 x S1, R2 x R1);
* **fig15 workload** -- S1 x S2 at the default eps with the grid
  resolution sweep extended to factor 5.0.

For every workload each static plan (method x resolution factor, kernel
and simulated workers held fixed so the comparison isolates what the
planner actually searches here) is *executed* and its measured modelled
clock (``JoinMetrics.exec_time_model``: the simulated cluster's makespan
over the real data) recorded.  The planner then picks its plan from
sampled statistics alone and its choice is executed the same way.

Scoring per workload: ``auto`` vs ``best_static`` (oracle minimum over
the grid -- unobtainable without running everything) and
``worst_static`` (the cost of guessing badly).  The planner must never
lose to worst-static; its regret vs the oracle is the honest number.
Results land in ``benchmarks/results/BENCH_planner.json``::

    PYTHONPATH=src python benchmarks/bench_planner.py --base-n 8000
"""

import argparse
import json
from pathlib import Path

from conftest import bench_run_metadata

RESULTS = Path(__file__).resolve().parent / "results" / "BENCH_planner.json"

FIG10_COMBOS = (("S1", "S2"), ("R1", "S1"), ("R2", "R1"))
FIG10_EPS = (0.009, 0.012, 0.015, 0.018)
FIG15_FACTORS = (2.0, 3.0, 4.0, 5.0)
STATIC_METHODS = ("lpib", "diff", "uni_r", "uni_s", "eps_grid")


def _measured_clock(r, s, eps, method, factor, kernel, workers):
    from repro.joins.distance_join import JoinConfig, distance_join

    cfg = JoinConfig(
        eps=eps,
        method=method,
        resolution_factor=factor,
        local_kernel=kernel,
        num_workers=workers,
    )
    return distance_join(r, s, cfg).metrics.exec_time_model


def score_workload(r, s, eps, factors, kernel, workers):
    """Execute the static grid and the planner's choice; score both."""
    from repro.planner import plan_join

    statics = {}
    for method in STATIC_METHODS:
        # eps_grid ignores the resolution factor (always a 1x-eps grid)
        for factor in (factors[:1] if method == "eps_grid" else factors):
            statics[(method, factor)] = _measured_clock(
                r, s, eps, method, factor, kernel, workers
            )
    planned = plan_join(
        r, s, eps,
        pins={"kernel": kernel, "workers": workers},
        factors=tuple(factors),
        clock="modelled",  # scored against measured *modelled* clocks
    )
    chosen = planned.chosen
    auto_clock = _measured_clock(
        r, s, eps, chosen.method, chosen.resolution_factor, kernel, workers
    )
    best_key = min(statics, key=statics.get)
    worst_key = max(statics, key=statics.get)
    best, worst = statics[best_key], statics[worst_key]
    return {
        "r": r.name,
        "s": s.name,
        "n_r": len(r),
        "n_s": len(s),
        "eps": eps,
        "kernel": kernel,
        "workers": workers,
        "chosen_method": chosen.method,
        "chosen_factor": chosen.resolution_factor,
        "predicted_clock": round(chosen.predicted_clock, 6),
        "auto_clock": round(auto_clock, 6),
        "best_static": {
            "method": best_key[0], "factor": best_key[1],
            "clock": round(best, 6),
        },
        "worst_static": {
            "method": worst_key[0], "factor": worst_key[1],
            "clock": round(worst, 6),
        },
        "regret_vs_best": round(auto_clock / best, 4) if best else None,
        "saved_vs_worst": round(worst / auto_clock, 4) if auto_clock else None,
        "beats_worst_static": bool(auto_clock <= worst),
        "static_grid": {
            f"{m}@{f:g}": round(t, 6) for (m, f), t in sorted(statics.items())
        },
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base-n", type=int, default=8000,
                    help="dataset cardinality (paper scale stand-in)")
    ap.add_argument("--workers", type=int, default=12)
    ap.add_argument("--kernel", default="plane_sweep")
    ap.add_argument("--factors", type=float, nargs="*",
                    default=[2.0, 3.0, 4.0])
    ap.add_argument("--out", default=str(RESULTS))
    args = ap.parse_args(argv)

    from repro.bench.harness import DEFAULT_EPS
    from repro.data.datasets import load_dataset

    datasets = {
        name: load_dataset(name, base_n=args.base_n)
        for name in ("R1", "R2", "S1", "S2")
    }

    rows = []
    workloads = [
        (ra, sa, eps, tuple(args.factors))
        for ra, sa in FIG10_COMBOS
        for eps in FIG10_EPS
    ]
    # fig15's sweep: the default workload with the factor grid extended
    workloads.append(("S1", "S2", DEFAULT_EPS, FIG15_FACTORS))

    for ra, sa, eps, factors in workloads:
        row = score_workload(
            datasets[ra], datasets[sa], eps, factors,
            args.kernel, args.workers,
        )
        rows.append(row)
        print(
            f"{ra}x{sa} eps={eps:g}: auto {row['auto_clock']:.3f}s "
            f"({row['chosen_method']}@{row['chosen_factor']:g})  "
            f"best {row['best_static']['clock']:.3f}s "
            f"({row['best_static']['method']}@"
            f"{row['best_static']['factor']:g})  "
            f"worst {row['worst_static']['clock']:.3f}s  "
            f"regret {row['regret_vs_best']:.3f}"
        )

    regrets = [row["regret_vs_best"] for row in rows]
    wins = sum(row["auto_clock"] <= row["best_static"]["clock"] * 1.0001
               for row in rows)
    summary = {
        "workloads": len(rows),
        "auto_matches_best": wins,
        "mean_regret_vs_best": round(sum(regrets) / len(regrets), 4),
        "max_regret_vs_best": round(max(regrets), 4),
        "always_beats_worst": all(row["beats_worst_static"] for row in rows),
    }
    print(
        f"\nauto matched best-static on {wins}/{len(rows)} workloads; "
        f"mean regret {summary['mean_regret_vs_best']:.3f}, "
        f"max {summary['max_regret_vs_best']:.3f}; "
        f"never loses to worst-static: {summary['always_beats_worst']}"
    )

    payload = {
        "description": (
            "cost-based planner vs the static plan grid on modelled clocks"
        ),
        "base_n": args.base_n,
        **bench_run_metadata(),
        "summary": summary,
        "runs": rows,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return 0 if summary["always_beats_worst"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
