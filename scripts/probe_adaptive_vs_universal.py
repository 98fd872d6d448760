#!/usr/bin/env python3
"""Does adaptive replication beat the universal baseline on the measured clock?

    python3 scripts/probe_adaptive_vs_universal.py --n 1000000 --shape gaussian
    python3 scripts/probe_adaptive_vs_universal.py --n 1000000 --shape real_gauss
    python3 scripts/probe_adaptive_vs_universal.py --n 1000000 --shape uniform

One ``distance_join`` per method (``lpib``, ``diff``, ``uni_r``, ``uni_s``)
on the repo's own generators: serial backend, ``grid_hash``, 12 simulated
workers, factor 2; one warm-up join, then the best wall of ``--repeats``
with that run's per-stage walls, replicas and remote bytes -- the table in
ROADMAP.md "The finding this re-anchor turns on" -- read off
``JoinResult.metrics``, and beside them what wall time cannot show: the
join's system seconds and minor page faults (``getrusage`` around it; the
``local_join`` stage's own share where the program attributes it) and the
process's peak RSS so far.  ``--count-only`` joins with
``collect_pairs=False``; peak RSS only ever grows, so compare it with a
collecting run of another process, not of the next row.
"""

from __future__ import annotations

import argparse
import os
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.data import generators  # noqa: E402
from repro.joins.distance_join import JoinConfig, distance_join  # noqa: E402

#: shape -> (R generator, S generator, eps at n = 1M; scaled to keep n * eps^2)
SHAPES = {
    "gaussian": ("gaussian_clusters", "gaussian_clusters", 0.002),
    "real_gauss": ("real_like", "gaussian_clusters", 0.002),
    "uniform": ("uniform", "uniform", 0.00284),
}
METHODS = ("lpib", "diff", "uni_r", "uni_s")
STAGES = ("build_partition", "assign", "shuffle", "local_join")


def git_rev() -> str:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return rev.stdout.strip() if rev.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=1_000_000, help="points per side")
    parser.add_argument("--shape", choices=sorted(SHAPES), default="gaussian")
    parser.add_argument("--eps", type=float, help="default: the shape's eps at 1M, n * eps^2 kept")
    parser.add_argument("--repeats", type=int, default=2, help="timed joins per method")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--methods", nargs="+", choices=METHODS, default=list(METHODS))
    parser.add_argument("--count-only", action="store_true", help="collect_pairs=False")
    args = parser.parse_args()

    r_gen, s_gen, eps_1m = SHAPES[args.shape]
    eps = args.eps if args.eps is not None else eps_1m * (1_000_000 / args.n) ** 0.5
    r = getattr(generators, r_gen)(args.n, seed=args.seed, name="R")
    s = getattr(generators, s_gen)(args.n, seed=args.seed + 1, name="S")
    print(f"{args.shape}: {r_gen} x {s_gen}, n={args.n} a side, eps={eps:.6g}, seed={args.seed}; "
          f"serial/grid_hash, 12 workers, best of {args.repeats}, "
          f"{'count-only' if args.count_only else 'collecting'}; "
          f"cpu_count={os.cpu_count()} git_rev={git_rev()}")
    print(f"{'method':>6} {'wall_s':>7} " + " ".join(f"{name[:10]:>10}" for name in STAGES)
          + f" {'sys_s':>6} {'minflt':>8} {'lj_sys_s':>8} {'lj_minflt':>9} {'rss_MB':>6}"
          + f" {'replicas':>9} {'remote_MB':>9} {'pairs':>9} {'cells':>7}")

    def measured():
        """One join: its metrics, system seconds and minor faults."""
        before = resource.getrusage(resource.RUSAGE_SELF)
        metrics = distance_join(r, s, cfg).metrics
        after = resource.getrusage(resource.RUSAGE_SELF)
        return metrics, after.ru_stime - before.ru_stime, after.ru_minflt - before.ru_minflt

    for method in args.methods:
        # the join samples with seed 0, never the generators' seed: both draw
        # ``default_rng(seed).random(n)`` first, so a shared seed "samples" the
        # strip x < rate of a uniform set (ROADMAP's uniform rows were taken so)
        cfg = JoinConfig(
            eps=eps, method=method, local_kernel="grid_hash", num_workers=12,
            collect_pairs=not args.count_only,
        )
        distance_join(r, s, cfg)  # warm-up
        m, sys_s, minflt = min(
            (measured() for _ in range(args.repeats)), key=lambda run: run[0].wall_total
        )
        lj_sys_s = m.extra.get("sys_s.local_join")
        lj_minflt = m.extra.get("minflt.local_join")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"{method:>6} {m.wall_total:7.3f} "
              + " ".join(f"{m.stage_times.get(name, 0.0):10.3f}" for name in STAGES)
              + f" {sys_s:6.3f} {minflt:8d}"
              + (f" {lj_sys_s:8.3f} {int(lj_minflt):9d}" if lj_sys_s is not None else f" {'-':>8} {'-':>9}")
              + f" {rss_mb:6.0f}"
              + f" {m.replicated_total:9d} {m.remote_bytes / 1e6:9.1f}"
              + f" {m.results:9d} {m.grid_cells:7d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
