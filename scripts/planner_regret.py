#!/usr/bin/env python3
"""What does the planner's pick cost on the measured clock, against the best candidate?

    python3 scripts/planner_regret.py --shape auto_plan --seed 1
    python3 scripts/planner_regret.py --shape gaussian_1m --repeats 2 \\
        --methods lpib diff uni_r uni_s
    python3 scripts/planner_regret.py --shape real_gauss_1m --repeats 2 \\
        --methods lpib diff uni_r uni_s

Runs ``plan_join`` on the shape's inputs as a one-shot caller does (default
backend ``serial``, so the default objective), then *measures* every
``grid_hash`` candidate at the smallest and the largest simulated worker
count: one warm-up join, then the best caller-observed wall of
``--repeats`` round-robin rounds.  Prints every measured candidate beside both of its predicted
clocks, the chosen plan, the best measured plan, the **regret** (chosen wall
/ best wall) and the chosen plan's predicted-vs-measured wall per phase.

``auto_plan`` is the benchmark workload's inputs (``benchmarks/perf``;
``--seed`` is the run seed there, for the inputs and the plan alike); the 1M
shapes are ``scripts/probe_adaptive_vs_universal.py``'s inputs (``--seed``
seeds the generators, default 11 = ROADMAP's tables; plan and joins sample
with seed 0 -- a generator and the Bernoulli sample must not share a seed,
they would draw the same stream).  ``eps_grid`` at 1M a side is
20-25 s a join: leave it out with ``--methods`` unless it is what was chosen
(the chosen plan is always measured).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from probe_adaptive_vs_universal import SHAPES as PROBE_SHAPES, git_rev  # noqa: E402

from repro.data import generators  # noqa: E402
from repro.joins.distance_join import JoinConfig, distance_join  # noqa: E402
from repro.planner.accuracy import clock_errors_from_metrics  # noqa: E402
from repro.planner.planner import (  # noqa: E402
    DEFAULT_METHODS,
    DEFAULT_WORKER_CANDIDATES,
    plan_join,
)

SHAPES = {"auto_plan": None, "gaussian_1m": "gaussian", "real_gauss_1m": "real_gauss"}
KERNEL = "grid_hash"


def make_inputs(shape: str, seed: int | None):
    """``(r, s, eps, input seed, sampling seed)`` of a shape."""
    if shape == "auto_plan":
        sys.path.insert(0, str(ROOT / "benchmarks" / "perf"))
        from workloads import WORKLOADS, make_inputs as bench_inputs

        w = WORKLOADS["auto_plan"]
        seed = 1 if seed is None else seed
        r, s = bench_inputs(w, seed)
        return r, s, w.eps, seed, seed
    r_gen, s_gen, eps = PROBE_SHAPES[SHAPES[shape]]
    seed = 11 if seed is None else seed
    n = 1_000_000
    r = getattr(generators, r_gen)(n, seed=seed, name="R")
    s = getattr(generators, s_gen)(n, seed=seed + 1, name="S")
    return r, s, eps, seed, 0


def measure(r, s, configs: dict, repeats: int) -> dict:
    """``{key: (best wall, its metrics)}``: one warm-up join a config, then
    the best of ``repeats``.

    Round-robin -- every config once a round -- so a config's repeats are
    spread over the whole measurement and a busy second on a shared host
    costs each config one sample, not one config all of its samples.
    """
    best: dict = {}
    for round_ in range(repeats + 1):
        for key, cfg in configs.items():
            started = time.perf_counter()
            metrics = distance_join(r, s, cfg).metrics
            wall = time.perf_counter() - started
            if round_ and (key not in best or wall < best[key][0]):
                best[key] = (wall, metrics)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--shape", choices=sorted(SHAPES), default="auto_plan")
    parser.add_argument("--seed", type=int, help="default: 1 (auto_plan), 11 (the 1M shapes)")
    parser.add_argument("--repeats", type=int, default=5, help="timed joins per candidate")
    parser.add_argument("--methods", nargs="+", choices=DEFAULT_METHODS,
                        default=list(DEFAULT_METHODS), help="methods to measure")
    args = parser.parse_args()

    r, s, eps, seed, sampling_seed = make_inputs(args.shape, args.seed)
    started = time.perf_counter()
    planned = plan_join(r, s, eps, seed=sampling_seed)
    plan_s = time.perf_counter() - started
    chosen = planned.chosen
    print(f"{args.shape}: n={len(r)} x {len(s)}, eps={eps:g}, seed={seed}; serial/{KERNEL}, "
          f"workers {min(DEFAULT_WORKER_CANDIDATES)} and {max(DEFAULT_WORKER_CANDIDATES)}, "
          f"1 warm-up, best of {args.repeats}; cpu_count={os.cpu_count()} git_rev={git_rev()}")
    print(f"plan_join: {plan_s * 1e3:.1f} ms over {len(planned.candidates)} candidates, "
          f"objective = {planned.clock} clock")

    ends = (min(DEFAULT_WORKER_CANDIDATES), max(DEFAULT_WORKER_CANDIDATES))
    keys = [
        c.key() for c in planned.candidates
        if c.kernel == KERNEL and c.workers in ends and c.method in args.methods
    ]
    if chosen.key() not in keys:
        keys.append(chosen.key())
    by_key = {c.key(): c for c in planned.candidates}
    configs = {
        key: JoinConfig(
            eps=eps, method=key[0], resolution_factor=key[1], local_kernel=key[2],
            num_workers=key[3], seed=sampling_seed,
        )
        for key in keys
    }
    measured = measure(r, s, configs, args.repeats)
    walls = {key: wall for key, (wall, _) in measured.items()}
    metrics = {key: m for key, (_, m) in measured.items()}

    best_key = min(walls, key=walls.get)
    print(f"{'':>2} {'method':>9} {'k*eps':>6} {'kernel':>11} {'W':>3} "
          f"{'measured':>9} {'pred wall':>10} {'pred model':>10}")
    for key in sorted(walls, key=walls.get):
        c = by_key[key]
        mark = "*" if key == chosen.key() else ""
        print(f"{mark:>2} {c.method:>9} {c.resolution_factor:>6.1f} {c.kernel:>11} {c.workers:>3} "
              f"{walls[key] * 1e3:>7.1f}ms {c.wall_clock * 1e3:>8.1f}ms "
              f"{c.modelled_clock * 1e3:>8.1f}ms")

    def name(key):
        return f"{key[0]}@{key[1]:g}/{key[2]}/{key[3]}"

    print(f"chosen: {name(chosen.key())} measured {walls[chosen.key()] * 1e3:.1f} ms")
    print(f"best:   {name(best_key)} measured {walls[best_key] * 1e3:.1f} ms")
    print(f"regret: {walls[chosen.key()] / walls[best_key]:.3f}")
    print("chosen plan, predicted vs measured per phase:")
    for err in clock_errors_from_metrics(chosen.prediction, metrics[chosen.key()], planned.clock):
        print(f"  {err.phase:<13} pred {err.predicted * 1e3:8.2f} ms  "
              f"meas {err.measured * 1e3:8.2f} ms  err {err.relative_error * 100:+6.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
