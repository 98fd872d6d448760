"""The in-process one-shot join op and its timed window."""

from __future__ import annotations

import resource
import time

from common import cpu_seconds, import_seconds, normalised_seconds, quiet_host_factor, timed_window
from workloads import Workload, join_config

WARMUPS = 2
#: what a fresh process imports before it can run a workload's op
IMPORTS = "import repro.joins.distance_join, repro.planner.planner"


def make_op(w: Workload, r, s, seed: int, quick: bool, **overrides):
    """The workload's op as a zero-argument callable returning a JoinResult."""
    from repro.joins.distance_join import config_variants, distance_join

    if w.kind == "auto":
        from repro.planner.planner import plan_join

        _, eps = w.size(quick)

        def op():
            planned = plan_join(r, s, eps, seed=seed)
            cfg = config_variants(planned.config, **overrides) if overrides else planned.config
            # a plan is bound to its execution choices; only replay it unchanged
            return distance_join(r, s, cfg, plan=None if overrides else planned.plan)

        return op
    cfg = join_config(w, seed, quick, **overrides)
    return lambda: distance_join(r, s, cfg)


def run_checked(op, checker, first: bool, what: str):
    """Run one op; returns its wall, or ``None`` when it failed its check."""
    started = time.perf_counter()
    try:
        result = op()
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        checker.error(f"{what}: {type(exc).__name__}: {exc}")
        return None
    wall = time.perf_counter() - started
    check = checker.full if first else checker.pairs
    return wall if check(result.r_ids, result.s_ids, what) else None


def window(w: Workload, r, s, seed: int, quick: bool, seconds: float, checker, tmp: str) -> dict:
    """Warm up, then time ops for ``seconds``; every output is checked."""
    imports, quiet_imports = [], []
    for _ in range(1 if quick else 3):
        (wall,), factor = quiet_host_factor(lambda: import_seconds(tmp, IMPORTS, 1))
        imports.append(wall)
        quiet_imports.append(wall * factor)
    op = make_op(w, r, s, seed, quick)
    warm = [run_checked(op, checker, first=(i == 0), what=f"warm-up {i}") for i in range(WARMUPS)]
    warmup_s = sum(x for x in warm if x is not None)
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    walls, refs = timed_window(lambda: run_checked(op, checker, first=False, what="op"), seconds, checker)
    busy = time.perf_counter() - t0
    join_norm_s = normalised_seconds(walls, refs)
    # the first timed ops are the warm-ups' work again on the same stretch of host time:
    # what the warm-ups cost in ops, priced at the op's quiet-host wall
    warmup_ops = warmup_s / (sum(walls[:WARMUPS]) / WARMUPS)
    return {
        "samples": {"op_s": walls, "ref_s": refs},
        "join_norm_s": join_norm_s,
        "setup_s": min(quiet_imports) + warmup_ops * join_norm_s,
        "setup_parts": {"import_s": imports, "warmup_s": warmup_s, "warmup_ops": warmup_ops},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall_over_cpu": busy / max(cpu_seconds() - cpu0, 1e-9),
    }
