"""The traced pass: per-layer metrics, taken from outside the program.

Every section exercises one group of layers on the workload's own inputs
and configuration, under spans recorded by the benchmark (``spans.py``);
nothing here feeds an end-to-end number.  Sections are time-boxed to a
share of ``--seconds`` with a floor of a few samples each.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import served
from check import cli_result_count
from common import child_env, collect, cpu_seconds, import_seconds, median, parallelism
from oneshot import make_op, run_checked
from workloads import Workload, join_config

#: share of ``--seconds`` each section may spend
SHARE = {"staged": 0.25, "probes": 0.05, "procs": 0.15, "planner": 0.10, "cli": 0.15, "serving": 0.25}
#: the mixed phase runs at least this long: its executing queries take ~0.5 s each
MIX_FLOOR_S = 3.0


class _SpannedStage:
    """A pipeline stage with a benchmark-side span around its ``run``."""

    def __init__(self, stage, log, op: int):
        self._stage, self._log, self._op = stage, log, op
        self.name, self.phase = stage.name, stage.phase

    def run(self, ctx) -> None:
        with self._log.span(self.name, op=self._op, phase=self.phase):
            self._stage.run(ctx)


def _resolve(w: Workload, r, s, seed: int, quick: bool, log=None, op=None):
    """(config, plan) of one op; an ``auto`` workload plans here, under a span."""
    from repro.joins.plan import distance_plan

    if w.kind != "auto":
        cfg = join_config(w, seed, quick)
        return cfg, distance_plan(cfg)
    from repro.planner.planner import plan_join

    if log is None:
        planned = plan_join(r, s, w.size(quick)[1], seed=seed)
    else:
        with log.span("plan_join", op=op):
            planned = plan_join(r, s, w.size(quick)[1], seed=seed)
    return planned.config, planned.plan


def _traced_op(w, r, s, seed, quick, log, op: int):
    """One op through ``run_staged_join`` with every stage under a span."""
    from repro.engine.metrics import JoinMetrics
    from repro.joins.pipeline import make_context, run_staged_join
    from repro.joins.plan import PlanInputs

    with log.span("op", op=op) as root:
        cfg, plan = _resolve(w, r, s, seed, quick, log, op)
        metrics = JoinMetrics(
            method=cfg.method, eps=cfg.eps, num_workers=cfg.num_workers,
            input_r=len(r), input_s=len(s),
        )
        ctx = make_context(cfg, num_workers=cfg.num_workers, metrics=metrics)
        stages = [_SpannedStage(st, log, op) for st in plan.stages(PlanInputs(r=r, s=s))]
        run_staged_join(stages, ctx)
        r_ids, s_ids = ctx.data["r_ids"], ctx.data["s_ids"]
    return root, r_ids, s_ids, metrics


_STAGE_GROUPS = {
    "pipeline.build_partition_s": ("build_partition",),
    "replication.assign_s": ("assign",),
    "shuffle.shuffle_s": ("shuffle", "shuffle_recovery"),
    "executor.local_join_s": ("origins", "local_join"),
    "pipeline.collect_s": ("collect", "join_accounting", "distinct"),
}


def staged(w, r, s, seed, quick, budget, checker, log) -> tuple[dict, float]:
    """Alternate plain and traced ops; stage spans, counts, tracing overhead."""
    plain_op = make_op(w, r, s, seed, quick)
    run_checked(plain_op, checker, first=True, what="traced pass warm-up")
    plain = []

    def pair_of_ops():
        wall = run_checked(plain_op, checker, first=False, what="plain op")
        if wall is not None:
            plain.append(wall)
        cpu0 = cpu_seconds()
        try:
            root, r_ids, s_ids, jm = _traced_op(w, r, s, seed, quick, log, len(plain))
        except Exception as exc:
            checker.error(f"traced op: {type(exc).__name__}: {exc}")
            return None
        cpu = cpu_seconds() - cpu0
        if not checker.pairs(r_ids, s_ids, "traced op"):
            return None
        counts = (jm.replicated_r + jm.replicated_s, jm.shuffle_records, jm.remote_bytes,
                  len(r_ids), jm.candidate_pairs)
        return root, cpu, counts

    cpu0, t0 = cpu_seconds(), time.perf_counter()
    rows = collect(pair_of_ops, budget, 3, checker)
    wall_over_cpu = (time.perf_counter() - t0) / max(cpu_seconds() - cpu0, 1e-9)
    roots = [row[0] for row in rows]
    counts = rows[0][2]
    if any(row[2] != counts for row in rows):
        checker.error(f"JoinMetrics counts differ between identical ops: {sorted({row[2] for row in rows})}")

    def per_op(names):
        return [
            sum(c["end"] - c["start"] for c in log.children(root["id"]) if c["name"] in names)
            for root in roots
        ]

    out = {name: median(per_op(names)) for name, names in _STAGE_GROUPS.items()}
    out["pipeline.attributed_share"] = median(
        [1.0 - log.self_time(root) / (root["end"] - root["start"]) for root in roots]
    )
    out["pipeline.cpu_s_per_join"] = median([row[1] for row in rows])
    out["replication.replicas"], out["shuffle.records"], out["shuffle.remote_bytes"] = counts[:3]
    out["local.results_per_candidate"] = counts[3] / max(counts[4], 1)
    plain_p50 = median(plain)
    out["bench.trace_overhead_share"] = median([root["end"] - root["start"] for root in roots]) / plain_p50 - 1.0
    out["bench.wall_over_cpu"] = wall_over_cpu
    return out, plain_p50


def probes(w, r, s, seed, quick, budget, checker, log) -> dict:
    """Direct calls into single layers, under a ``layer_probe`` parent span."""
    from repro.data.sampling import bernoulli_sample
    from repro.engine.kernels import get_kernel
    from repro.geometry.point import Side
    from repro.grid.grid import Grid
    from repro.grid.statistics import GridStatistics
    from repro.joins.pipeline import adaptive_lpt_costs, build_grid_assigner, lpt_partitioner

    cfg, _ = _resolve(w, r, s, seed, quick)
    grid = Grid(r.mbr().union(s.mbr()), cfg.eps, 1.0 if cfg.method == "eps_grid" else cfg.resolution_factor)
    kernel = get_kernel(cfg.local_kernel)

    def construction_and_assign():
        with log.span("layer_probe"):
            with log.span("grid.sample_stats"):
                stats = GridStatistics(grid)
                for side, ps, sd in ((Side.R, r, cfg.seed), (Side.S, s, cfg.seed + 1)):
                    sample = bernoulli_sample(ps, cfg.sample_rate, sd)
                    stats.add_points(sample.xs, sample.ys, side)
            with log.span("agreements.build_assigner"):
                assigner, pair_types = build_grid_assigner(
                    grid, cfg.method, stats, input_sizes=(len(r), len(s)),
                    duplicate_free=cfg.duplicate_free, marking_ordering=cfg.marking_ordering,
                )
            with log.span("engine.lpt"):
                costs = adaptive_lpt_costs(grid, stats, pair_types, getattr(assigner, "replicated", None))
                lpt_partitioner(costs, cfg.num_workers)
            with log.span("replication.assign_batch"):
                for side, ps in ((Side.R, r), (Side.S, s)):
                    assigner.assign_batch(ps.xs, ps.ys, side)
        return True

    def kernel_on_whole_input():
        # the whole input as one cell: the kernel's own rate, with no partitioning
        # or dispatch around it
        with log.span("layer_probe"):
            with log.span("local.kernel_whole"):
                r_ids, s_ids, _ = kernel(r.ids, r.xs, r.ys, s.ids, s.xs, s.ys, cfg.eps)
        return checker.pairs(r_ids, s_ids, "whole-input kernel") or None

    collect(construction_and_assign, budget, 2, checker)
    collect(kernel_on_whole_input, budget, 1, checker)  # one call can take seconds (plane_sweep)
    return {
        "grid.sample_stats_s": median(log.durations("grid.sample_stats")),
        "agreements.build_assigner_s": median(log.durations("agreements.build_assigner")),
        "engine.lpt_s": median(log.durations("engine.lpt")),
        "replication.assign_points_per_s": (len(r) + len(s)) / median(log.durations("replication.assign_batch")),
        "local.kernel_whole_s": median(log.durations("local.kernel_whole")),
    }


def procs(w, r, s, seed, quick, budget, checker, log, plain_p50: float) -> dict:
    """The same op on the ``processes`` backend; speedup over the serial p50."""
    op = make_op(w, r, s, seed, quick, execution_backend="processes", executor_workers=parallelism())
    run_checked(op, checker, first=False, what="processes warm-up")

    def one():
        with log.span("executor.procs_join"):
            return run_checked(op, checker, first=False, what="processes op")

    p50 = median(collect(one, budget, 2, checker))
    return {"executor.procs_join_p50_s": p50, "executor.procs_speedup": plain_p50 / p50}


def planner(w, r, s, seed, quick, budget, checker, log) -> dict:
    """``plan_join`` on the workload's inputs, then the chosen plan executed."""
    from repro.joins.distance_join import distance_join
    from repro.planner.planner import plan_join

    eps = w.size(quick)[1]

    def one():
        with log.span("planner.plan_join"):
            planned = plan_join(r, s, eps, seed=seed)
        with log.span("planner.execute"):
            result = distance_join(r, s, planned.config, plan=planned.plan)
        return len(planned.candidates) if checker.pairs(result.r_ids, result.s_ids, "planned op") else None

    candidates = collect(one, budget, 2, checker)
    return {
        "planner.plan_join_s": median(log.durations("planner.plan_join")),
        "planner.execute_s": median(log.durations("planner.execute")),
        "planner.candidates": candidates[-1],
    }


def cli(w, quick, budget, checker, log, tmp, files, plain_p50: float) -> dict:
    """``repro join`` as a subprocess on the workload's files; import and parse cost."""
    from repro.data.io import read_points_text

    env = child_env(tmp)
    command = [sys.executable, "-m", "repro.cli", "join", "--r", files[0], "--s", files[1],
               "--eps", repr(w.size(quick)[1]), "--quiet"]
    if w.kind == "auto":
        command += ["--tuning", "auto"]
    else:
        command += ["--method", w.method, "--kernel", w.kernel, "--workers", str(w.workers)]
    imports = []

    def one():
        imports.extend(import_seconds(tmp, "import repro.cli", 1))
        with log.span("data.read_text"):
            read_points_text(files[0])
            read_points_text(files[1])
        with log.span("cli.join") as row:
            done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=170)
        if done.returncode != 0:
            checker.error(f"cli join exited {done.returncode}: {done.stderr[-300:]}")
            return None
        if not checker.count_only(cli_result_count(done.stdout), "cli join"):
            return None
        return row["end"] - row["start"]

    one()  # the CLI's warm-up run
    join_p50 = median(collect(one, budget, 1 if quick else 2, checker))
    return {
        "cli.import_s": median(imports),
        "cli.join_p50_s": join_p50,
        "cli.overhead_s": join_p50 - plain_p50,
        "data.read_text_s": median(log.durations("data.read_text")),
    }


def serving(w, seed, quick, budget, checker, log, tmp, files) -> dict:
    """Phases against one server: ping, cold, warm-artifact, hit, closed-loop mix."""
    repeats = 200 if quick else 1000
    server, session, _ = served.setup_once(tmp, "trace", files, w, quick, seed, checker, sample=True, log=log)
    try:
        client = server.client
        out = {"serving.spawn_to_ping_s": server.spawn_to_ping_s, "serving.register_s": server.register_s}
        for _ in range(repeats):
            with log.span("serving.ping"):
                client.ping()
        out["serving.ping_p50_ms"] = 1e3 * median(log.durations("serving.ping"))

        def cold():
            key = session.fresh_seed()
            latency, resp = session.query(client, key, "cold", expect="cold")
            return None if latency is None else (latency, latency - resp["latency_seconds"], key)

        colds = collect(cold, 0.35 * budget, 4, checker)
        out["serving.cold_p50_s"] = median([c[0] for c in colds])
        out["serving.cold_client_minus_server_ms"] = 1e3 * median([c[1] for c in colds])
        resident = [c[2] for c in colds[-4:]]
        hot = resident[-1]

        warm = collect(
            lambda: session.query(client, hot, "warm_artifact", expect="warm_artifact", reuse_results=False)[0],
            0.15 * budget, 4, checker,
        )
        out["serving.warm_artifact_p50_s"] = median(warm)

        hits = [session.query(client, hot, "hit", expect="hit")[0] for _ in range(repeats)]
        hits = [h for h in hits if h is not None]
        out["serving.hit_p50_ms"] = 1e3 * median(hits)
        out["serving.hit_p99_ms"] = 1e3 * statistics.quantiles(hits, n=100)[98]

        mix_seconds = max(0.45 * budget, 1.0 if quick else MIX_FLOOR_S)
        out.update(_mix(server, session, seed, mix_seconds, hot, resident))
        return out
    finally:
        server.stop()


def _delta(after: dict, before: dict, *keys: str) -> float:
    return float(sum(after[k] - before[k] for k in keys))


def _mix(server, session, seed, seconds, hot, resident) -> dict:
    """Closed loop: each client sends its next query when the last one returned."""
    clients = parallelism()
    # per-query class, drawn from the run's seed: 0 hot repeat, 1 warm key, 2 fresh
    schedule = np.random.default_rng([seed, 0x6D6978]).choice(3, size=100_000, p=(0.80, 0.15, 0.05))
    before = server.client.stats()
    done, loaded_hits = [0] * clients, [[] for _ in range(clients)]
    deadline = time.perf_counter() + seconds

    def loop(slot: int) -> None:
        conn = server.connect()
        try:
            i = slot
            while time.perf_counter() < deadline:
                kind = schedule[i % len(schedule)]
                if kind == 0:
                    latency, resp = session.query(conn, hot, "mix")
                elif kind == 1:
                    latency, resp = session.query(conn, resident[i % len(resident)], "mix", reuse_results=False)
                else:
                    latency, resp = session.query(conn, session.fresh_seed(), "mix")
                if latency is not None:
                    done[slot] += 1
                    if resp["cached_result"]:
                        loaded_hits[slot].append(latency)
                i += clients
        finally:
            conn.close()

    started = time.perf_counter()
    threads = [threading.Thread(target=loop, args=(slot,)) for slot in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - started
    after = server.client.stats()
    art_b, art_a = before["artifact_cache"], after["artifact_cache"]
    res_b, res_a = before["result_cache"], after["result_cache"]
    adm_b, adm_a = before["admission"], after["admission"]
    under_load = [x for per in loaded_hits for x in per]
    return {
        "serving.mix_qps": sum(done) / elapsed,
        "serving.hit_under_load_p50_ms": 1e3 * median(under_load) if under_load else 0.0,
        "serving.artifact_hit_ratio": _delta(art_a, art_b, "hits") / max(_delta(art_a, art_b, "hits", "misses"), 1.0),
        "serving.result_hit_ratio": _delta(res_a, res_b, "hits") / max(_delta(res_a, res_b, "hits", "misses"), 1.0),
        "serving.artifact_bytes_per_entry": art_a["bytes"] / max(art_a["entries"], 1),
        "admission.coalesced": _delta(adm_a, adm_b, "coalesced"),
        "admission.rejected": _delta(adm_a, adm_b, "rejected"),
        "admission.peak_waiting": float(adm_a["peak_waiting"]),
    }


def traced_pass(w, r, s, seed, quick, seconds, checker, tmp, files, log) -> dict:
    """Every per-layer metric of one workload, by name."""
    out, plain_p50 = staged(w, r, s, seed, quick, SHARE["staged"] * seconds, checker, log)
    out.update(probes(w, r, s, seed, quick, SHARE["probes"] * seconds, checker, log))
    out.update(procs(w, r, s, seed, quick, SHARE["procs"] * seconds, checker, log, plain_p50))
    out.update(planner(w, r, s, seed, quick, SHARE["planner"] * seconds, checker, log))
    out.update(cli(w, quick, SHARE["cli"] * seconds, checker, log, tmp, files, plain_p50))
    out.update(serving(w, seed, quick, SHARE["serving"] * seconds, checker, log, tmp, files))
    out["bench.failed_share"] = checker.failed / max(checker.attempted, 1)
    return out
