"""Command-line interface.

Four subcommands cover the everyday workflows:

* ``repro join`` -- run an epsilon-distance join over generated or
  text-file data with any method; print metrics (optionally the pairs).
* ``repro experiment`` -- regenerate one of the paper's tables/figures.
* ``repro predict`` -- analytic cost predictions and a method
  recommendation for a workload, without running the join.
* ``repro explain`` -- the cost-based planner's view of a workload: the
  logical spec, every candidate physical plan with its predicted clocks,
  and the chosen plan (see docs/PLANNER.md).
* ``repro generate`` -- write one of the paper's datasets as a text file.
* ``repro serve`` -- start the resident join server (datasets stay
  loaded, construction artifacts and results are cached across queries;
  see docs/SERVING.md).
* ``repro query`` -- talk to a running server: register datasets, run
  joins, fetch stats, shut it down.

Installed as the ``repro`` console script; also runnable with
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.data.datasets import DEFAULT_BASE_N, load_dataset
from repro.data.io import read_points_text, write_points_text
from repro.engine.blockstore import SPILL_TIERS
from repro.engine.executor import BACKENDS
from repro.engine.faults import FaultPlan
from repro.engine.telemetry import (
    LOG_LEVELS,
    TRACE_FORMATS,
    Telemetry,
    configure as configure_logging,
    write_trace,
)
from repro.joins.api import ALL_METHODS, spatial_join
from repro.joins.distance_join import GRID_METHODS, JoinConfig, distance_join
from repro.joins.generalized_join import METHODS as GENERALIZED_METHODS
from repro.joins.generalized_join import PARTITIONS
from repro.joins.local import LOCAL_KERNELS

_DATASETS = ("R1", "R2", "S1", "S2")


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1, rejected with a clear message."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a float > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _fault_spec(text: str) -> FaultPlan:
    """argparse type: a ``--faults`` spec, parsed up front."""
    try:
        return FaultPlan.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _port(text: str) -> int:
    """argparse type: a TCP port in [1, 65535]."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if not (1 <= value <= 65535):
        raise argparse.ArgumentTypeError(
            f"port must be in [1, 65535], got {value}"
        )
    return value


def _metrics_port(text: str) -> int:
    """argparse type: a TCP port in [0, 65535] (0 = ephemeral)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if not (0 <= value <= 65535):
        raise argparse.ArgumentTypeError(
            f"port must be in [0, 65535], got {value}"
        )
    return value


def _register_spec(text: str) -> tuple[str, str]:
    """argparse type: a ``NAME=SPEC`` dataset registration."""
    name, sep, spec = text.partition("=")
    if not sep or not name or not spec:
        raise argparse.ArgumentTypeError(
            f"expected NAME=SPEC (a codename like R1 or an id,x,y file), "
            f"got {text!r}"
        )
    return name, spec


def _load_input(spec: str, base_n: int, payload: int):
    """A dataset codename (R1/R2/S1/S2) or a path to an ``id,x,y`` file."""
    if spec in _DATASETS:
        return load_dataset(spec, base_n=base_n, payload_bytes=payload)
    return read_points_text(spec, payload_bytes=payload, name=spec)


#: Join variants of the ``--join`` flag; all but ``spark-style`` run
#: through the staged pipeline's executor, so ``--backend``, ``--faults``
#: and ``--spill`` compose with every one of them.
JOIN_VARIANTS = ("distance", "object", "intersection", "generalized", "spark-style")

#: ``--method`` values valid per ``--join`` variant.
_VARIANT_METHODS = {
    "distance": ALL_METHODS,
    "object": GRID_METHODS,
    "intersection": GRID_METHODS,
    "generalized": GENERALIZED_METHODS,
    "spark-style": ("lpib", "diff", "uni_r", "uni_s"),
}


#: Static defaults of the plannable ``repro join`` choice flags.  Their
#: argparse defaults are ``None`` so ``--tuning auto`` can tell an
#: explicit pin from an untouched flag; static mode resolves them here.
_JOIN_STATIC_DEFAULTS = {
    "method": "lpib",
    "kernel": "plane_sweep",
    "workers": 12,
    "backend": "serial",
}


def _capture_pins(args: argparse.Namespace) -> dict:
    """Plan dimensions the user pinned explicitly on the command line."""
    pins = {}
    for dest, dim in (("method", "method"), ("kernel", "kernel"),
                      ("workers", "workers"), ("backend", "backend"),
                      ("resolution_factor", "resolution_factor")):
        value = getattr(args, dest, None)
        if value is not None:
            pins[dim] = value
    return pins


def _validate_join_args(args: argparse.Namespace) -> str | None:
    """Semantic cross-flag validation; returns an error line or ``None``."""
    if args.tuning == "auto":
        if args.join != "distance":
            return ("--tuning auto plans the point distance join; "
                    f"--join {args.join} has no planner (drop --tuning "
                    f"or use --join distance)")
        pinned_method = args._pins.get("method")
        if pinned_method is not None and pinned_method not in GRID_METHODS:
            return (f"--tuning auto plans the grid pipeline "
                    f"({', '.join(GRID_METHODS)}); --method {pinned_method} "
                    f"cannot be planned")
    methods = _VARIANT_METHODS[args.join]
    if args.method not in methods:
        return (f"--join {args.join} supports methods {', '.join(methods)}; "
                f"got {args.method!r}")
    if args.join in ("object", "intersection", "generalized"):
        if args.kernel != "plane_sweep":
            return (f"--join {args.join} sweeps anchors with the plane_sweep "
                    f"kernel only; --kernel {args.kernel} does not apply")
    if args.join == "spark-style":
        if args.backend != "serial":
            return ("--join spark-style runs the simulated RDD layer "
                    "serially; --backend does not apply")
        if args.faults is not None:
            return "--join spark-style does not support fault injection"
        if args.spill != "none":
            return "--join spark-style does not support --spill"
    if args.spill == "none":
        if args.spill_dir is not None:
            return "--spill-dir requires --spill memory|disk"
        if args.checkpoint_cells:
            return "--checkpoint-cells requires --spill memory|disk"
    if (args.join == "distance" and args.spill != "none"
            and args.method not in GRID_METHODS):
        return (f"--spill applies to grid methods only "
                f"({', '.join(GRID_METHODS)})")
    if args.backend != "cluster":
        for flag, value in (("--cluster-daemons", args.cluster_daemons),
                            ("--heartbeat-interval", args.heartbeat_interval),
                            ("--heartbeat-timeout", args.heartbeat_timeout)):
            if value is not None:
                return f"{flag} requires --backend cluster"
    if args.trace_format is not None and args.trace is None:
        return "--trace-format requires --trace"
    if args.quiet and args.log_level not in (None, "quiet"):
        return f"--quiet conflicts with --log-level {args.log_level}"
    if ((args.trace is not None or args.report or args.history is not None)
            and args.join == "distance" and args.method not in GRID_METHODS):
        return (f"--trace/--report/--history cover the staged pipeline; "
                f"with --join distance they apply to grid methods only "
                f"({', '.join(GRID_METHODS)})")
    if args.history is not None and args.join == "spark-style":
        return ("--history appends the staged pipeline's RunReport; "
                "--join spark-style does not run the staged pipeline")
    return None


def _execution_options(args: argparse.Namespace) -> dict:
    """The staged pipeline's execution surface, shared by every variant."""
    options = {
        "execution_backend": args.backend,
        "max_retries": args.max_retries,
    }
    if args.task_timeout is not None:
        options["task_timeout"] = args.task_timeout
    if args.cluster_daemons is not None:
        options["cluster_daemons"] = args.cluster_daemons
    if args.heartbeat_interval is not None:
        options["heartbeat_interval"] = args.heartbeat_interval
    if args.heartbeat_timeout is not None:
        options["heartbeat_timeout"] = args.heartbeat_timeout
    if args.faults is not None:
        options["faults"] = args.faults.with_seed(args.fault_seed)
    if args.spill != "none":
        options["spill"] = args.spill
        options["spill_dir"] = args.spill_dir
        options["checkpoint_cells"] = args.checkpoint_cells
    telemetry = getattr(args, "_telemetry", None)
    if telemetry is not None:
        options["telemetry"] = telemetry
    history = getattr(args, "_history", None)
    if history is not None:
        options["history"] = history
    return options


def _run_join_variant(args: argparse.Namespace):
    """Run the selected join variant; returns ``(result, n_r, n_s)``."""
    if args.join in ("object", "intersection"):
        # object joins run over generated spatial objects (--r/--s name
        # point inputs, which have no extent)
        from repro.data.object_generators import random_boxes
        from repro.geometry.point import Side
        from repro.joins.object_join import (
            ObjectSet,
            object_distance_join,
            object_intersection_join,
        )

        r = ObjectSet(random_boxes(args.base_n, Side.R, seed=11), "R")
        s = ObjectSet(random_boxes(args.base_n, Side.S, seed=22), "S")
        options = {"num_workers": args.workers, **_execution_options(args)}
        if args.join == "object":
            result = object_distance_join(r, s, args.eps, method=args.method,
                                          **options)
        else:
            result = object_intersection_join(r, s, method=args.method,
                                              **options)
        return result, len(r), len(s)
    r = _load_input(args.r, args.base_n, args.payload)
    s = _load_input(args.s, args.base_n, args.payload)
    if args.join == "generalized":
        from repro.joins.generalized_join import (
            GeneralizedJoinConfig,
            generalized_distance_join,
        )

        cfg = GeneralizedJoinConfig(
            eps=args.eps,
            partition=args.partition,
            method=args.method,
            num_workers=args.workers,
            **_execution_options(args),
        )
        return generalized_distance_join(r, s, cfg), len(r), len(s)
    if args.join == "spark-style":
        import tempfile

        from repro.engine.cluster import SimCluster
        from repro.joins.spark_style import spark_style_join

        with tempfile.TemporaryDirectory() as tmp:
            path_r = os.path.join(tmp, "r.txt")
            path_s = os.path.join(tmp, "s.txt")
            write_points_text(r, path_r)
            write_points_text(s, path_s)
            result = spark_style_join(
                path_r, path_s, r.mbr().union(s.mbr()), args.eps,
                SimCluster(args.workers), method=args.method,
                telemetry=getattr(args, "_telemetry", None),
            )
        return result, len(r), len(s)
    if args.join == "distance" and args.tuning == "auto":
        from repro.planner import plan_join

        planned = plan_join(
            r, s, args.eps, pins=args._pins, seed=args.seed,
            base=JoinConfig(eps=args.eps, **_execution_options(args)),
        )
        args._planned = planned
        chosen = planned.chosen
        # downstream summary lines print args.*; make them truthful
        args.method = chosen.method
        args.kernel = chosen.kernel
        args.workers = chosen.workers
        return distance_join(r, s, planned.config, planned.plan), len(r), len(s)
    options = {}
    if args.method not in ("naive",):
        options["num_workers"] = args.workers
    if args.method in GRID_METHODS:
        # the kernel choice exists only on the point grid driver; the
        # execution surface is shared by every staged driver
        options["local_kernel"] = args.kernel
        options.update(_execution_options(args))
    if args.resolution_factor is not None and args.method in GRID_METHODS:
        options["resolution_factor"] = args.resolution_factor
    return spatial_join(r, s, eps=args.eps, method=args.method, **options), len(r), len(s)


def _emit_telemetry(args: argparse.Namespace) -> None:
    """Write the trace file and/or print the run report after a join."""
    telemetry: Telemetry | None = getattr(args, "_telemetry", None)
    if telemetry is None:
        return
    if args.trace is not None:
        fmt = args.trace_format or "jsonl"
        write_trace(
            telemetry.tracer.spans(), args.trace, fmt=fmt,
            run_id=telemetry.run_id,
        )
        if not args.quiet:
            print(f"trace ({fmt}, {len(telemetry.tracer)} spans) "
                  f"written to {args.trace}")
    history = getattr(args, "_history", None)
    if history is not None:
        history.close()
        if not args.quiet:
            print(f"run report appended to {args.history}")
    if args.report:
        print(telemetry.report().render())


def _publish_planner_meta(args: argparse.Namespace, result) -> None:
    """Record the plan + predicted-vs-measured error for the run report."""
    planned = getattr(args, "_planned", None)
    telemetry: Telemetry | None = getattr(args, "_telemetry", None)
    if planned is None or telemetry is None:
        return
    from repro.planner import clock_errors_from_metrics

    meta = planned.run_meta()
    meta.update(candidates=len(planned.candidates), pins=dict(planned.pins))
    if hasattr(result, "metrics"):
        errors = clock_errors_from_metrics(
            planned.chosen.prediction, result.metrics, planned.clock
        )
        meta["errors"] = {e.phase: e.to_payload() for e in errors}
    telemetry.registry.set_meta("planner", meta)


def _cmd_join(args: argparse.Namespace) -> int:
    args._pins = _capture_pins(args)
    for dest, default in _JOIN_STATIC_DEFAULTS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    error = _validate_join_args(args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    level = "quiet" if args.quiet else args.log_level
    if level is not None:
        configure_logging(level)
    if args.trace is not None or args.report or args.history is not None:
        args._telemetry = Telemetry.create()
    if args.history is not None:
        from repro.obs import RunHistory

        args._history = RunHistory(args.history)
    result, n_r, n_s = _run_join_variant(args)
    _publish_planner_meta(args, result)
    unit = "objects" if args.join in ("object", "intersection") else "points"
    print(f"inputs: {n_r:,} x {n_s:,} {unit}, eps={args.eps}, "
          f"join={args.join}, method={args.method}")
    planned = getattr(args, "_planned", None)
    if planned is not None:
        c = planned.chosen
        print(f"planner: chose method={c.method} factor="
              f"{c.resolution_factor:g} kernel={c.kernel} "
              f"workers={c.workers} (predicted {c.predicted_clock:.3f}s "
              f"{c.clock} clock, over {len(planned.candidates)} candidates)")
    if args.join == "spark-style":
        sh = result.shuffle
        print(f"results: {len(result.pairs):,} pairs "
              f"({result.produced:,} produced before distinct)")
        print(f"shuffle: {sh.records:,} records, {sh.bytes / 1e6:.2f}MB "
              f"(remote {sh.remote_bytes / 1e6:.2f}MB)")
        if args.show_pairs:
            for rid, sid in sorted(result.pairs)[: args.show_pairs]:
                print(f"  ({rid}, {sid})")
        _emit_telemetry(args)
        return 0
    m = result.metrics
    print(m.summary())
    print(f"selectivity: {m.selectivity:.3g}   candidates: {m.candidate_pairs:,}")
    staged = args.join != "distance" or args.method in GRID_METHODS
    if staged:
        kernel = args.kernel if args.join == "distance" else "plane_sweep"
        print(
            f"local join [{m.execution_backend}/{kernel}]: "
            f"measured makespan {m.join_wall_makespan * 1000:.1f}ms "
            f"(modelled {m.join_time_model:.2f}s)"
        )
        if args.faults is not None or m.task_retries or m.speculative_wins:
            print(
                f"fault tolerance: attempts={m.task_attempts} "
                f"retries={m.task_retries} "
                f"speculative_wins={m.speculative_wins} "
                f"recovery {m.recovery_seconds * 1000:.1f}ms measured / "
                f"{m.recovery_time_model:.2f}s modelled"
            )
            if m.fallback_backend:
                print(f"  backend degraded to {m.fallback_backend!r}")
        if args.spill != "none":
            print(
                f"block store [{args.spill}]: spilled={m.blocks_spilled} "
                f"refetched={m.blocks_refetched} "
                f"salvaged_cells={m.cells_salvaged} "
                f"(saved {m.salvaged_time_model:.2f}s modelled)"
            )
    if args.show_pairs:
        for rid, sid in sorted(result.pairs_set())[: args.show_pairs]:
            print(f"  ({rid}, {sid})")
    _emit_telemetry(args)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    # imported lazily: pulls in the whole bench stack
    from repro.bench.experiments import ExperimentContext
    from repro.bench.harness import BenchScale
    from repro.bench.registry import available_experiments, run_experiment

    if args.list:
        print("\n".join(available_experiments()))
        return 0
    if not args.name:
        print("experiment name required (or --list)", file=sys.stderr)
        return 2
    scale = BenchScale(base_n=args.base_n, quick=args.quick)
    ctx = ExperimentContext(scale)
    try:
        text, _data = run_experiment(args.name, ctx)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(text)
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.planner import plan_join

    r = _load_input(args.r, args.base_n, args.payload)
    s = _load_input(args.s, args.base_n, args.payload)
    # the planner with all but the method pinned, on the paper's clock
    pins = {"resolution_factor": 2.0, "kernel": "plane_sweep", "workers": args.workers}
    planned = plan_join(
        r, s, args.eps, pins=pins, sample_rate=args.sample_rate, clock="modelled"
    )
    for c in sorted(planned.candidates, key=lambda c: c.prediction.exec_time):
        print(c.prediction.describe())
    print(f"\nrecommended method: {planned.chosen.method}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Plan a workload and print the candidate table, without running it."""
    from repro.planner import plan_join

    r = _load_input(args.r, args.base_n, args.payload)
    s = _load_input(args.s, args.base_n, args.payload)
    pins = _capture_pins(args)
    try:
        planned = plan_join(
            r, s, args.eps, pins=pins,
            sample_rate=args.sample_rate, seed=args.seed,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(planned.explain(limit=args.limit or None))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    ps = load_dataset(args.dataset, base_n=args.base_n)
    write_points_text(ps, args.output)
    print(f"wrote {len(ps):,} points of {args.dataset} to {args.output}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Run every registered experiment and write a combined markdown report."""
    import time

    from repro.bench.experiments import ExperimentContext
    from repro.bench.harness import BenchScale
    from repro.bench.registry import available_experiments, run_experiment

    scale = BenchScale(base_n=args.base_n, quick=args.quick)
    ctx = ExperimentContext(scale)
    names = args.only or available_experiments()
    sections = [
        "# Reproduction report",
        "",
        f"base_n = {scale.base_n}, quick = {scale.quick}",
        "",
    ]
    for name in names:
        start = time.perf_counter()
        try:
            text, _data = run_experiment(name, ctx)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        elapsed = time.perf_counter() - start
        print(f"[{name}] done in {elapsed:.1f}s")
        sections += [f"## {name}", "", "```", text, "```", ""]
    report = "\n".join(sections)
    with open(args.output, "w") as f:
        f.write(report)
    print(f"report written to {args.output}")
    return 0


#: One-shot-only ``repro join`` flags that trap with a targeted error
#: when combined with the serving commands (dest, flag string).
_ONE_SHOT_TRAPS = (
    ("faults", "--faults"),
    ("fault_seed", "--fault-seed"),
    ("spill", "--spill"),
    ("spill_dir", "--spill-dir"),
    ("checkpoint_cells", "--checkpoint-cells"),
    ("task_timeout", "--task-timeout"),
)


def _add_one_shot_traps(parser: argparse.ArgumentParser) -> None:
    """Accept (then reject with a clear message) one-shot-only flags."""
    for dest, flag in _ONE_SHOT_TRAPS:
        if dest in ("checkpoint_cells",):
            parser.add_argument(flag, dest=dest, action="store_true",
                                default=None, help=argparse.SUPPRESS)
        else:
            parser.add_argument(flag, dest=dest, default=None,
                                help=argparse.SUPPRESS)


def _one_shot_trap_error(args: argparse.Namespace, command: str) -> str | None:
    for dest, flag in _ONE_SHOT_TRAPS:
        if getattr(args, dest, None) is not None:
            return (f"{flag} is a one-shot `repro join` flag: fault "
                    f"injection, spill tiers and straggler policy do not "
                    f"apply to `repro {command}` (the server owns its "
                    f"execution policy; see docs/SERVING.md)")
    return None


def _validate_serve_args(args: argparse.Namespace) -> str | None:
    """Semantic validation of ``repro serve``; error line or ``None``."""
    trap = _one_shot_trap_error(args, "serve")
    if trap is not None:
        return trap
    if args.socket is not None and args.port is not None:
        return ("--socket and --port are mutually exclusive: the server "
                "listens on one unix socket or one localhost TCP port")
    if args.host != "127.0.0.1" and args.port is None:
        return "--host requires --port (unix sockets have no host)"
    return None


def _validate_query_args(args: argparse.Namespace) -> str | None:
    """Semantic validation of ``repro query``; error line or ``None``."""
    trap = _one_shot_trap_error(args, "query")
    if trap is not None:
        return trap
    if (args.socket is None) == (args.port is None):
        return ("provide exactly one of --socket and --port (where the "
                "server listens)")
    if args.host != "127.0.0.1" and args.port is None:
        return "--host requires --port (unix sockets have no host)"
    wants_join = any(
        v is not None for v in (args.r, args.s, args.eps)
    )
    if wants_join and not (args.r and args.s and args.eps is not None):
        return "--r, --s and --eps must be given together for a join query"
    if not (wants_join or args.register or args.stats or args.stats_json
            or args.ping or args.shutdown_server):
        return ("nothing to do: give a query (--r/--s/--eps), --register, "
                "--stats, --ping or --shutdown-server")
    return None


def _keep_freed_memory_in_heap() -> bool:
    """Allocator policy of the one process this repo owns: ``repro serve``.

    A join frees hundreds of 0.3-2 MB numpy temporaries; under glibc's
    dynamic thresholds each is mapped, zeroed on first touch and unmapped
    again (~2 k minor faults a cold 20k x 20k query).  With the mmap
    threshold at its 32 MiB ceiling and trimming at twice that they stay
    in the heap (~0 faults).  Process-wide, so never set at library
    import (docs/EXECUTION.md, "Memory").  False off glibc: a no-op.
    """
    import ctypes

    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version  # absent off glibc (musl, macOS)
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # <malloc.h>
    return bool(
        mallopt(m_mmap_threshold, 32 << 20)
        and mallopt(m_trim_threshold, 64 << 20)
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    error = _validate_serve_args(args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    _keep_freed_memory_in_heap()
    level = "quiet" if args.quiet else args.log_level
    if level is not None:
        configure_logging(level)
    from repro.serving import JoinServer, ServerConfig

    try:
        config = ServerConfig(
            socket_path=args.socket,
            port=args.port,
            host=args.host,
            cache_budget_bytes=int(args.cache_budget_mb * 1e6),
            result_cache_bytes=int(args.result_cache_mb * 1e6),
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            backend=args.backend,
            executor_workers=args.executor_workers,
            default_workers=args.workers,
            sweep_on_start=not args.no_sweep,
            history_path=args.history,
            history_max_bytes=int(args.history_max_mb * 1e6),
            metrics_port=args.metrics_port,
            slo_p95_seconds=args.slo_p95,
            slo_p99_seconds=args.slo_p99,
            slo_error_rate=args.slo_error_rate,
            slo_window_seconds=args.slo_window,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    server = JoinServer(config)
    for name, spec in args.register or ():
        server.datasets.register_spec(
            name, spec, base_n=args.base_n, payload_bytes=args.payload
        )
        if not args.quiet:
            print(f"registered {name} <- {spec}")

    import asyncio as _asyncio
    import signal as _signal

    async def _main():
        # a clean SIGTERM (systemd stop, docker stop, os.kill) drains
        # in-flight queries and closes history/trace files -- no partial
        # JSONL lines (add_signal_handler is loop-thread safe)
        loop = _asyncio.get_running_loop()
        try:
            loop.add_signal_handler(
                _signal.SIGTERM, server.request_shutdown
            )
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-unix event loops: ctrl-c still works
        await server.start()
        if not args.quiet:
            print(f"join server listening on {server.address} "
                  f"(backend={config.backend}); ctrl-c stops it")
        await server.serve_until_shutdown()

    try:
        _asyncio.run(_main())
    except KeyboardInterrupt:
        _asyncio.run(server.stop())
        if not args.quiet:
            print("interrupted; server stopped")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    error = _validate_query_args(args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    from repro.serving import JoinClient, ServerError

    try:
        client = JoinClient(
            socket_path=args.socket, host=args.host, port=args.port,
            timeout=args.timeout,
        )
    except (OSError, ValueError) as exc:
        print(f"cannot reach the server: {exc}", file=sys.stderr)
        return 1
    try:
        if args.ping:
            pong = client.ping()
            print(f"server pid {pong['pid']} up {pong['uptime_seconds']:.1f}s "
                  f"(backend={pong['backend']})")
        for name, spec in args.register or ():
            entry = client.register(
                name, spec, base_n=args.base_n, payload=args.payload
            )
            print(f"registered {entry['name']}: {entry['n']:,} points "
                  f"(fingerprint {entry['fingerprint']})")
        if args.r is not None:
            fields = {
                "seed": args.seed,
                "max_pairs": args.show_pairs,
                "report": args.report,
            }
            if args.tuning == "auto":
                # only explicitly pinned choices travel with the query;
                # the server's planner fills in the rest
                fields["tuning"] = "auto"
                for dest in ("method", "kernel", "workers"):
                    value = getattr(args, dest)
                    if value is not None:
                        fields[dest] = value
            else:
                fields["method"] = args.method or "lpib"
                fields["kernel"] = args.kernel or "plane_sweep"
                fields["workers"] = args.workers or 12
            if args.no_reuse_results:
                fields["reuse_results"] = False
            response = client.query(args.r, args.s, args.eps, **fields)
            m = response["metrics"]
            source = ("result cache" if response["cached_result"]
                      else "warm build" if response["warm_artifacts"]
                      else "cold build")
            print(f"results: {response['results']:,} pairs [{source}] "
                  f"in {response['latency_seconds'] * 1000:.1f}ms "
                  f"(method={m['method']}, eps={m['eps']})")
            planner = response.get("planner")
            if planner:
                chosen = planner.get("chosen", {})
                hit = "cached plan" if planner.get("cache_hit") else "planned"
                print(f"planner [{hit}]: "
                      + "  ".join(f"{k}={chosen[k]}"
                                  for k in ("method", "resolution_factor",
                                            "kernel", "workers")
                                  if k in chosen)
                      + (f"  (predicted "
                         f"{chosen['predicted_clock']:.3f}s)"
                         if "predicted_clock" in chosen else ""))
            for rid, sid in response["pairs"][: args.show_pairs or 0]:
                print(f"  ({rid}, {sid})")
            if args.report and response.get("report"):
                print(response["report"])
        if args.stats or args.stats_json:
            stats = client.stats()
            if args.stats_json:
                import json as _json

                print(_json.dumps(stats, indent=2, default=str))
            else:
                from repro.obs import render_stats

                print(render_stats(stats), end="")
        if args.shutdown_server:
            client.shutdown()
            print("server shutting down")
    except (ServerError, ConnectionError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    finally:
        client.close()
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Live dashboard over a running server (see repro.obs.top)."""
    if (args.socket is None) == (args.port is None):
        print("provide exactly one of --socket and --port (where the "
              "server listens)", file=sys.stderr)
        return 2
    if args.host != "127.0.0.1" and args.port is None:
        print("--host requires --port (unix sockets have no host)",
              file=sys.stderr)
        return 2
    from repro.obs import TopDashboard
    from repro.serving import JoinClient, ServerError

    try:
        client = JoinClient(
            socket_path=args.socket, host=args.host, port=args.port,
            timeout=args.timeout,
        )
    except (OSError, ValueError) as exc:
        print(f"cannot reach the server: {exc}", file=sys.stderr)
        return 1
    iterations = 1 if args.once else (args.iterations or None)
    dashboard = TopDashboard(
        client.stats,
        interval=args.interval,
        iterations=iterations,
        clear=not (args.no_clear or args.once),
    )
    try:
        dashboard.run()
    except (ServerError, ConnectionError, OSError) as exc:
        print(f"lost the server: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel spatial joins with adaptive replication (EDBT 2025 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    join = sub.add_parser("join", help="run a spatial join")
    join.add_argument("--join", choices=JOIN_VARIANTS, default="distance",
                      dest="join",
                      help="join variant: the point distance join, the "
                           "object distance/intersection joins, the "
                           "generalized (rectangulation) join or the "
                           "literal RDD pipeline")
    join.add_argument("--r", default="S1", help="dataset codename or id,x,y file")
    join.add_argument("--s", default="S2", help="dataset codename or id,x,y file")
    join.add_argument("--eps", type=float, default=0.012)
    join.add_argument("--method",
                      choices=sorted({*ALL_METHODS, *GENERALIZED_METHODS}),
                      default=None,
                      help="replication method (validity depends on --join; "
                           "default lpib, or planner-chosen with "
                           "--tuning auto)")
    join.add_argument("--partition", choices=PARTITIONS, default="quadtree",
                      help="rectangulation of the generalized join")
    join.add_argument("--workers", type=_positive_int, default=None,
                      help="simulated workers (default 12, or "
                           "planner-chosen with --tuning auto)")
    join.add_argument("--backend", choices=BACKENDS, default=None,
                      help="execution backend for the local-join phase "
                           "(grid methods only; default serial)")
    join.add_argument("--kernel", choices=sorted(LOCAL_KERNELS),
                      default=None,
                      help="per-cell local join kernel (grid methods only; "
                           "default plane_sweep, or planner-chosen with "
                           "--tuning auto)")
    join.add_argument("--resolution-factor", type=_positive_float,
                      default=None, metavar="K",
                      help="grid cell side in multiples of eps (grid "
                           "methods only; default 2.0, or planner-chosen "
                           "with --tuning auto)")
    join.add_argument("--tuning", choices=("static", "auto"),
                      default="static",
                      help="'auto' runs the cost-based planner over every "
                           "choice flag left unset (method, kernel, "
                           "workers, resolution factor) and executes the "
                           "predicted-fastest plan; explicitly set flags "
                           "stay pinned (see docs/PLANNER.md)")
    join.add_argument("--seed", type=int, default=0,
                      help="seed of the planner's statistics sample "
                           "(--tuning auto)")
    join.add_argument("--faults", type=_fault_spec, default=None,
                      metavar="SPEC",
                      help="deterministic fault injection, e.g. "
                           "'kill:p=1:times=1,straggler:p=0.3:delay=0.1' "
                           "(see docs/FAULTS.md; grid methods only)")
    join.add_argument("--fault-seed", type=int, default=0,
                      help="seed of the fault plan's decision hash")
    join.add_argument("--max-retries", type=_nonnegative_int, default=2,
                      help="per-task retry budget for failed tasks and "
                           "shuffle fetches")
    join.add_argument("--task-timeout", type=_positive_float, default=None,
                      metavar="SECONDS",
                      help="straggler threshold: tasks running longer get a "
                           "speculative copy")
    join.add_argument("--spill", choices=SPILL_TIERS, default="none",
                      help="spill shuffle output as addressable blocks so "
                           "fetch faults re-pull only the missing blocks "
                           "(see docs/STORAGE.md; grid methods only)")
    join.add_argument("--spill-dir", default=None, metavar="DIR",
                      help="directory for spilled blocks and checkpoints "
                           "(requires --spill; default: a temp directory)")
    join.add_argument("--checkpoint-cells", action="store_true",
                      help="snapshot per-cell partial results so killed "
                           "task attempts salvage finished cells "
                           "(requires --spill)")
    join.add_argument("--cluster-daemons", type=_positive_int, default=None,
                      metavar="N",
                      help="worker daemons of the cluster backend "
                           "(requires --backend cluster; default: one per "
                           "CPU, at most one per task)")
    join.add_argument("--heartbeat-interval", type=_positive_float,
                      default=None, metavar="SECONDS",
                      help="seconds between cluster daemon liveness beats "
                           "(requires --backend cluster)")
    join.add_argument("--heartbeat-timeout", type=_positive_float,
                      default=None, metavar="SECONDS",
                      help="heartbeat silence after which a cluster daemon "
                           "is declared lost and its tasks are re-run "
                           "(requires --backend cluster)")
    join.add_argument("--base-n", type=int, default=DEFAULT_BASE_N,
                      help="cardinality for generated datasets")
    join.add_argument("--payload", type=int, default=0, help="payload bytes per tuple")
    join.add_argument("--show-pairs", type=int, default=0, metavar="N",
                      help="print the first N result pairs")
    join.add_argument("--trace", default=None, metavar="PATH",
                      help="record a span trace of the run and write it to "
                           "PATH (see docs/OBSERVABILITY.md)")
    join.add_argument("--trace-format", choices=TRACE_FORMATS, default=None,
                      help="trace file format: 'jsonl' (default) or "
                           "'chrome' (open in chrome://tracing / Perfetto)")
    join.add_argument("--report", action="store_true",
                      help="print a Spark-UI-style run report (stages, "
                           "worker skew, recovery timeline, shuffle matrix)")
    join.add_argument("--history", default=None, metavar="PATH",
                      help="append this run's RunReport to a JSONL "
                           "run-history store (accumulates across runs; "
                           "see docs/OBSERVABILITY.md)")
    join.add_argument("--log-level", choices=LOG_LEVELS, default=None,
                      help="configure the 'repro' structured logger "
                           "('quiet' silences warnings)")
    join.add_argument("--quiet", action="store_true",
                      help="shorthand for --log-level quiet; also drops "
                           "the trace-written notice")
    join.set_defaults(fn=_cmd_join)

    exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp.add_argument("name", nargs="?", help="experiment id (see --list)")
    exp.add_argument("--list", action="store_true", help="list experiment ids")
    exp.add_argument("--base-n", type=int, default=DEFAULT_BASE_N)
    exp.add_argument("--quick", action="store_true", help="shrink the sweeps")
    exp.set_defaults(fn=_cmd_experiment)

    pred = sub.add_parser("predict", help="cost predictions + method recommendation")
    pred.add_argument("--r", default="S1")
    pred.add_argument("--s", default="S2")
    pred.add_argument("--eps", type=float, default=0.012)
    pred.add_argument("--sample-rate", type=float, default=0.03)
    pred.add_argument("--workers", type=_positive_int, default=12)
    pred.add_argument("--base-n", type=int, default=DEFAULT_BASE_N)
    pred.add_argument("--payload", type=int, default=0)
    pred.set_defaults(fn=_cmd_predict)

    explain = sub.add_parser(
        "explain",
        help="cost-based plan for a workload: logical spec, candidate "
             "table with predicted clocks, chosen physical plan",
    )
    explain.add_argument("--r", default="S1",
                         help="dataset codename or id,x,y file")
    explain.add_argument("--s", default="S2",
                         help="dataset codename or id,x,y file")
    explain.add_argument("--eps", type=_positive_float, default=0.012)
    explain.add_argument("--method", choices=GRID_METHODS, default=None,
                         help="pin the replication method instead of "
                              "searching it")
    explain.add_argument("--kernel", choices=sorted(LOCAL_KERNELS),
                         default=None, help="pin the local-join kernel")
    explain.add_argument("--workers", type=_positive_int, default=None,
                         help="pin the simulated worker count")
    explain.add_argument("--backend", choices=BACKENDS, default=None,
                         help="pin the execution backend")
    explain.add_argument("--resolution-factor", type=_positive_float,
                         default=None, metavar="K",
                         help="pin the grid resolution factor")
    explain.add_argument("--sample-rate", type=_positive_float, default=0.03,
                         help="Bernoulli rate of the statistics sample")
    explain.add_argument("--seed", type=int, default=0)
    explain.add_argument("--limit", type=_nonnegative_int, default=12,
                         metavar="N",
                         help="candidate rows to print (0 = all)")
    explain.add_argument("--base-n", type=int, default=DEFAULT_BASE_N)
    explain.add_argument("--payload", type=int, default=0)
    explain.set_defaults(fn=_cmd_explain)

    gen = sub.add_parser("generate", help="write a dataset as an id,x,y file")
    gen.add_argument("dataset", choices=_DATASETS)
    gen.add_argument("output")
    gen.add_argument("--base-n", type=int, default=DEFAULT_BASE_N)
    gen.set_defaults(fn=_cmd_generate)

    rep = sub.add_parser(
        "report", help="run all experiments and write a combined markdown report"
    )
    rep.add_argument("--output", default="reproduction_report.md")
    rep.add_argument("--base-n", type=int, default=DEFAULT_BASE_N)
    rep.add_argument("--quick", action="store_true")
    rep.add_argument("--only", nargs="*", help="experiment ids to include")
    rep.set_defaults(fn=_cmd_report)

    serve = sub.add_parser(
        "serve",
        help="start the resident join server (see docs/SERVING.md)",
    )
    serve.add_argument("--socket", default=None, metavar="PATH",
                       help="unix socket to listen on (default: a "
                            "pid-stamped socket in the server's state "
                            "directory, printed at startup)")
    serve.add_argument("--port", type=_port, default=None,
                       help="listen on this localhost TCP port instead of "
                            "a unix socket")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address for --port (default 127.0.0.1)")
    serve.add_argument("--backend", choices=BACKENDS,
                       default="serial",
                       help="execution backend every query runs on "
                            "(cluster forks a daemon fleet per query; its "
                            "daemon health feeds the stats op and the "
                            "metrics exporter)")
    serve.add_argument("--executor-workers", type=_positive_int,
                       default=None, metavar="N",
                       help="OS-level worker cap of the parallel backends")
    serve.add_argument("--workers", type=_positive_int, default=12,
                       help="default simulated workers for queries that do "
                            "not set their own")
    serve.add_argument("--cache-budget-mb", type=_positive_float,
                       default=256.0, metavar="MB",
                       help="artifact-cache byte budget (grids, agreement "
                            "graphs, samples, partitioner placements)")
    serve.add_argument("--result-cache-mb", type=_positive_float,
                       default=64.0, metavar="MB",
                       help="cross-query result-cache byte budget (the "
                            "server-lifetime block store)")
    serve.add_argument("--max-inflight", type=_positive_int, default=2,
                       help="queries executing concurrently")
    serve.add_argument("--max-queue", type=_nonnegative_int, default=16,
                       help="queries allowed to wait for a slot before the "
                            "server rejects with an overload error")
    serve.add_argument("--register", type=_register_spec, action="append",
                       metavar="NAME=SPEC",
                       help="pre-register a dataset at startup (codename "
                            "like R1 or an id,x,y file); repeatable")
    serve.add_argument("--base-n", type=int, default=DEFAULT_BASE_N,
                       help="cardinality for pre-registered codenames")
    serve.add_argument("--payload", type=int, default=0,
                       help="payload bytes per tuple for pre-registered "
                            "datasets")
    serve.add_argument("--no-sweep", action="store_true",
                       help="skip the startup hygiene sweep of stale "
                            "server state dirs and sockets")
    serve.add_argument("--history", default=None, metavar="PATH",
                       help="append every executed query's RunReport to "
                            "this JSONL run-history store (replayable via "
                            "repro.planner.accuracy.replay_reports; see "
                            "docs/OBSERVABILITY.md)")
    serve.add_argument("--history-max-mb", type=_positive_float,
                       default=64.0, metavar="MB",
                       help="rotate the history file past this size "
                            "(two rotated generations are retained)")
    serve.add_argument("--metrics-port", type=_metrics_port, default=None,
                       metavar="PORT",
                       help="serve Prometheus text-format metrics on this "
                            "localhost HTTP port (0 = ephemeral; GET "
                            "/metrics)")
    serve.add_argument("--slo-p95", type=_positive_float, default=None,
                       metavar="SECONDS",
                       help="SLO watchdog: rolling-window p95 latency "
                            "threshold; breaches log an alert and set the "
                            "stats op's degraded flag")
    serve.add_argument("--slo-p99", type=_positive_float, default=None,
                       metavar="SECONDS",
                       help="SLO watchdog: rolling-window p99 latency "
                            "threshold")
    serve.add_argument("--slo-error-rate", type=_positive_float,
                       default=None, metavar="RATE",
                       help="SLO watchdog: rolling-window failed-query "
                            "rate threshold in (0, 1]")
    serve.add_argument("--slo-window", type=_positive_float, default=300.0,
                       metavar="SECONDS",
                       help="SLO watchdog rolling-window length")
    serve.add_argument("--log-level", choices=LOG_LEVELS, default=None)
    serve.add_argument("--quiet", action="store_true")
    _add_one_shot_traps(serve)
    serve.set_defaults(fn=_cmd_serve)

    query = sub.add_parser(
        "query",
        help="talk to a running join server (register/query/stats)",
    )
    query.add_argument("--socket", default=None, metavar="PATH",
                       help="the server's unix socket")
    query.add_argument("--port", type=_port, default=None,
                       help="the server's localhost TCP port")
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument("--timeout", type=_positive_float, default=120.0,
                       help="client-side response timeout in seconds")
    query.add_argument("--register", type=_register_spec, action="append",
                       metavar="NAME=SPEC",
                       help="register a dataset before querying; repeatable")
    query.add_argument("--base-n", type=int, default=DEFAULT_BASE_N)
    query.add_argument("--payload", type=int, default=0)
    query.add_argument("--r", default=None,
                       help="registered dataset name of the R side")
    query.add_argument("--s", default=None,
                       help="registered dataset name of the S side")
    query.add_argument("--eps", type=_positive_float, default=None)
    query.add_argument("--method", choices=GRID_METHODS, default=None,
                       help="replication method (default lpib; with "
                            "--tuning auto, an explicit value pins the "
                            "planner)")
    query.add_argument("--kernel", choices=sorted(LOCAL_KERNELS),
                       default=None,
                       help="local-join kernel (default plane_sweep; with "
                            "--tuning auto, an explicit value pins the "
                            "planner)")
    query.add_argument("--workers", type=_positive_int, default=None,
                       help="simulated workers (default 12; with --tuning "
                            "auto, an explicit value pins the planner)")
    query.add_argument("--tuning", choices=("static", "auto"),
                       default="static",
                       help="'auto' lets the server's cost-based planner "
                            "choose method/kernel/workers/resolution for "
                            "the query (cached per dataset fingerprints + "
                            "eps bucket); flags set explicitly stay pinned")
    query.add_argument("--seed", type=int, default=0)
    query.add_argument("--show-pairs", type=_nonnegative_int, default=0,
                       metavar="N",
                       help="fetch and print the first N result pairs")
    query.add_argument("--no-reuse-results", action="store_true",
                       help="skip the server's result cache (the build "
                            "artifact cache still applies)")
    query.add_argument("--report", action="store_true",
                       help="print the server-rendered run report")
    query.add_argument("--stats", action="store_true",
                       help="print the server's statistics as a rendered "
                            "dashboard (latency percentiles, cache hit "
                            "rates, planner error, SLO verdict)")
    query.add_argument("--stats-json", action="store_true",
                       help="with --stats: print the raw JSON payload "
                            "instead of the rendered dashboard")
    query.add_argument("--ping", action="store_true")
    query.add_argument("--shutdown-server", action="store_true",
                       help="ask the server to shut down")
    _add_one_shot_traps(query)
    query.set_defaults(fn=_cmd_query)

    top = sub.add_parser(
        "top",
        help="live terminal dashboard over a running join server "
             "(latency percentiles, cache hit rates, queue depth, "
             "daemon liveness; polls the stats op)",
    )
    top.add_argument("--socket", default=None, metavar="PATH",
                     help="the server's unix socket")
    top.add_argument("--port", type=_port, default=None,
                     help="the server's localhost TCP port")
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--timeout", type=_positive_float, default=10.0,
                     help="client-side response timeout in seconds")
    top.add_argument("--interval", type=_positive_float, default=2.0,
                     metavar="SECONDS",
                     help="seconds between polls")
    top.add_argument("--iterations", type=_nonnegative_int, default=0,
                     metavar="N",
                     help="frames to render before exiting (0 = loop "
                          "until ctrl-c)")
    top.add_argument("--once", action="store_true",
                     help="render one frame and exit (no screen clears)")
    top.add_argument("--no-clear", action="store_true",
                     help="scroll frames instead of clearing the screen")
    top.set_defaults(fn=_cmd_top)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
