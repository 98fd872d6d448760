"""Command-line interface.

The subcommands cover the everyday workflows:

* ``repro join`` -- run an epsilon-distance join over generated or
  text-file data with any method; print metrics (optionally the pairs).
* ``repro experiment`` -- regenerate one of the paper's tables/figures.
* ``repro explain`` -- the cost-based planner's view of a workload: the
  logical spec, every candidate physical plan with its predicted clocks,
  and the chosen plan, without running the join (see docs/PLANNER.md).
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
import math
import sys
from dataclasses import fields

from repro.core.wall_model import PRICEABLE_KERNELS
from repro.data.datasets import DEFAULT_BASE_N, load_dataset
from repro.data.io import read_points_text, write_points_text
from repro.engine.blockstore import SPILL_TIERS
from repro.engine.executor import BACKENDS
from repro.engine.faults import FaultPlan
from repro.engine.telemetry import (
    TRACE_FORMATS,
    Telemetry,
    configure as configure_logging,
    write_trace,
)
from repro.joins.api import ALL_METHODS, spatial_join
from repro.joins.distance_join import (
    GRID_METHODS,
    PLAN_FIELDS,
    JoinConfig,
    distance_join,
)
from repro.joins.generalized_join import METHODS as GENERALIZED_METHODS
from repro.joins.generalized_join import PARTITIONS
from repro.joins.local import LOCAL_KERNELS

_DATASETS = ("R1", "R2", "S1", "S2")


def _bounded(kind: type, low: int, strict: bool = False, high: int | None = None):
    """argparse type: a finite ``kind`` >= ``low`` (> when ``strict``) and
    <= ``high`` when given, rejected with one clear line (``nan`` and
    ``inf`` parse as floats).  Only for flags that no config owns: a
    config checks its own fields."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            expected = "an integer" if kind is int else "a number"
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {value}")
        if high is not None and not low <= value <= high:
            raise argparse.ArgumentTypeError(
                f"must be in [{low}, {high}], got {value}"
            )
        if value < low or (strict and value == low):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {value}"
            )
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its errors
    return parse


_positive_int = _bounded(int, 1)
_nonnegative_int = _bounded(int, 0)
#: also ``--eps``: the library takes an infinite eps as a cross product,
#: the command line refuses it
_positive_float = _bounded(float, 0, strict=True)
_port = _bounded(int, 1, high=65535)


def _megabytes(text: str):
    """argparse type: a size in megabytes, as bytes.  A value that is not
    finite passes through: the config that owns the size rejects it."""
    mb = float(text)
    return int(mb * 1e6) if math.isfinite(mb) else mb


def _fault_spec(text: str) -> FaultPlan:
    """argparse type: a ``--faults`` spec, parsed up front."""
    try:
        return FaultPlan.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _register_spec(text: str) -> tuple[str, str]:
    """argparse type: a ``NAME=SPEC`` dataset registration."""
    name, sep, spec = text.partition("=")
    if not sep or not name or not spec:
        raise argparse.ArgumentTypeError(
            f"expected NAME=SPEC (a codename like R1 or an id,x,y file), "
            f"got {text!r}"
        )
    return name, spec


def _load_input(spec: str, base_n: int):
    """A dataset codename (R1/R2/S1/S2) or a path to an ``id,x,y`` file."""
    if spec in _DATASETS:
        return load_dataset(spec, base_n=base_n)
    return read_points_text(spec, name=spec)


#: Join variants of the ``--join`` flag; all run through the staged
#: pipeline's executor, so ``--backend``, ``--faults`` and ``--spill``
#: compose with every one of them.
JOIN_VARIANTS = ("distance", "object", "intersection", "generalized")

#: ``--method`` values valid per ``--join`` variant.
_VARIANT_METHODS = {
    "distance": ALL_METHODS,
    "object": GRID_METHODS,
    "intersection": GRID_METHODS,
    "generalized": GENERALIZED_METHODS,
}

#: ``repro join`` flags that set the config field of their own name, beside
#: the plan dimensions (``PLAN_FIELDS``).  Like every flag that sets a
#: config field, each defaults to ``None``: only the flags given are passed
#: on, so the config's own default applies and its own check runs.
_FIELD_FLAGS = ("max_retries", "task_timeout", "spill", "spill_dir",
                "checkpoint_cells", "partition")


def _capture_pins(args: argparse.Namespace) -> dict:
    """Plan dimensions the user pinned explicitly on the command line."""
    return {
        dim: getattr(args, dim) for dim in PLAN_FIELDS
        if getattr(args, dim) is not None
    }


def _runs_grid(args: argparse.Namespace) -> bool:
    """Whether the point grid driver runs: an unset ``--method`` is
    ``JoinConfig``'s, and ``--tuning auto`` plans grid methods only."""
    return args.join == "distance" and (
        args.tuning == "auto" or args.method in (None, *GRID_METHODS)
    )


def _validate_join_args(args: argparse.Namespace) -> str | None:
    """Cross-flag rules no config owns; returns an error line or ``None``."""
    if args.tuning == "auto" and args.join != "distance":
        return ("--tuning auto plans the point distance join; "
                f"--join {args.join} has no planner (drop --tuning "
                f"or use --join distance)")
    methods = _VARIANT_METHODS[args.join]
    if args.method is not None and args.method not in methods:
        return (f"--join {args.join} supports methods {', '.join(methods)}; "
                f"got {args.method!r}")
    if args.join != "distance" and args.kernel not in (None, "plane_sweep"):
        return (f"--join {args.join} sweeps anchors with the plane_sweep "
                f"kernel only; --kernel {args.kernel} does not apply")
    staged = args.join != "distance" or _runs_grid(args)
    if args.spill not in (None, "none") and not staged:
        return (f"--spill applies to grid methods only "
                f"({', '.join(GRID_METHODS)})")
    if args.trace_format is not None and args.trace is None:
        return "--trace-format requires --trace"
    if not staged and (
        args.trace is not None or args.report or args.history is not None
    ):
        return (f"--trace/--report/--history cover the staged pipeline; "
                f"with --join distance they apply to grid methods only "
                f"({', '.join(GRID_METHODS)})")
    return None


def _fields_of(config: type, given: dict) -> dict:
    """The entries of ``given`` that ``config`` declares."""
    names = {f.name for f in fields(config)}
    return {name: value for name, value in given.items() if name in names}


def _join_config(args: argparse.Namespace):
    """The selected driver's config, built from the flags the user gave;
    ``None`` for the ``naive`` oracle, which has none.

    ``JoinConfig`` is built whichever driver runs, so it checks every
    plan and execution flag given, also one the chosen driver does not
    read.  A bad value raises a ``ValueError`` naming its field.
    """
    given = {PLAN_FIELDS[dim]: value for dim, value in args._pins.items()}
    for name in _FIELD_FLAGS:
        if getattr(args, name) is not None:
            given[name] = getattr(args, name)
    if args.faults is not None:
        given["faults"] = args.faults
    for name in ("telemetry", "history"):
        if getattr(args, f"_{name}", None) is not None:
            given[name] = getattr(args, f"_{name}")
    grid = _runs_grid(args)
    point = _fields_of(JoinConfig, given)
    if not grid:
        point.pop("method", None)  # another driver's method
    elif not args.show_pairs:
        point["collect_pairs"] = False  # no pair is printed: only count
    config = JoinConfig(eps=args.eps, **point)
    if grid:
        return config
    if args.join in ("object", "intersection"):
        from repro.joins.object_join import ObjectJoinConfig

        return ObjectJoinConfig(**_fields_of(ObjectJoinConfig, given))
    if args.join == "generalized":
        from repro.joins.generalized_join import GeneralizedJoinConfig

        return GeneralizedJoinConfig(
            eps=args.eps, **_fields_of(GeneralizedJoinConfig, given)
        )
    if args.method == "sedona":
        from repro.baselines.sedona_like import SedonaConfig

        return SedonaConfig(eps=args.eps, **_fields_of(SedonaConfig, given))
    return None


def _join_inputs(args: argparse.Namespace) -> tuple:
    """The two join inputs.  The object joins run over generated spatial
    objects (--r/--s name point inputs, which have no extent)."""
    if args.join in ("object", "intersection"):
        from repro.data.object_generators import random_boxes
        from repro.geometry.point import Side
        from repro.joins.object_join import ObjectSet

        return (ObjectSet(random_boxes(args.base_n, Side.R, seed=11), "R"),
                ObjectSet(random_boxes(args.base_n, Side.S, seed=22), "S"))
    return _load_input(args.r, args.base_n), _load_input(args.s, args.base_n)


def _run_join_variant(args: argparse.Namespace, config, r, s):
    """Run the selected join variant under its checked ``config``."""
    if args.join in ("object", "intersection"):
        from repro.joins.object_join import (
            object_distance_join,
            object_intersection_join,
        )

        options = {f.name: getattr(config, f.name) for f in fields(config)}
        if args.join == "object":
            return object_distance_join(r, s, args.eps, **options)
        return object_intersection_join(r, s, **options)
    if args.join == "generalized":
        from repro.joins.generalized_join import generalized_distance_join

        return generalized_distance_join(r, s, config)
    if isinstance(config, JoinConfig):
        return distance_join(r, s, config)
    if config is not None:
        from repro.baselines.sedona_like import sedona_join

        return sedona_join(r, s, config)
    return spatial_join(r, s, eps=args.eps, method=args.method)


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
    error = _validate_join_args(args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    if args.quiet:
        configure_logging("quiet")
    if args.trace is not None or args.report or args.history is not None:
        args._telemetry = Telemetry.create()
    if args.history is not None:
        from repro.obs import RunHistory

        args._history = RunHistory(args.history)
    try:
        config = _join_config(args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    r, s = _join_inputs(args)
    if args.tuning == "auto":
        from repro.planner import plan_join

        try:
            args._planned = plan_join(
                r, s, args.eps, pins=args._pins, seed=args.seed, base=config,
            )
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        config = args._planned.config
    result = _run_join_variant(args, config, r, s)
    _publish_planner_meta(args, result)
    unit = "objects" if args.join in ("object", "intersection") else "points"
    # sedona's config and naive's (none) name no method: theirs is the flag
    method = getattr(config, "method", args.method)
    print(f"inputs: {len(r):,} x {len(s):,} {unit}, eps={args.eps}, "
          f"join={args.join}, method={method}")
    planned = getattr(args, "_planned", None)
    if planned is not None:
        c = planned.chosen
        print(f"planner: chose method={c.method} factor="
              f"{c.resolution_factor:g} kernel={c.kernel} "
              f"workers={c.workers} (predicted {c.predicted_clock:.3f}s "
              f"{c.clock} clock, over {len(planned.candidates)} candidates)")
    m = result.metrics
    print(m.summary())
    print(f"selectivity: {m.selectivity:.3g}   candidates: {m.candidate_pairs:,}")
    if args.join != "distance" or isinstance(config, JoinConfig):
        kernel = getattr(config, "local_kernel", "plane_sweep")
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
        if config.spill != "none":
            print(
                f"block store [{config.spill}]: spilled={m.blocks_spilled} "
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


def _cmd_explain(args: argparse.Namespace) -> int:
    """Plan a workload and print the candidate table, without running it."""
    from repro.planner import plan_join

    r = _load_input(args.r, args.base_n)
    s = _load_input(args.s, args.base_n)
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


def _address_error(args: argparse.Namespace, *, client: bool) -> str | None:
    """The ``--socket`` / ``--port`` checks of ``serve`` and ``query``; a
    client must name exactly one address."""
    if client and (args.socket is None) == (args.port is None):
        return ("provide exactly one of --socket and --port (where the "
                "server listens)")
    if args.socket is not None and args.port is not None:
        return ("--socket and --port are mutually exclusive: the server "
                "listens on one unix socket or one localhost TCP port")
    return None


def _validate_query_args(args: argparse.Namespace) -> str | None:
    """Semantic validation of ``repro query``; error line or ``None``."""
    error = _address_error(args, client=True)
    if error is not None:
        return error
    wants_join = any(
        v is not None for v in (args.r, args.s, args.eps)
    )
    if wants_join and not (args.r and args.s and args.eps is not None):
        return "--r, --s and --eps must be given together for a join query"
    if not (wants_join or args.register or args.stats or args.stats_json
            or args.ping):
        return ("nothing to do: give a query (--r/--s/--eps), --register, "
                "--stats or --ping")
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
    error = _address_error(args, client=False)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    from repro.serving import JoinServer, ServerConfig

    # every serve flag but --socket is named after its ServerConfig field
    given = {f.name: getattr(args, f.name, None) for f in fields(ServerConfig)}
    given["socket_path"] = args.socket
    try:
        config = ServerConfig(
            **{name: value for name, value in given.items() if value is not None}
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    _keep_freed_memory_in_heap()
    if args.quiet:
        configure_logging("quiet")
    server = JoinServer(config)

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


def _connect(args: argparse.Namespace):
    """A client of the server ``--socket`` / ``--port`` names, or ``None``
    (the reason printed) when it cannot be reached."""
    from repro.serving import JoinClient

    try:
        return JoinClient(socket_path=args.socket, port=args.port, timeout=120.0)
    except (OSError, ValueError) as exc:
        print(f"cannot reach the server: {exc}", file=sys.stderr)
        return None


def _cmd_query(args: argparse.Namespace) -> int:
    error = _validate_query_args(args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    from repro.serving import ServerError

    client = _connect(args)
    if client is None:
        return 1
    try:
        if args.ping:
            pong = client.ping()
            print(f"server pid {pong['pid']} up {pong['uptime_seconds']:.1f}s "
                  f"(backend={pong['backend']})")
        for name, spec in args.register or ():
            entry = client.register(name, spec, base_n=args.base_n)
            print(f"registered {entry['name']}: {entry['n']:,} points "
                  f"(fingerprint {entry['fingerprint']})")
        if args.r is not None:
            # only the flags the user set travel with the query: the
            # server fills in its own defaults, and with ``tuning: auto``
            # its planner chooses what is left unpinned
            request = {
                dest: getattr(args, dest)
                for dest in ("method", "kernel", "workers", "seed")
                if getattr(args, dest) is not None
            }
            request["max_pairs"] = args.show_pairs
            if args.report:
                request["report"] = True
            if args.tuning == "auto":
                request["tuning"] = "auto"
            response = client.query(args.r, args.s, args.eps, **request)
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
    except (ServerError, ConnectionError, OSError) as exc:
        print(str(exc), file=sys.stderr)
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
                           "object distance/intersection joins or the "
                           "generalized (rectangulation) join")
    join.add_argument("--r", default="S1", help="dataset codename or id,x,y file")
    join.add_argument("--s", default="S2", help="dataset codename or id,x,y file")
    join.add_argument("--eps", type=_positive_float, default=0.012)
    join.add_argument("--method",
                      choices=sorted({*ALL_METHODS, *GENERALIZED_METHODS}),
                      default=None,
                      help="replication method (validity depends on "
                           f"--join; default {JoinConfig.method}, or "
                           "planner-chosen with --tuning auto)")
    join.add_argument("--partition", choices=PARTITIONS, default=None,
                      help="rectangulation of the generalized join")
    join.add_argument("--workers", type=int, default=None,
                      help="simulated workers (default "
                           f"{JoinConfig.num_workers}, or "
                           "planner-chosen with --tuning auto)")
    join.add_argument("--backend", choices=BACKENDS, default=None,
                      help="execution backend for the local-join phase "
                           "(grid methods only; default "
                           f"{JoinConfig.execution_backend})")
    join.add_argument("--kernel", choices=sorted(LOCAL_KERNELS),
                      default=None,
                      help="per-cell local join kernel (grid methods "
                           f"only; default {JoinConfig.local_kernel}, "
                           "or planner-chosen with --tuning auto)")
    join.add_argument("--resolution-factor", type=float,
                      default=None, metavar="K",
                      help="grid cell side in multiples of eps (grid "
                           "methods only; default "
                           f"{JoinConfig.resolution_factor}, or "
                           "planner-chosen with --tuning auto)")
    join.add_argument("--tuning", choices=("static", "auto"),
                      default="static",
                      help="'auto' runs the cost-based planner over every "
                           "choice flag left unset (method, kernel, "
                           "workers, resolution factor) and executes the "
                           "predicted-fastest plan; explicitly set flags "
                           "stay pinned (see docs/PLANNER.md)")
    join.add_argument("--seed", type=int, default=None,
                      help="seed of the planner's statistics sample "
                           "(--tuning auto)")
    join.add_argument("--faults", type=_fault_spec, default=None,
                      metavar="SPEC",
                      help="deterministic fault injection, e.g. "
                           "'kill:p=1:times=1,straggler:p=0.3:delay=0.1' "
                           "(see docs/FAULTS.md; grid methods only)")
    join.add_argument("--max-retries", type=int, default=None,
                      help="per-task retry budget for failed tasks and "
                           "shuffle fetches")
    join.add_argument("--task-timeout", type=float, default=None,
                      metavar="SECONDS",
                      help="straggler threshold: tasks running longer get a "
                           "speculative copy")
    join.add_argument("--spill", choices=SPILL_TIERS, default=None,
                      help="spill shuffle output as addressable blocks so "
                           "fetch faults re-pull only the missing blocks "
                           "(see docs/STORAGE.md; grid methods only)")
    join.add_argument("--spill-dir", default=None, metavar="DIR",
                      help="directory for spilled blocks and checkpoints "
                           "(requires --spill; default: a temp directory)")
    join.add_argument("--checkpoint-cells", action="store_true", default=None,
                      help="snapshot per-cell partial results so killed "
                           "task attempts salvage finished cells "
                           "(requires --spill)")
    join.add_argument("--base-n", type=_positive_int, default=DEFAULT_BASE_N,
                      help="cardinality for generated datasets")
    join.add_argument("--show-pairs", type=_nonnegative_int, default=0,
                      metavar="N",
                      help="print the first N result pairs (without it "
                           "the distance join only counts them)")
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
    join.add_argument("--quiet", action="store_true",
                      help="log nothing below CRITICAL; also drops the "
                           "trace-written notice")
    join.set_defaults(fn=_cmd_join)

    exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp.add_argument("name", nargs="?", help="experiment id (see --list)")
    exp.add_argument("--list", action="store_true", help="list experiment ids")
    exp.add_argument("--base-n", type=_positive_int, default=DEFAULT_BASE_N)
    exp.add_argument("--quick", action="store_true", help="shrink the sweeps")
    exp.set_defaults(fn=_cmd_experiment)

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
    explain.add_argument("--kernel", choices=sorted(PRICEABLE_KERNELS),
                         default=None, help="pin the local-join kernel")
    explain.add_argument("--workers", type=int, default=None,
                         help="pin the simulated worker count")
    explain.add_argument("--backend", choices=BACKENDS, default=None,
                         help="pin the execution backend")
    explain.add_argument("--resolution-factor", type=float,
                         default=None, metavar="K",
                         help="pin the grid resolution factor")
    explain.add_argument("--sample-rate", type=float, default=None,
                         help="Bernoulli rate of the statistics sample")
    explain.add_argument("--seed", type=int, default=None)
    explain.add_argument("--limit", type=_nonnegative_int, default=12,
                         metavar="N",
                         help="candidate rows to print (0 = all)")
    explain.add_argument("--base-n", type=_positive_int, default=DEFAULT_BASE_N)
    explain.set_defaults(fn=_cmd_explain)

    gen = sub.add_parser("generate", help="write a dataset as an id,x,y file")
    gen.add_argument("dataset", choices=_DATASETS)
    gen.add_argument("output")
    gen.add_argument("--base-n", type=_positive_int, default=DEFAULT_BASE_N)
    gen.set_defaults(fn=_cmd_generate)

    rep = sub.add_parser(
        "report", help="run all experiments and write a combined markdown report"
    )
    rep.add_argument("--output", default="reproduction_report.md")
    rep.add_argument("--base-n", type=_positive_int, default=DEFAULT_BASE_N)
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
    serve.add_argument("--port", type=int, default=None,
                       help="listen on this localhost TCP port instead of "
                            "a unix socket")
    serve.add_argument("--backend", choices=BACKENDS, default=None,
                       help="execution backend every query runs on")
    serve.add_argument("--workers", dest="default_workers", type=int,
                       default=None, metavar="WORKERS",
                       help="simulated workers of the queries that do not "
                            "set their own")
    serve.add_argument("--cache-budget-mb", dest="cache_budget_bytes",
                       type=_megabytes, default=None, metavar="MB",
                       help="artifact-cache byte budget (grids, agreement "
                            "graphs, samples, cell placements)")
    serve.add_argument("--result-cache-mb", dest="result_cache_bytes",
                       type=_megabytes, default=None, metavar="MB",
                       help="cross-query result-cache byte budget (the "
                            "server-lifetime block store)")
    serve.add_argument("--max-inflight", type=int, default=None,
                       help="queries executing concurrently")
    serve.add_argument("--max-queue", type=int, default=None,
                       help="queries allowed to wait for a slot before the "
                            "server rejects with an overload error")
    serve.add_argument("--history", dest="history_path", default=None,
                       metavar="PATH",
                       help="append every executed query's RunReport to "
                            "this JSONL run-history store (replayable via "
                            "repro.planner.accuracy.replay_reports; see "
                            "docs/OBSERVABILITY.md)")
    serve.add_argument("--metrics-port", type=int, default=None,
                       metavar="PORT",
                       help="serve Prometheus text-format metrics on this "
                            "localhost HTTP port (0 = ephemeral; GET "
                            "/metrics)")
    serve.add_argument("--slo-p95", dest="slo_p95_seconds", type=float,
                       default=None, metavar="SECONDS",
                       help="SLO watchdog: rolling-window p95 latency "
                            "threshold; breaches log an alert and set the "
                            "stats op's degraded flag")
    serve.add_argument("--slo-error-rate", type=float,
                       default=None, metavar="RATE",
                       help="SLO watchdog: rolling-window failed-query "
                            "rate threshold in (0, 1]")
    serve.add_argument("--quiet", action="store_true")
    serve.set_defaults(fn=_cmd_serve)

    query = sub.add_parser(
        "query",
        help="talk to a running join server (register/query/stats)",
    )
    query.add_argument("--socket", default=None, metavar="PATH",
                       help="the server's unix socket")
    query.add_argument("--port", type=_port, default=None,
                       help="the server's localhost TCP port")
    query.add_argument("--register", type=_register_spec, action="append",
                       metavar="NAME=SPEC",
                       help="register a dataset before querying; repeatable")
    query.add_argument("--base-n", type=_positive_int, default=DEFAULT_BASE_N)
    query.add_argument("--r", default=None,
                       help="registered dataset name of the R side")
    query.add_argument("--s", default=None,
                       help="registered dataset name of the S side")
    query.add_argument("--eps", type=_positive_float, default=None)
    query.add_argument("--method", choices=GRID_METHODS, default=None,
                       help="replication method (default "
                            f"{JoinConfig.method}; with --tuning "
                            "auto, an explicit value pins the planner)")
    query.add_argument("--kernel", choices=sorted(LOCAL_KERNELS),
                       default=None,
                       help="local-join kernel (default "
                            f"{JoinConfig.local_kernel}; with --tuning "
                            "auto, an explicit value pins the planner)")
    query.add_argument("--workers", type=_positive_int, default=None,
                       help="simulated workers (default: the server's "
                            "`repro serve --workers`; with --tuning auto, "
                            "an explicit value pins the planner)")
    query.add_argument("--tuning", choices=("static", "auto"),
                       default="static",
                       help="'auto' lets the server's cost-based planner "
                            "choose method/kernel/workers/resolution for "
                            "the query (cached per dataset fingerprints + "
                            "eps bucket); flags set explicitly stay pinned")
    query.add_argument("--seed", type=int, default=None,
                       help="seed of the statistics sample (default "
                            f"{JoinConfig.seed})")
    query.add_argument("--show-pairs", type=_nonnegative_int, default=0,
                       metavar="N",
                       help="fetch and print the first N result pairs")
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
    query.set_defaults(fn=_cmd_query)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
