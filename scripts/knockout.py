"""The mechanism audit as a knockout run, judged by contract tests.

Every mechanism the program carries -- a config field, a CLI flag, a wire
op or query field, a backend, a cache, a driver -- must be justified by a
contract test that fails without it or a benchmark that measures it.
For each entry of :data:`ENTRIES` this script exports a commit with
``git archive`` into a temporary directory, applies the entry's one edit
(its *stub*), runs every contract test with ``pytest -x`` under a
timeout, restores the file, and prints one row::

    | id | kind | first failing contract test, `none` or `timeout` | verdict |

A *contract* test checks what a user of the program can see: the driver
goldens, the oracle and property tests, the executor-equivalence and
count-only matrices, the fault identity matrix, and the CLI and served
end-to-end tests.  :data:`TESTS` classifies every test module once; the
rest are *unit* tests, which check one mechanism from the inside and so
fail by construction when it is stubbed: they never decide a verdict.
Nor do the wall-bound perf guards (:data:`WALL_BOUND`), which fail under
load whatever is stubbed.

The stubs, by kind:

* ``field``: the field reads its default whatever a caller passed (a
  descriptor); only the config's own checks see the value passed, so a
  test of those checks does not count.  A field without a default reads
  ``None``.
* ``query``: the server ignores the wire field, so its default applies
  (a join field is still checked by the ``JoinConfig`` it builds).
* ``flag``: a flag that sets no config field is removed from its
  command; the code reading it sees the flag's default.  A flag that
  sets a field shares that field's row.
* ``cache``: every lookup misses.
* ``op``, ``backend``, ``driver``, ``path``: calling it raises -- or, for
  a path that replaces a general one (a count-only shortcut), the
  general one runs instead.

An entry whose edit does not match exactly once stops the sweep and
names the entry.  An entry in :data:`DELETED` names a mechanism that is
gone: on a tree without it (its edit matches nothing, or the server no
longer declares the query field) the row prints ``deleted`` without
running.  A ``none`` row that stays is named in :data:`KEPT` with the
reason -- a benchmark that runs it or a measured A/B, safety, a
deployment setting (a path, a memory budget), or a caller outside the
tests; any other ``none`` row reads ``delete``.

Usage, from the repo root::

    python scripts/knockout.py [--rev REV] [--only ID ...] [--timeout S]
    python scripts/knockout.py --check     # every edit applies, no tests

The working tree is never written to, no test is edited, and the copy is
deleted afterwards.  A full sweep takes about 25 minutes on 2 vCPUs (a
``none`` row runs every contract test, about 45 s); run nothing else
meanwhile, since a loaded host can fail an end-to-end test on its own.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Entry(NamedTuple):
    id: str
    kind: str
    file: str  # relative to the repo root
    old: str
    new: str
    #: contract tests that check the stubbed mechanism's own bounds (node
    #: ids, deselected for this row)
    skip: tuple[str, ...] = ()


# ----------------------------------------------------------------------
# the tests that judge
# ----------------------------------------------------------------------
CONTRACT, UNIT = "contract", "unit"

#: Every ``tests/test_<name>.py`` module by ``<name>``, classified once:
#: :data:`CONTRACT`, :data:`UNIT`, or the contract tests of a module whose
#: other tests are unit tests.  Contract selections run in this order, the
#: quick and widely failing ones first (``pytest -x`` stops at the first
#: failure).
TESTS: dict[str, str | tuple[str, ...]] = {
    # the driver goldens, the executor-equivalence matrix, the CLI end to end
    "driver_equivalence": CONTRACT,
    "executor_equivalence": ("test_backends_bit_identical", "test_kernels_agree_through_driver",
                             "test_empty_intersection", "test_all_duplicate_coordinates",
                             "test_plan_level_equivalence"),
    "cli": CONTRACT,
    # the served end-to-end tests
    "serving": ("TestServedResults", "TestConcurrency", "TestProtocolValidation",
                "TestTcpAndTelemetry"),
    "obs": ("TestServerObservability", "TestCleanShutdown"),
    "planner": ("TestForcedChoiceBitIdentity", "TestCliSurfaces", "TestServingPlanner"),
    # the count-only matrix and the fault identity matrix
    "result_path": ("test_count_only_reports_the_same_counts_everywhere",),
    "fault_tolerance": ("test_chaos_matrix_bit_identical", "test_chaos_matrix_with_block_store",
                        "test_chaos_object_join_bit_identical",
                        "test_chaos_generalized_join_bit_identical"),
    "columnar_fusion": ("test_distance_kernel_backend_matches_golden",
                        "test_chaos_matches_fault_free_serial"),
    # every driver against the oracle, and the answer under any setting
    "api": CONTRACT,
    "driver_matrix": CONTRACT,
    "distance_join": ("TestCorrectness", "TestDegenerate"),
    "robustness": ("TestDegenerateInputs", "TestFallbacks"),
    "telemetry": ("test_telemetry_does_not_change_the_answer",),
    "queries": ("TestKnnJoin::test_matches_oracle", "TestClosestPairs::test_matches_oracle",
                "TestSelfJoin::test_matches_oracle_unordered"),
    "baselines": ("TestSamjRtreeJoin::test_matches_oracle",
                  "TestSedonaJoin::test_matches_oracle"),
    "generalized_join": ("TestCorrectness", "test_property_quadtree_join_correct_and_duplicate_free"),
    "object_join": ("TestDistanceJoin::test_boxes_match_brute_force",
                    "test_property_box_join_matches_brute_force",
                    "test_property_intersection_join_matches_brute_force"),
    "oracle": CONTRACT,
    "property_join": CONTRACT,
    "examples": CONTRACT,
    "exhaustive_quartet": CONTRACT,
    # one mechanism each, from the inside
    **{name: UNIT for name in (
        "agreement_store", "agreements_graph", "api_docs", "areas", "attempt_ledger",
        "bench_layer", "blockstore", "broadcast", "cost_model", "data", "engine",
        "figures", "geometry", "grid", "layering", "lazy_exports", "local_kernels",
        "map_side", "marking", "marking_lockstep", "objects", "partitioning",
        "perf_smoke", "policies", "postprocess", "recovery_invariants",
        "replication_assign", "replication_pbsm", "sample_join_estimator",
        "segment_geometry", "statistics", "tuning", "wkt",
    )},
}

#: Tests bounded by wall clock: under load they fail whatever is stubbed,
#: so no verdict reads them (deselected from every contract run).
WALL_BOUND = (
    "tests/test_perf_smoke.py",
    "tests/test_obs.py::test_observability_overhead_under_two_percent",
    "tests/test_serving.py::test_serve_keeps_freed_temporaries_in_the_heap",
    "tests/test_serving.py::TestServingPerfSmoke",
    "tests/test_telemetry.py::test_disabled_tracer_overhead_under_two_percent",
)


def contract_selection() -> list[str]:
    """The pytest node ids (or module paths) of every contract test."""
    selected = []
    for name, kind in TESTS.items():
        path = f"tests/test_{name}.py"
        if kind == CONTRACT:
            selected.append(path)
        elif kind != UNIT:
            selected += [f"{path}::{test}" for test in kind]
    return selected


def is_contract(test: str) -> bool:
    """Whether the sweep runs ``test`` (a node id or a module path)."""
    def within(prefix: str) -> bool:
        return test == prefix or test.startswith(prefix + "::")

    return (any(within(sel) for sel in contract_selection())
            and not any(within(wall) for wall in WALL_BOUND))


# ----------------------------------------------------------------------
# stub builders
# ----------------------------------------------------------------------
PIPELINE = "src/repro/joins/pipeline.py"
DISTANCE = "src/repro/joins/distance_join.py"
OBJECT = "src/repro/joins/object_join.py"
GENERALIZED = "src/repro/joins/generalized_join.py"
QUERIES = "src/repro/joins/queries.py"
SERVER = "src/repro/serving/server.py"
EXECUTOR = "src/repro/engine/executor.py"
SLO = "src/repro/obs/slo.py"
CLI_PY = "src/repro/cli.py"


def _ignored(name: str, value: str) -> str:
    """A class attribute for field ``name`` that reads ``value`` (so a
    dataclass takes it for the default) except inside the instance's own
    ``__post_init__``: the config still checks what a caller passed, and
    the program reads the default."""
    checking = (
        'any(f.f_code.co_name == "__post_init__" and f.f_locals.get("self") is o '
        'for f, _ in __import__("traceback").walk_stack(__import__("sys")._getframe()))'
    )
    return (
        'type("KnockedOut", (), {"__get__": lambda d, o, t=None: '
        f'o.__dict__.get("{name}", {value}) if o is not None and {checking} '
        f'else {value}, "__set__": lambda d, o, v: o.__dict__.__setitem__("{name}", v)}})()'
    )


def field(owner: str, path: str, decl: str) -> Entry:
    """``decl`` is the field's declaration line without its indentation."""
    name, _, rest = decl.partition(":")
    annotation, eq, default = rest.partition(" = ")
    default = default.partition("  #")[0]
    if not eq:
        new = f"{name}:{annotation} = {_ignored(name, 'None')}"
    elif default.startswith("field(default="):
        value, _, tail = default[len("field(default="):].partition(",")
        new = f"{name}:{annotation} = field(default={_ignored(name, value)},{tail}"
    else:
        new = f"{name}:{annotation} = {_ignored(name, default)}"
    return Entry(f"{owner}.{name}", "field", path, f"    {decl}\n", f"    {new}\n")


def raises(id_: str, kind: str, path: str, header: str) -> Entry:
    """``header`` opens the definition (``def f(`` or ``    async def m(``):
    the name now raises, and the real body moves to an unused name."""
    indent = header[: len(header) - len(header.lstrip())]
    keyword, _, name = header.strip().rpartition("def ")
    name = name.rstrip("(")
    new = (
        f"{indent}{keyword}def {name}(*_args, **_kwargs):\n"
        f"{indent}    raise RuntimeError('knocked out: {id_}')\n\n"
        f"{indent}{keyword}def _knocked_out_{name}("
    )
    return Entry(id_, kind, path, header, new)


_PARSERS = {"join": "join", "experiment": "exp", "explain": "explain",
            "generate": "gen", "report": "rep", "serve": "serve",
            "query": "query", "top": "top"}


def flag(command: str, option: str) -> Entry:
    """Remove ``repro <command> <option>``: the ``add_argument`` call sets
    the flag's default instead, so argparse rejects the flag and the code
    reading it sees its default.  The matrix that checks the flags' own
    bounds does not count."""
    var = _PARSERS[command]
    old = f'{var}.add_argument("{option}"'
    new = (
        f"(lambda flag, *a, dest=None, default=None, action=None, **k: "
        f"{var}.set_defaults(**{{dest or flag.lstrip('-').replace('-', '_'): "
        f"False if action == 'store_true' and default is None else default}}))"
        f'("{option}"'
    )
    return Entry(f"repro {command} {option}", "flag", CLI_PY, old, new, (
        "tests/test_cli.py::TestJoinValidation::test_sizes_are_bounded_on_every_subcommand",
    ))


# ----------------------------------------------------------------------
# the list
# ----------------------------------------------------------------------
ENTRIES: list[Entry] = [
    # -- ExecutionSettings (every driver config inherits these) --------
    field("ExecutionSettings", PIPELINE, 'execution_backend: str = "serial"'),
    field("ExecutionSettings", PIPELINE, "executor_workers: int | None = None"),
    field("ExecutionSettings", PIPELINE, "faults: FaultPlan | str | None = None"),
    field("ExecutionSettings", PIPELINE, "max_retries: int = 2"),
    field("ExecutionSettings", PIPELINE, "task_timeout: float | None = None"),
    field("ExecutionSettings", PIPELINE, 'spill: str = "none"'),
    field("ExecutionSettings", PIPELINE, "spill_dir: str | None = None"),
    field("ExecutionSettings", PIPELINE, "checkpoint_cells: bool = False"),
    field("ExecutionSettings", PIPELINE,
          "telemetry: Telemetry | None = field(default=None, compare=False)"),
    field("ExecutionSettings", PIPELINE,
          "history: Any = field(default=None, repr=False, compare=False)"),
    # -- RetryPolicy (folded into ExecutionSettings) --------------------
    field("RetryPolicy", EXECUTOR, "max_retries: int = 2"),
    field("RetryPolicy", EXECUTOR, "backoff_base: float = 0.01"),
    field("RetryPolicy", EXECUTOR, "backoff_factor: float = 2.0"),
    field("RetryPolicy", EXECUTOR, "backoff_cap: float = 0.25"),
    field("RetryPolicy", EXECUTOR, "task_timeout: float | None = None"),
    # -- JoinConfig -------------------------------------------------------
    field("JoinConfig", DISTANCE, "eps: float"),
    field("JoinConfig", DISTANCE, 'method: str = "lpib"'),
    field("JoinConfig", DISTANCE, "sample_rate: float = 0.03"),
    field("JoinConfig", DISTANCE, "num_workers: int = 12"),
    field("JoinConfig", DISTANCE,
          "num_partitions: int | None = None  # defaults to 8 partitions per worker"),
    field("JoinConfig", DISTANCE, 'cell_assignment: str = "lpt"  # one of CELL_ASSIGNMENTS'),
    field("JoinConfig", DISTANCE,
          "resolution_factor: float = 2.0  # grid cell side in multiples of eps"),
    field("JoinConfig", DISTANCE,
          "duplicate_free: bool = True  # False: unmarked graph + distinct (Table 6)"),
    field("JoinConfig", DISTANCE, 'local_kernel: str = "grid_hash"'),
    field("JoinConfig", DISTANCE, "seed: int = 0"),
    field("JoinConfig", DISTANCE, "collect_pairs: bool = True"),
    field("JoinConfig", DISTANCE, 'marking_ordering: str = "paper"'),
    field("JoinConfig", DISTANCE,
          "artifact_cache: Any = field(default=None, repr=False, compare=False)"),
    field("JoinConfig", DISTANCE,
          "artifact_key: tuple | None = field(default=None, repr=False, compare=False)"),
    # -- ObjectJoinConfig -------------------------------------------------
    field("ObjectJoinConfig", OBJECT, 'method: str = "lpib"'),
    field("ObjectJoinConfig", OBJECT, "sample_rate: float = 0.1"),
    field("ObjectJoinConfig", OBJECT, "num_workers: int = 12"),
    field("ObjectJoinConfig", OBJECT, "num_partitions: int | None = None"),
    field("ObjectJoinConfig", OBJECT, 'cell_assignment: str = "lpt"'),
    field("ObjectJoinConfig", OBJECT, "seed: int = 0"),
    # -- GeneralizedJoinConfig --------------------------------------------
    field("GeneralizedJoinConfig", GENERALIZED, "eps: float"),
    field("GeneralizedJoinConfig", GENERALIZED, 'partition: str = "quadtree"'),
    field("GeneralizedJoinConfig", GENERALIZED, 'method: str = "lpib"'),
    field("GeneralizedJoinConfig", GENERALIZED, "quadtree_capacity: int = 64"),
    field("GeneralizedJoinConfig", GENERALIZED, "sample_rate: float = 0.05"),
    field("GeneralizedJoinConfig", GENERALIZED, "num_workers: int = 12"),
    field("GeneralizedJoinConfig", GENERALIZED, "seed: int = 0"),
    # -- ServerConfig -----------------------------------------------------
    field("ServerConfig", SERVER, "socket_path: str | None = None"),
    field("ServerConfig", SERVER, "port: int | None = None"),
    field("ServerConfig", SERVER, 'host: str = "127.0.0.1"'),
    field("ServerConfig", SERVER, "cache_budget_bytes: int = 256_000_000"),
    field("ServerConfig", SERVER, "result_cache_bytes: int = 64_000_000"),
    field("ServerConfig", SERVER, "max_inflight: int = 2"),
    field("ServerConfig", SERVER, "max_queue: int = 16"),
    field("ServerConfig", SERVER, "backend: str = ExecutionSettings.execution_backend"),
    field("ServerConfig", SERVER, "executor_workers: int | None = None"),
    field("ServerConfig", SERVER, "default_workers: int = JoinConfig.num_workers"),
    field("ServerConfig", SERVER, "state_dir: str | None = None"),
    field("ServerConfig", SERVER, "sweep_on_start: bool = True"),
    field("ServerConfig", SERVER, "history_path: str | None = None"),
    field("ServerConfig", SERVER, "history_max_bytes: int = RunHistory.MAX_BYTES"),
    field("ServerConfig", SERVER, "history_retain_files: int = RunHistory.RETAIN_FILES"),
    field("ServerConfig", SERVER, "metrics_port: int | None = None"),
    field("ServerConfig", SERVER, "slo_p95_seconds: float | None = None"),
    field("ServerConfig", SERVER, "slo_error_rate: float | None = None"),
    field("ServerConfig", SERVER, "slo_p99_seconds: float | None = SLOConfig.p99_seconds"),
    field("ServerConfig", SERVER, "slo_window_seconds: float = SLOConfig.window_seconds"),
    field("ServerConfig", SERVER, "slo_min_samples: int = SLOConfig.min_samples"),
    # -- SLOConfig (folded into ServerConfig and the watchdog's constants) -
    field("SLOConfig", SLO, "window_seconds: float = 300.0"),
    field("SLOConfig", SLO, "p95_seconds: Optional[float] = None"),
    field("SLOConfig", SLO, "p99_seconds: Optional[float] = None"),
    field("SLOConfig", SLO, "error_rate: Optional[float] = None"),
    field("SLOConfig", SLO, "min_samples: int = 5"),
]

# -- query fields: the server ignores the wire field -----------------------
# A join field is still checked (``JoinConfig`` is built from it), then
# the query runs with the field's default.
_BUILT = '        max_pairs = request.get("max_pairs")\n'


def _default_join_field(wire: str, name: str) -> Entry:
    default = ("config.default_workers" if wire == "workers"
               else f'JoinConfig.__dataclass_fields__["{name}"].default')
    return Entry(f"query.{wire}", "query", SERVER, _BUILT,
                 f"        join = replace(join, {name}={default})\n" + _BUILT)


ENTRIES += [
    Entry("query.eps", "query", SERVER, "            if wire in request:\n",
          '            if wire in request and wire != "eps":\n'),
] + [
    _default_join_field(wire, {"kernel": "local_kernel", "workers": "num_workers"}.get(wire, wire))
    for wire in ("method", "kernel", "workers", "num_partitions", "cell_assignment",
                 "sample_rate", "seed", "resolution_factor", "duplicate_free")
] + [
    Entry("query.r", "query", SERVER, '            r=str(request["r"]),\n',
          '            r="",\n'),
    Entry("query.s", "query", SERVER, '            s=str(request["s"]),\n',
          '            s="",\n'),
    Entry("query.tuning", "query", SERVER,
          '        tuning = str(request.get("tuning", "static"))\n',
          '        tuning = "static"\n'),
    Entry("query.reuse_results", "query", SERVER,
          '            reuse_results=bool(request.get("reuse_results", True)),\n',
          "            reuse_results=True,\n"),
    Entry("query.max_pairs", "query", SERVER,
          '        max_pairs = request.get("max_pairs")\n',
          "        max_pairs = None\n"),
    Entry("query.trace", "query", SERVER,
          '            trace=bool(request.get("trace", False)),\n',
          "            trace=False,\n"),
    Entry("query.report", "query", SERVER,
          '            report=bool(request.get("report", False)),\n',
          "            report=False,\n"),
]

# -- wire ops: the handler raises ------------------------------------------
ENTRIES += [
    raises(f"op.{op}", "op", SERVER, f"    async def _op_{op}(")
    for op in ("ping", "register", "datasets", "query", "stats", "shutdown", "range")
]

# -- backends: a run on it raises --------------------------------------------
ENTRIES += [
    Entry(f"backend.{name}", "backend", EXECUTOR, "    tier = backend\n",
          f'    if backend == "{name}":\n'
          f"        raise RuntimeError('knocked out: backend {name}')\n"
          "    tier = backend\n")
    for name in ("serial", "threads", "processes")
]

# -- caches: every lookup misses --------------------------------------------
_MISS = "    def get(self, key):\n        return super().get(object())\n\n"
ENTRIES += [
    Entry("cache.ArtifactCache", "cache", "src/repro/serving/cache.py",
          "    def put(self, key, value) -> None:\n",
          _MISS + "    def put(self, key, value) -> None:\n"),
    Entry("cache.PlanCache", "cache", "src/repro/planner/planner.py",
          "    @staticmethod\n    def key(\n",
          _MISS + "    @staticmethod\n    def key(\n"),
    Entry("cache.results", "cache", SERVER,
          "                next((key for key in keys if self._results.contains(key)), qkey)\n",
          "                object()\n"),
    Entry("cache.slab_pool", "cache", "src/repro/engine/slabs.py",
          "    if not _GRAIN <= nbytes <= RETAIN_BYTES:\n",
          "    if True:\n"),
    Entry("cache.shared_pools", "cache", EXECUTOR,
          "        if not _shared_pools_enabled:\n",
          "        if True:\n"),
]

# -- drivers: calling one raises ----------------------------------------------
ENTRIES += [
    raises("driver.distance_join", "driver", DISTANCE, "def distance_join("),
    raises("driver.object_distance_join", "driver", OBJECT, "def object_distance_join("),
    raises("driver.object_intersection_join", "driver", OBJECT,
           "def object_intersection_join("),
    raises("driver.generalized_distance_join", "driver", GENERALIZED,
           "def generalized_distance_join("),
    raises("driver.sedona_join", "driver", "src/repro/baselines/sedona_like.py",
           "def sedona_join("),
    raises("driver.rtree_samj_join", "driver", "src/repro/baselines/rtree_join.py",
           "def rtree_samj_join("),
    raises("driver.naive", "driver", "src/repro/joins/api.py", "def _naive_join("),
    raises("driver.knn_join", "driver", QUERIES, "def knn_join("),
    raises("driver.closest_pairs", "driver", QUERIES, "def closest_pairs("),
    raises("driver.self_join", "driver", QUERIES, "def self_join("),
]

# -- the scalar agreement-graph views (a former open audit row) ------------
_GRAPH = "src/repro/agreements/graph.py"
ENTRIES += [
    Entry(f"path.{cls}", "path", _GRAPH, init,
          init + f"        raise RuntimeError('knocked out: {cls}')\n")
    for cls, init in (
        ("QuartetSubgraph", '    def __init__(self, graph: "AgreementGraph", row: int):\n'),
        ("DirectedEdge", '    def __init__(self, graph: "AgreementGraph", row: int, col: int, '
                         'tail: int, head: int):\n'),
    )
]

# -- count-only paths: the collecting path runs instead ----------------------
ENTRIES += [
    # the count-only expand: an uncollected task leases and writes its ids
    Entry("path.count_only_expand", "path", EXECUTOR,
          "        if probe is not None and not collect:\n",
          "        if False:\n"),
    # the served derivation: a ``max_pairs: 0`` query collects
    Entry("path.served_count_only", "path", SERVER,
          "        if max_pairs == 0 and join.duplicate_free:\n",
          "        if False:\n"),
    # the pairs-entry fallback: a count query looks up its own key only
    Entry("path.pairs_entry_fallback", "path", SERVER,
          "            if not spec.config.collect_pairs:\n",
          "            if False:\n"),
]

# -- CLI flags that set no config field -------------------------------------
ENTRIES += [
    flag("join", option)
    for option in ("--join", "--r", "--s", "--tuning", "--fault-seed", "--base-n",
                   "--payload", "--show-pairs", "--trace", "--trace-format",
                   "--report", "--log-level", "--quiet")
] + [
    flag("experiment", option) for option in ("--list", "--base-n", "--quick")
] + [
    flag("explain", option) for option in ("--r", "--s", "--limit", "--base-n", "--payload")
] + [
    flag("generate", "--base-n"),
] + [
    flag("report", option) for option in ("--output", "--base-n", "--quick", "--only")
] + [
    flag("serve", option)
    for option in ("--register", "--base-n", "--payload", "--log-level", "--quiet")
] + [
    flag("query", option)
    for option in ("--socket", "--port", "--host", "--timeout", "--register", "--base-n",
                   "--payload", "--show-pairs", "--no-reuse-results", "--stats",
                   "--stats-json", "--ping", "--shutdown-server")
] + [
    flag("top", option)
    for option in ("--socket", "--port", "--host", "--timeout", "--interval",
                   "--iterations", "--once", "--no-clear")
] + [
    # the hidden one-shot flags of serve and query (--faults, --fault-seed,
    # --spill, --spill-dir, --checkpoint-cells, --task-timeout)
    Entry("repro serve/query one-shot traps", "flag", CLI_PY,
          '    """Accept (then reject with a clear message) one-shot-only flags."""\n',
          '    """Accept (then reject with a clear message) one-shot-only flags."""\n'
          "    return\n"),
]

#: Mechanisms deleted after a sweep read ``none`` for them; their edits
#: match nothing on a tree without them.
_TOP = "`repro top` went: `repro query --stats` prints the same frame"
_RETRY = ("`RetryPolicy` went: the attempt ledger takes `ExecutionSettings.max_retries` "
          "and `task_timeout`, and the backoff is `attempts.BACKOFF_BASE` (0.01 s) "
          "doubling to `BACKOFF_CAP` (0.25 s)")
_SLO = ("`SLOConfig` went: `SLOWatchdog(p95_seconds, error_rate)` takes "
        "`ServerConfig`'s two thresholds, checked there; the window is "
        "`slo.WINDOW_SECONDS` (300 s) and a verdict needs `slo.MIN_SAMPLES` (5)")
DELETED: dict[str, str] = {
    "op.range": "with `JoinClient.range`, the `serve.range_queries` counter and "
                "the per-dataset R-trees it parked in the artifact cache",
    "op.datasets": "with `JoinClient.datasets`; `stats` lists the datasets",
    "ServerConfig.sweep_on_start": "with `repro serve --no-sweep`: every start "
                                   "sweeps, and a sweep reclaims only dead owners' state",
    "repro serve/query one-shot traps": "argparse rejects the flags (exit 2); the "
                                        "server still rejects the wire fields",
    "RetryPolicy.backoff_factor": "the backoff doubles",
    **{f"RetryPolicy.{name}": _RETRY for name in (
        "max_retries", "backoff_base", "backoff_cap", "task_timeout")},
    "ServerConfig.host": "with `--host` on serve and query: the server binds "
                         "127.0.0.1 only",
    "ServerConfig.state_dir": "a server's state dir is a fresh temp dir",
    "ServerConfig.history_max_bytes": "with `--history-max-mb`: `RunHistory`'s "
                                      "rotation defaults apply",
    "ServerConfig.history_retain_files": "`RunHistory`'s default applies",
    "repro join --fault-seed": "with `FaultPlan.with_seed`: a `--faults` plan "
                               "uses seed 0",
    "repro query --host": "the server binds 127.0.0.1 only",
    "ServerConfig.executor_workers": "with `--executor-workers`: a query runs "
                                     "on `JoinConfig`'s default (one OS worker a CPU)",
    "ServerConfig.slo_p99_seconds": "with `--slo-p99` and `SLOConfig.p99_seconds`",
    "SLOConfig.p99_seconds": "the watchdog's objectives are p95 and the error rate",
    "ServerConfig.slo_window_seconds": "with `--slo-window`: the window is "
                                       "`slo.WINDOW_SECONDS`, 300 s",
    **{f"SLOConfig.{name}": _SLO for name in (
        "window_seconds", "p95_seconds", "error_rate", "min_samples")},
    "ServerConfig.slo_min_samples": "no flag set it: the watchdog renders a verdict "
                                    "from `slo.MIN_SAMPLES` = 5 samples",
    "ObjectJoinConfig.seed": "the anchor sample draws with seed 0",
    "ObjectJoinConfig.sample_rate": "only tests set it: the anchor sample's rate is "
                                    "`object_join.SAMPLE_RATE` (0.1)",
    **{f"ObjectJoinConfig.{name}": "only tests set it: an object join places cells by "
                                   "LPT, and its hash branch went"
       for name in ("cell_assignment", "num_partitions")},
    **{f"GeneralizedJoinConfig.{name}": f"only tests set it: `generalized_join.{constant}"
       for name, constant in (("quadtree_capacity", "QUADTREE_CAPACITY` (64)"),
                              ("sample_rate", "SAMPLE_RATE` (0.05)"),
                              ("seed", "SAMPLE_SEED` (0)"))},
    **{f"query.{wire}": "the server rejects the field; `JoinConfig`'s default applies"
       for wire in ("num_partitions", "cell_assignment", "sample_rate", "duplicate_free")},
    **{option: "the flag's default applies" for option in (
        "repro join --payload", "repro explain --payload", "repro query --payload",
        "repro query --timeout")},
    "repro join --log-level": "`--quiet` stays; `repro.engine.telemetry.configure` "
                              "sets any level",
    "repro serve --log-level": "`--quiet` stays",
    **{f"repro serve {option}": "`repro query --register` registers datasets"
       for option in ("--register", "--base-n", "--payload")},
    "repro query --no-reuse-results": "the wire field `reuse_results` stays",
    "repro query --shutdown-server": "SIGTERM or ctrl-c stops a server; the "
                                     "`shutdown` op stays",
    **{f"repro top {option}": _TOP for option in (
        "--socket", "--port", "--host", "--timeout", "--interval", "--iterations",
        "--once", "--no-clear")},
}

#: ``none`` rows that stay, with the reason.
_SERVED = "benchmark: `served` starts `repro serve` with it (benchmarks/perf/README.md)"
KEPT: dict[str, str] = {
    "ExecutionSettings.executor_workers":
        "benchmark: `benchmarks/perf/layers.py` sets it for `executor.procs_*`",
    "ExecutionSettings.max_retries":
        "safety: the retry budget of fault recovery; `repro join --max-retries` sets it",
    "ExecutionSettings.task_timeout":
        "safety: the drivers' one switch for straggler speculation (fault recovery); "
        "`repro join --task-timeout` sets it",
    "ExecutionSettings.spill_dir":
        "deployment setting: the path spilled blocks go to, `repro join --spill-dir`",
    "JoinConfig.sample_rate":
        "benchmark: `benchmarks/perf/layers.py` samples at it (`grid.sample_stats_s`); "
        "`benchmarks/bench_ablations.py::test_ablation_sample_rate` sweeps it",
    "JoinConfig.num_partitions":
        "caller: `repro.bench.harness` sizes it per scale and `repro.bench.experiments` "
        "sweeps it (the paper's figures; `benchmarks/bench_fig13_scalability_data_size.py`, "
        "`benchmarks/bench_fig14_nodes.py`)",
    "JoinConfig.duplicate_free":
        "caller: the paper's Table 6 runs `False` (`repro.bench.experiments`, "
        "`benchmarks/bench_table6_dedup.py`)",
    "JoinConfig.marking_ordering":
        "benchmark: `benchmarks/bench_ablations.py::test_ablation_edge_ordering` "
        "(Sect. 5.2's ordering ablation) runs `arbitrary`",
    "ObjectJoinConfig.num_workers":
        "benchmark: `benchmarks/bench_backend_object.py` sets it; so does "
        "`repro join --join object --workers`",
    "ServerConfig.cache_budget_bytes":
        "deployment setting: a memory budget, `repro serve --cache-budget-mb`",
    "ServerConfig.result_cache_bytes":
        "deployment setting: a memory budget, `repro serve --result-cache-mb`",
    "ServerConfig.max_inflight": _SERVED,
    "ServerConfig.max_queue": _SERVED,
    "ServerConfig.backend": _SERVED,
    "query.kernel": "benchmark: `served` sends it (benchmarks/perf/README.md)",
    "query.seed": "benchmark: `served` sends a fresh seed with every cold query, so "
                  "each one misses both caches (benchmarks/perf/served.py)",
    "repro join --quiet": "benchmark: the one-shot workloads run `repro join ... --quiet`",
    "cache.slab_pool": "benchmark: `skew_kernel`'s result columns lie above glibc's 32 MiB "
                       "mmap ceiling, so without the pool every op faults them in again: "
                       "204-499 minor faults and 4-12 ms system time an op, 0 and 0.2 ms "
                       "with it (docs/EXECUTION.md, \"Memory\")",
    "cache.shared_pools": "A/B: a `processes` join repeated as a server runs it "
                          "(`gaussian_clusters` 20k x 20k, eps 0.004, 4 simulated / 2 OS "
                          "workers, 7 joins after a warm-up, 2 rounds, 2 vCPUs): p50 "
                          "47-59 ms without, 31-34 ms with; `threads` within noise",
}


# ----------------------------------------------------------------------
# the sweep
# ----------------------------------------------------------------------
def _export(rev: str, into: str) -> None:
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)


def _matches(tree: str, entry: Entry) -> int:
    with open(os.path.join(tree, entry.file), encoding="utf-8") as fh:
        return fh.read().count(entry.old)


_WIRE_FIELDS = re.compile(r"^(?:JOIN|QUERY)_FIELDS = .*?[)}]$", re.M | re.S)


def gone(tree: str, entry: Entry) -> bool:
    """Whether ``entry``'s mechanism is absent from ``tree``: its edit
    matches nothing or, for a query field, the server no longer reads it
    (the query stubs share their anchors)."""
    path = os.path.join(tree, entry.file)
    if not os.path.exists(path) or not _matches(tree, entry):
        return True
    if entry.kind != "query":
        return False
    with open(path, encoding="utf-8") as fh:
        declared = "".join(_WIRE_FIELDS.findall(fh.read()))
    return f'"{entry.id.split(".", 1)[1]}"' not in declared


def check(tree: str, entries) -> list[str]:
    """Every problem with ``entries`` on ``tree``: an edit of a live entry
    that does not match exactly once, of a deleted one that does more
    than once."""
    problems = []
    for entry in entries:
        path = os.path.join(tree, entry.file)
        count = _matches(tree, entry) if os.path.exists(path) else 0
        if count > 1 or (count == 0 and entry.id not in DELETED):
            problems.append(f"{entry.id}: edit matches {count} times in {entry.file}")
    return problems


_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.M)


def run_entry(tree: str, entry: Entry, timeout: float) -> str:
    """``entry``'s first failing contract test, ``none`` or ``timeout``."""
    path = os.path.join(tree, entry.file)
    with open(path, encoding="utf-8") as fh:
        original = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(original.replace(entry.old, entry.new, 1))
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    deselect = [f"--deselect={test}" for test in (*WALL_BOUND, *entry.skip)]
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
           *contract_selection(), *deselect]
    proc = subprocess.Popen(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # with any server it started
        proc.communicate()
        return "timeout"
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(original)
    try:  # a server the tests left behind
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    failed = _FAILED.search(out)
    if failed:
        return failed.group(1)
    if proc.returncode == 0:
        return "none"
    return f"pytest exit {proc.returncode}: {out.strip().splitlines()[-1:]}"


def verdict(entry: Entry, first: str) -> str:
    if first == "deleted":
        return f"**deleted**: {DELETED[entry.id]}"
    if first.startswith("pytest exit"):
        return "error: the stub broke collection"
    if first != "none":
        return "kept"
    if entry.id in DELETED:
        return f"delete; **deleted**: {DELETED[entry.id]}"
    return KEPT.get(entry.id, "delete")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD", help="commit to copy (default HEAD)")
    parser.add_argument("--only", nargs="+", metavar="ID", help="entry ids to run")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="seconds per entry; past it the row reads `timeout`")
    parser.add_argument("--check", action="store_true",
                        help="only check that every edit applies; run no test")
    args = parser.parse_args(argv)
    entries = ENTRIES
    if args.only:
        unknown = set(args.only) - {e.id for e in ENTRIES}
        if unknown:
            parser.error(f"unknown entry id(s): {', '.join(sorted(unknown))}")
        entries = [e for e in ENTRIES if e.id in args.only]
    tree = tempfile.mkdtemp(prefix="knockout-")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # clean up the copy
    try:
        _export(args.rev, tree)
        problems = check(tree, entries)
        if problems:
            print("stale entries:\n  " + "\n  ".join(problems), file=sys.stderr)
            return 2
        if args.check:
            print(f"{len(entries)} entries apply to {args.rev}")
            return 0
        print(f"knockout sweep of {args.rev}: {len(entries)} entries")
        print("| id | kind | first failing contract test | verdict |")
        print("|----|------|-----------------------------|---------|")
        start = time.monotonic()
        for entry in entries:
            if entry.id in DELETED and gone(tree, entry):
                first = "deleted"
            else:
                first = run_entry(tree, entry, args.timeout)
            print(f"| `{entry.id}` | {entry.kind} | {first} | {verdict(entry, first)} |",
                  flush=True)
        print(f"swept in {time.monotonic() - start:.0f} s")
    finally:
        shutil.rmtree(tree, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
