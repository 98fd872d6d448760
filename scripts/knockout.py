"""The mechanism audit as a knockout run.

Every mechanism the program carries -- a config field, a CLI flag, a wire
op or query field, a backend, a cache, a driver -- must be justified by a
test that fails without it or a benchmark that measures it.  For each
entry of :data:`ENTRIES` this script exports a commit with ``git archive``
into a temporary directory, applies the entry's one edit (its *stub*),
runs the entry's tests with ``pytest -x`` under a timeout, restores the
file, and prints one row::

    | id | kind | first failing test, `none` or `timeout` | verdict |

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
reason -- a benchmark that runs it, safety, a test that varies it, a
measured A/B, or the test the row gained; any other ``none`` row reads
``delete``.

An entry's test list may ``--deselect`` the mechanism's own unit tests
where nothing else in the program reaches the mechanism (no CLI command,
benchmark or example): a test that calls a mechanism only to check that
it exists does not justify it.

Usage, from the repo root::

    python scripts/knockout.py [--rev REV] [--only ID ...] [--timeout S] [--full]
    python scripts/knockout.py --check     # every edit applies, no tests

The working tree is never written to, no test is edited, and the copy is
deleted afterwards.  A full sweep takes about 15 minutes on 2 vCPUs; run
nothing else meanwhile, since wall-bound tests fail under load.
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
    tests: tuple[str, ...]


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


def _t(*names: str) -> tuple[str, ...]:
    """Test files by short name (``cli`` -> ``tests/test_cli.py``); a path
    or a pytest option passes as it is."""
    out = []
    for name in names:
        if name.startswith("-") or "/" in name:
            out.append(name)
        else:
            out.append(f"tests/test_{name}.py")
    return tuple(out)


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


def field(owner: str, path: str, decl: str, tests) -> Entry:
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
    return Entry(f"{owner}.{name}", "field", path, f"    {decl}\n", f"    {new}\n", tests)


def raises(id_: str, kind: str, path: str, header: str, tests) -> Entry:
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
    return Entry(id_, kind, path, header, new, tests)


_PARSERS = {"join": "join", "experiment": "exp", "explain": "explain",
            "generate": "gen", "report": "rep", "serve": "serve",
            "query": "query", "top": "top"}


def flag(command: str, option: str, tests) -> Entry:
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
    return Entry(f"repro {command} {option}", "flag", CLI_PY, old, new,
                 (*tests, "-k", "not sizes_are_bounded"))


# ----------------------------------------------------------------------
# the list
# ----------------------------------------------------------------------
_EXEC = _t("fault_tolerance", "blockstore", "robustness", "cli", "result_path")
_JOIN = _t("driver_equivalence", "distance_join", "robustness", "planner")
_SERVE = _t("serving", "obs")
_OBJ = _t("engine", "object_join", "driver_equivalence", "robustness", "cli")

ENTRIES: list[Entry] = [
    # -- ExecutionSettings (every driver config inherits these) --------
    field("ExecutionSettings", PIPELINE, 'execution_backend: str = "serial"',
          _t("executor_equivalence", "fault_tolerance")),
    field("ExecutionSettings", PIPELINE, "executor_workers: int | None = None",
          _t("executor_equivalence", "fault_tolerance", "result_path", "robustness")),
    field("ExecutionSettings", PIPELINE, "faults: FaultPlan | str | None = None",
          _t("fault_tolerance")),
    field("ExecutionSettings", PIPELINE, "max_retries: int = 2", _EXEC),
    field("ExecutionSettings", PIPELINE, "task_timeout: float | None = None", _EXEC),
    field("ExecutionSettings", PIPELINE, 'spill: str = "none"', _EXEC),
    field("ExecutionSettings", PIPELINE, "spill_dir: str | None = None",
          (*_EXEC, "tests/test_telemetry.py")),
    field("ExecutionSettings", PIPELINE, "checkpoint_cells: bool = False", _EXEC),
    field("ExecutionSettings", PIPELINE,
          "telemetry: Telemetry | None = field(default=None, compare=False)",
          _t("telemetry")),
    field("ExecutionSettings", PIPELINE,
          "history: Any = field(default=None, repr=False, compare=False)",
          _t("telemetry", "obs")),
    # -- RetryPolicy ----------------------------------------------------
    field("RetryPolicy", EXECUTOR, "max_retries: int = 2",
          _t("fault_tolerance", "attempt_ledger", "robustness")),
    field("RetryPolicy", EXECUTOR, "backoff_base: float = 0.01",
          _t("fault_tolerance", "attempt_ledger", "result_path")),
    field("RetryPolicy", EXECUTOR, "backoff_factor: float = 2.0",
          _t("fault_tolerance", "attempt_ledger")),
    field("RetryPolicy", EXECUTOR, "backoff_cap: float = 0.25",
          _t("fault_tolerance", "attempt_ledger")),
    field("RetryPolicy", EXECUTOR, "task_timeout: float | None = None",
          _t("fault_tolerance", "attempt_ledger", "robustness")),
    # -- JoinConfig -------------------------------------------------------
    field("JoinConfig", DISTANCE, "eps: float", _JOIN),
    field("JoinConfig", DISTANCE, 'method: str = "lpib"', _JOIN),
    field("JoinConfig", DISTANCE, "sample_rate: float = 0.03",
          _t("planner", "cost_model", "robustness", "queries")),
    field("JoinConfig", DISTANCE, "num_workers: int = 12", _JOIN),
    field("JoinConfig", DISTANCE,
          "num_partitions: int | None = None  # defaults to 8 partitions per worker",
          _t("engine", "robustness", "baselines")),
    field("JoinConfig", DISTANCE, 'cell_assignment: str = "lpt"  # one of CELL_ASSIGNMENTS',
          _t("driver_equivalence", "distance_join", "engine", "robustness")),
    field("JoinConfig", DISTANCE,
          "resolution_factor: float = 2.0  # grid cell side in multiples of eps",
          _JOIN),
    field("JoinConfig", DISTANCE,
          "duplicate_free: bool = True  # False: unmarked graph + distinct (Table 6)",
          _t("distance_join", "telemetry", "exhaustive_quartet")),
    field("JoinConfig", DISTANCE, 'local_kernel: str = "grid_hash"', _JOIN),
    field("JoinConfig", DISTANCE, "seed: int = 0", _JOIN),
    field("JoinConfig", DISTANCE, "collect_pairs: bool = True",
          _t("result_path", "cost_model")),
    field("JoinConfig", DISTANCE, 'marking_ordering: str = "paper"',
          _t("robustness", "cli", "benchmarks/bench_ablations.py")),
    field("JoinConfig", DISTANCE,
          "artifact_cache: Any = field(default=None, repr=False, compare=False)",
          _t("serving", "agreement_store", "telemetry")),
    field("JoinConfig", DISTANCE,
          "artifact_key: tuple | None = field(default=None, repr=False, compare=False)",
          _t("serving", "agreement_store", "telemetry")),
    # -- ObjectJoinConfig -------------------------------------------------
    field("ObjectJoinConfig", OBJECT, 'method: str = "lpib"', _OBJ),
    field("ObjectJoinConfig", OBJECT, "sample_rate: float = 0.1", _OBJ),
    field("ObjectJoinConfig", OBJECT, "num_workers: int = 12", _OBJ),
    field("ObjectJoinConfig", OBJECT, "num_partitions: int | None = None", _OBJ),
    field("ObjectJoinConfig", OBJECT, 'cell_assignment: str = "lpt"', _OBJ),
    field("ObjectJoinConfig", OBJECT, "seed: int = 0", _OBJ),
    # -- GeneralizedJoinConfig --------------------------------------------
    field("GeneralizedJoinConfig", GENERALIZED, "eps: float", _t("generalized_join")),
    field("GeneralizedJoinConfig", GENERALIZED, 'partition: str = "quadtree"',
          _t("generalized_join", "driver_equivalence")),
    field("GeneralizedJoinConfig", GENERALIZED, 'method: str = "lpib"',
          _t("generalized_join", "driver_equivalence")),
    field("GeneralizedJoinConfig", GENERALIZED, "quadtree_capacity: int = 64",
          _t("generalized_join", "driver_equivalence", "robustness")),
    field("GeneralizedJoinConfig", GENERALIZED, "sample_rate: float = 0.05",
          _t("generalized_join", "driver_equivalence")),
    field("GeneralizedJoinConfig", GENERALIZED, "num_workers: int = 12",
          _t("generalized_join", "driver_equivalence")),
    field("GeneralizedJoinConfig", GENERALIZED, "seed: int = 0",
          _t("generalized_join", "driver_equivalence")),
    # -- ServerConfig -----------------------------------------------------
    field("ServerConfig", SERVER, "socket_path: str | None = None", _SERVE),
    field("ServerConfig", SERVER, "port: int | None = None", _t("serving", "cli")),
    field("ServerConfig", SERVER, 'host: str = "127.0.0.1"', _t("serving", "cli")),
    field("ServerConfig", SERVER, "cache_budget_bytes: int = 256_000_000", _t("serving", "cli")),
    field("ServerConfig", SERVER, "result_cache_bytes: int = 64_000_000",
          _t("serving", "cli", "robustness")),
    field("ServerConfig", SERVER, "max_inflight: int = 2", _t("serving", "robustness")),
    field("ServerConfig", SERVER, "max_queue: int = 16", _t("serving", "robustness")),
    field("ServerConfig", SERVER, "backend: str = ExecutionSettings.execution_backend",
          _t("serving", "obs", "cli")),
    field("ServerConfig", SERVER, "executor_workers: int | None = None",
          _t("serving", "obs", "cli")),
    field("ServerConfig", SERVER, "default_workers: int = JoinConfig.num_workers",
          _t("serving", "robustness")),
    field("ServerConfig", SERVER, "state_dir: str | None = None", _SERVE),
    field("ServerConfig", SERVER, "sweep_on_start: bool = True",
          _t("serving", "obs", "blockstore", "layering")),
    field("ServerConfig", SERVER, "history_path: str | None = None", _SERVE),
    field("ServerConfig", SERVER, "history_max_bytes: int = RunHistory.MAX_BYTES",
          _t("obs", "serving", "cli")),
    field("ServerConfig", SERVER, "history_retain_files: int = RunHistory.RETAIN_FILES",
          _t("serving", "obs")),
    field("ServerConfig", SERVER, "metrics_port: int | None = None", _t("obs", "serving")),
    # -- SLOConfig --------------------------------------------------------
    field("SLOConfig", SLO, "window_seconds: float = 300.0", _t("obs")),
    field("SLOConfig", SLO, "p95_seconds: Optional[float] = None", _t("obs")),
    field("SLOConfig", SLO, "p99_seconds: Optional[float] = None", _t("obs")),
    field("SLOConfig", SLO, "error_rate: Optional[float] = None", _t("obs")),
    field("SLOConfig", SLO, "min_samples: int = 5", _t("obs")),
]

# -- the server's SLO thresholds: ``ServerConfig.__post_init__`` hands them
# to ``SLOConfig``; the stub lets a throwaway ``SLOConfig`` check the value
# passed and hands on the default
ENTRIES += [
    Entry(f"ServerConfig.slo_{name}", "field", SERVER,
          f"            {name}=self.slo_{name},\n",
          f"            {name}=(SLOConfig({name}=self.slo_{name}), SLOConfig.{name})[1],\n",
          _t("obs", "serving", "robustness"))
    for name in ("p95_seconds", "p99_seconds", "error_rate", "window_seconds", "min_samples")
]

# -- query fields: the server ignores the wire field -----------------------
# A join field is still checked (``JoinConfig`` is built from it), then
# the query runs with the field's default.
_QUERY = _t("serving", "obs", "cli")
_BUILT = '        max_pairs = request.get("max_pairs")\n'


def _default_join_field(wire: str, name: str) -> Entry:
    default = ("config.default_workers" if wire == "workers"
               else f'JoinConfig.__dataclass_fields__["{name}"].default')
    return Entry(f"query.{wire}", "query", SERVER, _BUILT,
                 f"        join = replace(join, {name}={default})\n" + _BUILT, _QUERY)


ENTRIES += [
    Entry("query.eps", "query", SERVER, "            if wire in request:\n",
          '            if wire in request and wire != "eps":\n', _QUERY),
] + [
    _default_join_field(wire, {"kernel": "local_kernel", "workers": "num_workers"}.get(wire, wire))
    for wire in ("method", "kernel", "workers", "num_partitions", "cell_assignment",
                 "sample_rate", "seed", "resolution_factor", "duplicate_free")
] + [
    Entry("query.r", "query", SERVER, '            r=str(request["r"]),\n',
          '            r="",\n', _QUERY),
    Entry("query.s", "query", SERVER, '            s=str(request["s"]),\n',
          '            s="",\n', _QUERY),
    Entry("query.tuning", "query", SERVER,
          '        tuning = str(request.get("tuning", "static"))\n',
          '        tuning = "static"\n', _t("serving", "planner", "obs", "cli")),
    Entry("query.reuse_results", "query", SERVER,
          '            reuse_results=bool(request.get("reuse_results", True)),\n',
          "            reuse_results=True,\n", _QUERY),
    Entry("query.max_pairs", "query", SERVER,
          '        max_pairs = request.get("max_pairs")\n',
          "        max_pairs = None\n", _QUERY),
    Entry("query.trace", "query", SERVER,
          '            trace=bool(request.get("trace", False)),\n',
          "            trace=False,\n", _QUERY),
    Entry("query.report", "query", SERVER,
          '            report=bool(request.get("report", False)),\n',
          "            report=False,\n", _QUERY),
]

# -- wire ops: the handler raises ------------------------------------------
ENTRIES += [
    raises(f"op.{op}", "op", SERVER, f"    async def _op_{op}(", _QUERY)
    for op in ("ping", "register", "datasets", "query", "stats", "shutdown")
] + [
    raises("op.range", "op", SERVER, "    async def _op_range(", _t(
        "serving", "obs",
        "--deselect=tests/test_serving.py::TestServedResults::test_rtree_range_query",
    )),
]

# -- backends: a run on it raises --------------------------------------------
_BACKEND_TESTS = _t("executor_equivalence", "fault_tolerance", "result_path", "serving")
ENTRIES += [
    Entry(f"backend.{name}", "backend", EXECUTOR, "    tier = backend\n",
          f'    if backend == "{name}":\n'
          f"        raise RuntimeError('knocked out: backend {name}')\n"
          "    tier = backend\n", _BACKEND_TESTS)
    for name in ("serial", "threads", "processes")
]

# -- caches: every lookup misses --------------------------------------------
_MISS = "    def get(self, key):\n        return super().get(object())\n\n"
ENTRIES += [
    Entry("cache.ArtifactCache", "cache", "src/repro/serving/cache.py",
          "    def put(self, key, value) -> None:\n",
          _MISS + "    def put(self, key, value) -> None:\n", _t("serving")),
    Entry("cache.PlanCache", "cache", "src/repro/planner/planner.py",
          "    @staticmethod\n    def key(\n",
          _MISS + "    @staticmethod\n    def key(\n", _t("planner", "serving")),
    Entry("cache.results", "cache", SERVER,
          "                next((key for key in keys if self._results.contains(key)), qkey)\n",
          "                object()\n", _t("serving", "obs")),
    Entry("cache.slab_pool", "cache", "src/repro/engine/slabs.py",
          "    if not _GRAIN <= nbytes <= RETAIN_BYTES:\n",
          "    if True:\n", _t("result_path")),
    Entry("cache.shared_pools", "cache", EXECUTOR,
          "        if not _shared_pools_enabled:\n",
          "        if True:\n", _t("serving", "obs", "fault_tolerance")),
]

# -- drivers: calling one raises ----------------------------------------------
ENTRIES += [
    raises("driver.distance_join", "driver", DISTANCE, "def distance_join(", _JOIN),
    raises("driver.object_distance_join", "driver", OBJECT, "def object_distance_join(",
           _t("cli", "driver_equivalence", "examples", "object_join")),
    raises("driver.object_intersection_join", "driver", OBJECT,
           "def object_intersection_join(",
           _t("cli", "driver_equivalence", "examples", "object_join")),
    raises("driver.generalized_distance_join", "driver", GENERALIZED,
           "def generalized_distance_join(",
           _t("cli", "driver_equivalence", "examples", "generalized_join")),
    raises("driver.sedona_join", "driver", "src/repro/baselines/sedona_like.py",
           "def sedona_join(", _t("cli", "api", "examples", "baselines")),
    raises("driver.rtree_samj_join", "driver", "src/repro/baselines/rtree_join.py",
           "def rtree_samj_join(", _t("cli", "examples", "baselines")),
    raises("driver.naive", "driver", "src/repro/joins/api.py", "def _naive_join(",
           _t("cli", "api", "examples")),
    raises("driver.knn_join", "driver", QUERIES, "def knn_join(", _t("examples", "queries")),
    raises("driver.closest_pairs", "driver", QUERIES, "def closest_pairs(",
           _t("examples", "queries")),
    raises("driver.self_join", "driver", QUERIES, "def self_join(", _t("examples", "queries")),
]

# -- the scalar agreement-graph views (a former open audit row) ------------
# the drivers' tests first: a failure further on is a reference test's
_VIEWS = _t("driver_equivalence", "distance_join", "agreement_store", "agreements_graph",
            "marking_lockstep", "replication_assign")
_GRAPH = "src/repro/agreements/graph.py"
ENTRIES += [
    Entry(f"path.{cls}", "path", _GRAPH, init, init + f"        raise RuntimeError('knocked out: {cls}')\n",
          _VIEWS)
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
          "        if False:\n", _t("result_path")),
    # the served derivation: a ``max_pairs: 0`` query collects
    Entry("path.served_count_only", "path", SERVER,
          "        if max_pairs == 0 and join.duplicate_free:\n",
          "        if False:\n", _QUERY),
    # the pairs-entry fallback: a count query looks up its own key only
    Entry("path.pairs_entry_fallback", "path", SERVER,
          "            if not spec.config.collect_pairs:\n",
          "            if False:\n", (*_QUERY, "tests/test_cli.py")),
]

# -- CLI flags that set no config field -------------------------------------
_JOIN_FLAGS = _t("cli", "planner", "telemetry", "obs")
_SERVE_FLAGS = _t("cli", "serving", "obs")
ENTRIES += [
    flag("join", option, _JOIN_FLAGS)
    for option in ("--join", "--r", "--s", "--tuning", "--fault-seed", "--base-n",
                   "--payload", "--show-pairs", "--trace", "--trace-format",
                   "--report", "--log-level", "--quiet")
] + [
    flag("experiment", option, _t("cli")) for option in ("--list", "--base-n", "--quick")
] + [
    flag("explain", option, _t("cli", "planner"))
    for option in ("--r", "--s", "--limit", "--base-n", "--payload")
] + [
    flag("generate", "--base-n", _t("cli")),
] + [
    flag("report", option, _t("cli")) for option in ("--output", "--base-n", "--quick", "--only")
] + [
    flag("serve", option, _SERVE_FLAGS)
    for option in ("--register", "--base-n", "--payload", "--log-level", "--quiet")
] + [
    flag("query", option, _SERVE_FLAGS)
    for option in ("--socket", "--port", "--host", "--timeout", "--register", "--base-n",
                   "--payload", "--show-pairs", "--no-reuse-results", "--stats",
                   "--stats-json", "--ping", "--shutdown-server")
] + [
    flag("top", option, _t("cli", "obs"))
    for option in ("--socket", "--port", "--host", "--timeout", "--interval",
                   "--iterations", "--once", "--no-clear")
] + [
    # the hidden one-shot flags of serve and query (--faults, --fault-seed,
    # --spill, --spill-dir, --checkpoint-cells, --task-timeout)
    Entry("repro serve/query one-shot traps", "flag", CLI_PY,
          '    """Accept (then reject with a clear message) one-shot-only flags."""\n',
          '    """Accept (then reject with a clear message) one-shot-only flags."""\n'
          "    return\n",
          _SERVE_FLAGS + (
             "--deselect=tests/test_cli.py::TestServeValidation::"
             "test_one_shot_flags_trapped_on_serve",
             "--deselect=tests/test_cli.py::TestServeValidation::"
             "test_one_shot_flags_trapped_on_query",
          )),
]

#: Mechanisms deleted after a sweep read ``none`` for them; their edits
#: match nothing on a tree without them.
_TOP = "`repro top` went: `repro query --stats` prints the same frame"
DELETED: dict[str, str] = {
    "op.range": "with `JoinClient.range`, the `serve.range_queries` counter and "
                "the per-dataset R-trees it parked in the artifact cache",
    "op.datasets": "with `JoinClient.datasets`; `stats` lists the datasets",
    "ServerConfig.sweep_on_start": "with `repro serve --no-sweep`: every start "
                                   "sweeps, and a sweep reclaims only dead owners' state",
    "repro serve/query one-shot traps": "argparse rejects the flags (exit 2); the "
                                        "server still rejects the wire fields",
    "RetryPolicy.backoff_factor": "the backoff doubles",
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
                                       "`SLOConfig`'s 300 s",
    "ObjectJoinConfig.seed": "the anchor sample draws with seed 0",
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
_QUADTREE = ("test input: `test_generalized_join.py` varies the quadtree's leaves through "
             "it (`test_quadtree_capacity_sweep`, the property test); fixed, they check "
             "one rectangulation")
KEPT: dict[str, str] = {
    "ExecutionSettings.executor_workers":
        "benchmark: `benchmarks/perf/layers.py` sets it for `executor.procs_*`",
    "ExecutionSettings.task_timeout":
        "safety: the drivers' one switch for straggler speculation (fault recovery); "
        "`RetryPolicy.task_timeout` fails `test_speculative_copy_wins_over_straggler`",
    "JoinConfig.sample_rate":
        "benchmark: `benchmarks/perf/layers.py` samples at it (`grid.sample_stats_s`); "
        "`benchmarks/bench_ablations.py::test_ablation_sample_rate` sweeps it",
    "JoinConfig.marking_ordering":
        "benchmark: `benchmarks/bench_ablations.py::test_ablation_edge_ordering` "
        "(Sect. 5.2's ordering ablation) runs `arbitrary`",
    "GeneralizedJoinConfig.quadtree_capacity": _QUADTREE,
    "GeneralizedJoinConfig.sample_rate": _QUADTREE,
    "GeneralizedJoinConfig.seed": _QUADTREE,
    "ServerConfig.max_inflight": _SERVED,
    "ServerConfig.max_queue": _SERVED,
    "ServerConfig.backend": _SERVED,
    "op.ping": "benchmark: `served` times `serving.spawn_to_ping_s` and "
               "`serving.ping_p50_ms` through `JoinClient.ping`",
    "query.kernel": "benchmark: `served` sends it (benchmarks/perf/README.md)",
    "query.seed": "benchmark: `served` sends it (benchmarks/perf/README.md)",
    "repro join --quiet": "benchmark: the one-shot workloads run `repro join ... --quiet`",
    "cache.shared_pools": "A/B: a `processes` join repeated as a server runs it "
                          "(`gaussian_clusters` 20k x 20k, eps 0.004, 4 simulated / 2 OS "
                          "workers, 7 joins after a warm-up, 2 rounds, 2 vCPUs): p50 "
                          "47-59 ms without, 31-34 ms with; `threads` within noise",
    # none at 3e396eb; each gained the test named here, which the row
    # reads from then on
    "repro join --trace": "gained `test_cli.py::TestJoin::test_join_writes_its_trace`",
    "repro join --trace-format": "gained `test_cli.py::TestJoin::test_join_writes_its_trace`",
    "repro query --port": "gained `test_serving.py::TestTcpAndTelemetry::"
                          "test_cli_queries_a_tcp_server` (the client half of "
                          "`ServerConfig.port`)",
    "ServerConfig.slo_error_rate": "gained `test_obs.py::TestRenderStats::"
                                   "test_all_sections_render` (its server arms the "
                                   "error-rate objective)",
    "query.resolution_factor": "gained `test_serving.py::TestServedResults::"
                               "test_distinct_configs_do_not_share_results` (a "
                               "served factor-3 grid; a plan dimension `tuning: "
                               "auto` pins)",
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


def run_entry(tree: str, entry: Entry, timeout: float, full: bool = False) -> str:
    """``entry``'s first failing test, ``none`` or ``timeout``; ``full``
    runs every test, with the entry's options."""
    path = os.path.join(tree, entry.file)
    with open(path, encoding="utf-8") as fh:
        original = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(original.replace(entry.old, entry.new, 1))
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    tests = entry.tests
    if full:  # keep the options, and the value after ``-k``
        tests = tuple(a for i, a in enumerate(tests)
                      if a.startswith("-") or (i and tests[i - 1] == "-k"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
           *tests]
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
    parser.add_argument("--full", action="store_true",
                        help="run the whole suite for each entry (its options "
                             "still apply): confirms a `none` row")
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
        print("| id | kind | first failing test | verdict |")
        print("|----|------|--------------------|---------|")
        start = time.monotonic()
        for entry in entries:
            if entry.id in DELETED and gone(tree, entry):
                first = "deleted"
            else:
                first = run_entry(tree, entry, args.timeout, args.full)
            print(f"| `{entry.id}` | {entry.kind} | {first} | {verdict(entry, first)} |",
                  flush=True)
        print(f"swept in {time.monotonic() - start:.0f} s")
    finally:
        shutil.rmtree(tree, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
