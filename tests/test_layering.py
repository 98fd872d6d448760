"""Import-DAG enforcement for the staged pipeline layering.

The refactor's layering contract, checked by walking every module's AST
(no imports are executed):

- ``repro.engine`` is the bottom layer: it must never import the join
  drivers (``repro.joins``), the CLI (``repro.cli``) or the benchmark
  helpers (``repro.bench``).  Kernels reach the executor through the
  :mod:`repro.engine.kernels` registry, not the other way around.
- ``repro.joins`` (the stages and drivers) must never import the CLI or
  the benchmark layer.
- ``repro.serving`` (the resident join server) composes the drivers and
  the engine; only the CLI sits above it, and nothing below it may
  import it.
- ``repro.planner`` (the query-plan layer) sits above ``repro.core``/
  ``repro.engine``/``repro.joins`` and below ``repro.serving`` and the
  CLI: the planner prices and chooses plans, serving and the CLI consume
  them, and nothing the planner prices may import the planner back.
  (Physical plans live in ``repro.joins.plan``, beside the drivers whose
  stage lists they name.)

The AST walk sees what a module *may* import; the runtime checks at the
end start fresh interpreters and read ``sys.modules`` to see what a
process *does* import: package ``__init__`` modules export lazily
(``repro._lazy``), so a process pays only for the layers it runs.
"""

import ast
import functools
import os
import re
from collections import Counter

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src")

#: layer prefix -> module prefixes it must never depend on
FORBIDDEN = {
    "repro.engine": ("repro.joins", "repro.cli", "repro.bench",
                     "repro.serving", "repro.planner", "repro.obs"),
    "repro.joins": ("repro.cli", "repro.bench", "repro.serving",
                    "repro.planner", "repro.obs"),
    # the serving layer sits on top of the drivers but below the CLI:
    # it composes joins + engine, and nothing below it may know it exists
    "repro.serving": ("repro.cli", "repro.bench"),
    # the planner prices what core/engine/joins build; it sits above all
    # three and below serving/cli, so nothing it prices imports it back
    "repro.planner": ("repro.cli", "repro.bench", "repro.serving",
                      "repro.obs"),
    # the cost model counts its sample join with the production kernel,
    # not with the test oracle
    "repro.core": ("repro.cli", "repro.bench", "repro.serving",
                   "repro.planner", "repro.obs", "repro.verify"),
    # telemetry is the engine's bottom layer: everything above publishes
    # into it, so it must not import any engine sibling (or anything
    # higher) -- only the stdlib and numpy-free leaves
    "repro.engine.telemetry": (
        "repro.engine.blockstore",
        "repro.engine.cluster",
        "repro.engine.executor",
        "repro.engine.faults",
        "repro.engine.kernels",
        "repro.engine.lpt",
        "repro.engine.metrics",
        "repro.engine.shuffle",
        "repro.engine.sorting",
        "repro.joins",
        "repro.cli",
        "repro.bench",
        "repro.obs",
    ),
    # the continuous-observability layer sits directly above
    # engine.telemetry and below serving/cli: it may import telemetry
    # (and nothing else from repro), the pipeline reaches it duck-typed
    # through ExecutionSettings.history, and the stats renderer takes a
    # payload instead of importing the serving client
    "repro.obs": (
        "repro.joins",
        "repro.cli",
        "repro.bench",
        "repro.serving",
        "repro.planner",
        "repro.core",
        "repro.engine.blockstore",
        "repro.engine.cluster",
        "repro.engine.executor",
        "repro.engine.faults",
        "repro.engine.kernels",
        "repro.engine.lpt",
        "repro.engine.metrics",
        "repro.engine.shuffle",
        "repro.engine.sorting",
    ),
}


def iter_modules():
    pkg_root = os.path.join(SRC_ROOT, "repro")
    for dirpath, _dirnames, filenames in os.walk(pkg_root):
        for fname in sorted(filenames):
            if not fname.endswith(".py"):
                continue
            path = os.path.join(dirpath, fname)
            rel = os.path.relpath(path, SRC_ROOT)
            module = rel[: -len(".py")].replace(os.sep, ".")
            if module.endswith(".__init__"):
                module = module[: -len(".__init__")]
            yield module, path


def imported_modules(module, path):
    """Absolute names of every module imported by ``module``."""
    with open(path) as f:
        tree = ast.parse(f.read(), filename=path)
    package_parts = module.split(".")[:-1]
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # resolve "from ..x import y" relative imports
                base = package_parts[: len(package_parts) - node.level + 1]
                prefix = ".".join(base + ([node.module] if node.module else []))
            else:
                prefix = node.module or ""
            if prefix:
                out.add(prefix)
                # "from pkg import name" may bind the submodule pkg.name
                out.update(f"{prefix}.{alias.name}" for alias in node.names)
    return out


MODULES = sorted(iter_modules())


def in_layer(module, layer):
    return module == layer or module.startswith(layer + ".")


@pytest.mark.parametrize("layer", sorted(FORBIDDEN))
def test_layer_never_imports_upward(layer):
    forbidden = FORBIDDEN[layer]
    violations = []
    for module, path in MODULES:
        if not in_layer(module, layer):
            continue
        for imported in imported_modules(module, path):
            for banned in forbidden:
                if in_layer(imported, banned):
                    violations.append(f"{module} imports {imported}")
    assert not violations, "\n".join(sorted(violations))


def test_layer_check_sees_the_tree():
    """Guard against the walker silently scanning nothing."""
    names = {m for m, _ in MODULES}
    assert "repro.engine.executor" in names
    assert "repro.joins.pipeline" in names
    assert "repro.cli" in names
    assert len(names) > 40


def test_stages_live_below_the_cli():
    """The CLI composes drivers; drivers and stages never see the CLI."""
    pipeline = dict(MODULES)["repro.joins.pipeline"]
    imports = imported_modules("repro.joins.pipeline", pipeline)
    assert not any(in_layer(i, "repro.cli") for i in imports)
    assert any(in_layer(i, "repro.engine") for i in imports)


def test_planner_sits_between_joins_and_serving():
    """The planner prices joins/core below it; serving consumes it above."""
    modules = dict(MODULES)
    names = set(modules)
    assert "repro.planner" in names
    assert "repro.planner.planner" in names
    assert "repro.planner.logical" in names
    # the planner builds on core + joins (downward imports exist) ...
    planner_imports = set()
    for module, path in MODULES:
        if in_layer(module, "repro.planner"):
            planner_imports |= imported_modules(module, path)
    assert any(in_layer(i, "repro.core") for i in planner_imports)
    assert any(in_layer(i, "repro.joins") for i in planner_imports)
    # ... and serving + cli consume the planner from above
    for consumer in ("repro.serving.server", "repro.cli"):
        imports = imported_modules(consumer, modules[consumer])
        assert any(in_layer(i, "repro.planner") for i in imports), (
            f"{consumer} should plan through repro.planner"
        )


def test_drivers_build_plans_without_importing_the_planner():
    """Drivers own their stage lists and never import the planner."""
    modules = dict(MODULES)
    for driver in ("repro.joins.distance_join", "repro.joins.object_join",
                   "repro.joins.generalized_join"):
        imports = imported_modules(driver, modules[driver])
        assert not any(in_layer(i, "repro.planner") for i in imports)


def test_obs_sits_between_telemetry_and_serving():
    """repro.obs builds on telemetry only; serving and the CLI consume it."""
    modules = dict(MODULES)
    names = set(modules)
    for expected in ("repro.obs", "repro.obs.history", "repro.obs.exporter",
                     "repro.obs.slo", "repro.obs.top"):
        assert expected in names
    # obs imports nothing from repro except engine.telemetry (and the
    # layer-free helpers: the lazy exports every package __init__ uses,
    # the field checks every config shares)
    for module, path in MODULES:
        if not in_layer(module, "repro.obs"):
            continue
        for imported in imported_modules(module, path):
            if imported.startswith("repro."):
                assert (
                    in_layer(imported, "repro.engine.telemetry")
                    or in_layer(imported, "repro.obs")
                    or in_layer(imported, "repro._lazy")
                    or in_layer(imported, "repro._checks")
                ), f"{module} imports {imported}"
    # serving and the CLI compose it from above
    for consumer in ("repro.serving.server", "repro.cli"):
        imports = imported_modules(consumer, modules[consumer])
        assert any(in_layer(i, "repro.obs") for i in imports), (
            f"{consumer} should compose repro.obs"
        )


def test_telemetry_sits_below_executor_and_pipeline():
    """Executor and pipeline publish into telemetry, never the reverse."""
    modules = dict(MODULES)
    for consumer in ("repro.engine.executor", "repro.joins.pipeline"):
        imports = imported_modules(consumer, modules[consumer])
        assert any(in_layer(i, "repro.engine.telemetry") for i in imports), (
            f"{consumer} should publish into repro.engine.telemetry"
        )
    names = {m for m, _ in MODULES}
    assert "repro.engine.telemetry.spans" in names
    assert "repro.engine.telemetry.registry" in names


def test_executor_and_ledger_publish_no_metrics():
    """The executor and the attempt ledger report; they do not publish.
    Every number they keep is an ``ExecutionReport`` field the pipeline
    assigns to ``JoinMetrics``, and the job epilogue publishes it once,
    so neither module may name the metrics registry."""
    for consumer in ("repro.engine.executor", "repro.engine.attempts"):
        with open(dict(MODULES)[consumer]) as f:
            tree = ast.parse(f.read())
        named = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                named.update(alias.name for alias in node.names)
        assert "MetricsRegistry" not in named, consumer


def _dataclass_fields(tree):
    """``{class name: [annotated field names]}`` of a module's dataclasses."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [
            d.func if isinstance(d, ast.Call) else d for d in node.decorator_list
        ]
        if not any(
            getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
            for d in decorators
        ):
            continue
        out[node.name] = [
            stmt.target.id
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        ]
    return out


def test_execution_fields_are_declared_once():
    """``ExecutionSettings`` is the only declaration of the execution
    surface: the driver configs inherit it, so no dataclass under
    ``repro.joins`` may spell one of its field names again."""
    declared = {}
    for module, path in MODULES:
        if in_layer(module, "repro.joins"):
            with open(path) as f:
                for cls, names in _dataclass_fields(ast.parse(f.read())).items():
                    declared[f"{module}.{cls}"] = names
    execution = set(declared.pop("repro.joins.pipeline.ExecutionSettings"))
    # the run context is not a config: its ``telemetry`` is the resolved,
    # never-None bundle the settings' optional one defaults into
    assert declared.pop("repro.joins.pipeline.JoinContext")
    assert {"execution_backend", "faults", "spill", "telemetry"} <= execution
    assert len(declared) >= 5, "the AST walk lost the driver configs"
    redeclared = {
        cls: sorted(execution & set(names))
        for cls, names in declared.items()
        if execution & set(names)
    }
    assert not redeclared, redeclared


def test_query_spec_declares_no_join_field():
    """A join is configured in one place: the server's ``QuerySpec``
    carries one ``JoinConfig`` and declares none of its fields again,
    under the field's own name or its wire alias."""
    from dataclasses import fields

    from repro.joins.distance_join import JoinConfig
    from repro.serving.server import WIRE_ALIASES, QuerySpec

    join = {f.name for f in fields(JoinConfig)}
    assert set(WIRE_ALIASES.values()) <= join
    served = {f.name for f in fields(QuerySpec)}
    assert "config" in served
    assert not served & (join | set(WIRE_ALIASES)), served & (
        join | set(WIRE_ALIASES)
    )


def test_cli_declares_no_config_default():
    """A setting is declared once: every ``join`` / ``explain`` / ``serve``
    flag that sets a field of ``ExecutionSettings``, a join config or
    ``ServerConfig`` defaults to ``None``.  Only the flags a user gives
    are passed on, so the config's own default applies and its own
    check runs.  (``--eps`` sets a field without a default.)  A help text
    that names a default reads it off the config.  No string in the CLI
    quotes one."""
    import argparse
    from dataclasses import MISSING, fields

    from repro.cli import build_parser
    from repro.joins.distance_join import PLAN_FIELDS, JoinConfig
    from repro.joins.generalized_join import GeneralizedJoinConfig
    from repro.joins.object_join import ObjectJoinConfig
    from repro.serving.server import ServerConfig

    def defaulted(*configs):
        return {
            f.name for config in configs for f in fields(config)
            if f.default is not MISSING or f.default_factory is not MISSING
        }

    joins = defaulted(JoinConfig, ObjectJoinConfig, GeneralizedJoinConfig)
    owners = {  # command -> (fields it may set, flag dest -> field name)
        "join": (joins, PLAN_FIELDS),
        "explain": (joins, PLAN_FIELDS),
        "serve": (defaulted(ServerConfig), {"socket": "socket_path"}),
    }
    commands = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ).choices
    copies, unowned = [], {}
    for command, (owned, aliases) in owners.items():
        for action in commands[command]._actions:
            name = aliases.get(action.dest, action.dest)
            if name not in owned:
                unowned.setdefault(command, set()).add(action.dest)
            elif action.default is not None:
                copies.append(f"{command} {action.option_strings[0]}")
    assert not copies, copies
    # every plan dimension is a flag of join and explain ...
    for command in ("join", "explain"):
        assert not unowned[command] & set(PLAN_FIELDS)
    # ... and every serve flag sets the ServerConfig field of its dest,
    # but for the ones that configure no server
    assert unowned["serve"] == {"help", "quiet"}

    # Help texts too: one that names a default reads it off the config,
    # so it says the value the config holds ...
    owners["query"] = (joins, {"kernel": "local_kernel", "workers": "num_workers"})
    value_of = {
        f.name: f.default
        # the point join's value where the drivers share a field name
        for config in (ObjectJoinConfig, GeneralizedJoinConfig, ServerConfig,
                       JoinConfig)
        for f in fields(config) if f.default is not MISSING
    }
    stale = []
    for command, (owned, aliases) in owners.items():
        for action in commands[command]._actions:
            name = aliases.get(action.dest, action.dest)
            quoted = re.findall(r"default ([\w.]+)", action.help or "")
            if name in owned and quoted != [] and quoted != [str(value_of[name])]:
                stale.append(f"{command} {action.option_strings[0]}: {quoted}")
    assert not stale, stale
    # ... and no string in the CLI's source quotes a config's default
    values = {
        str(v) for v in value_of.values()
        if isinstance(v, (str, int, float)) and not isinstance(v, bool)
    }
    tree = ast.parse(open(os.path.join(SRC_ROOT, "repro", "cli.py")).read())
    copies = [
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and any(re.search(rf"\bdefault:? {re.escape(v)}\b", node.value)
                for v in values)
    ]
    assert not copies, copies


def _knockout_list():
    """``scripts/knockout.py`` as a module: its list, never its sweep."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "knockout", os.path.join(REPO_ROOT, "scripts", "knockout.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mechanism_has_a_knockout_row():
    """The mechanism audit covers what the program carries: every field of
    the execution, join and server configs, every wire op and
    query field, every backend and every ``repro`` flag has a row in
    ``scripts/knockout.py`` (a flag that sets a field shares the field's
    row), and every row's edit applies exactly once to this tree (a
    deleted mechanism's edit applies nowhere).  The sweep is not run."""
    import argparse
    from dataclasses import fields

    from repro.cli import build_parser
    from repro.engine.executor import BACKENDS
    from repro.joins.distance_join import PLAN_FIELDS, JoinConfig
    from repro.joins.generalized_join import GeneralizedJoinConfig
    from repro.joins.object_join import ObjectJoinConfig
    from repro.joins.pipeline import ExecutionSettings
    from repro.serving.protocol import OPS
    from repro.serving.server import QUERY_FIELDS, ServerConfig

    knockout = _knockout_list()
    live = [e for e in knockout.ENTRIES if e.id not in knockout.DELETED]
    ids = {e.id for e in live}
    assert len(ids) == len(live), "duplicate entry ids"

    inherited = {f.name for f in fields(ExecutionSettings)}
    joins = (JoinConfig, ObjectJoinConfig, GeneralizedJoinConfig)
    wanted = {
        f"{'ExecutionSettings' if c in joins and f.name in inherited else c.__name__}"
        f".{f.name}"
        for c in (ExecutionSettings, *joins, ServerConfig)
        for f in fields(c)
    }
    wanted |= {f"op.{op}" for op in OPS}
    wanted |= {f"query.{name}" for name in QUERY_FIELDS}
    wanted |= {f"backend.{name}" for name in BACKENDS}

    # a flag has its own row, or sets the field of a row
    owners = {
        "join": ("ExecutionSettings", *(c.__name__ for c in joins)),
        "explain": ("ExecutionSettings", *(c.__name__ for c in joins)),
        "serve": ("ServerConfig",),
        "query": ("query",),
    }
    renames = {"join": PLAN_FIELDS, "explain": PLAN_FIELDS,
               "serve": {"socket": "socket_path"}, "query": {}}
    commands = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ).choices
    unmatched = []
    for command, parser in commands.items():
        for action in parser._actions:
            if not action.option_strings or action.dest == "help":
                continue
            flag = f"repro {command} {action.option_strings[0]}"
            name = renames.get(command, {}).get(action.dest, action.dest)
            rows = {f"{owner}.{name}" for owner in owners.get(command, ())}
            if flag not in ids and not rows & ids:
                unmatched.append(flag)

    missing = sorted(wanted - ids) + unmatched
    assert not missing, f"no knockout row: {missing}"
    tree = REPO_ROOT
    assert not knockout.check(tree, live)
    kept = [e.id for e in knockout.ENTRIES
            if e.id in knockout.DELETED and not knockout.gone(tree, e)]
    assert not kept, f"deleted, but still in the program: {kept}"


def test_every_test_module_is_classified_for_the_knockout():
    """The knockout judges by contract tests only: every test module is
    classified once (contract, unit, or some contract tests of it), each
    named contract test exists, and no wall-bound perf guard is run as a
    contract test -- under load those fail whatever is stubbed."""
    knockout = _knockout_list()
    tests_dir = os.path.join(REPO_ROOT, "tests")
    modules = {
        name[len("test_"):-len(".py")] for name in os.listdir(tests_dir)
        if name.startswith("test_") and name.endswith(".py")
    }
    assert set(knockout.TESTS) == modules, (
        f"unclassified: {sorted(modules - set(knockout.TESTS))}; "
        f"no such module: {sorted(set(knockout.TESTS) - modules)}"
    )
    for name, kind in knockout.TESTS.items():
        if kind in (knockout.CONTRACT, knockout.UNIT):
            continue
        with open(os.path.join(tests_dir, f"test_{name}.py")) as f:
            source = f.read()
        for test in kind:
            for part in test.split("::"):
                assert re.search(rf"^\s*(class|def) {part}\b", source, re.M), (
                    f"{name}: no test {test!r}"
                )
    assert knockout.TESTS["perf_smoke"] == knockout.UNIT
    for wall_bound in (
        "tests/test_perf_smoke.py",
        "tests/test_obs.py::test_observability_overhead_under_two_percent",
        "tests/test_serving.py::test_serve_keeps_freed_temporaries_in_the_heap",
    ):
        assert not knockout.is_contract(wall_bound), wall_bound
    for contract in (
        "tests/test_driver_equivalence.py::test_distance_matches_pre_refactor_golden",
        "tests/test_oracle.py",
        "tests/test_property_join.py",
        "tests/test_executor_equivalence.py::test_backends_bit_identical",
        "tests/test_result_path.py::test_count_only_reports_the_same_counts_everywhere",
        "tests/test_fault_tolerance.py::test_chaos_matrix_bit_identical",
        "tests/test_cli.py",
        "tests/test_serving.py::TestServedResults",
    ):
        assert knockout.is_contract(contract), contract


def test_the_attempt_policy_is_read_in_one_module():
    """Written once: the retry budget and the backoff are the attempt
    ledger's alone.  No other module of ``repro.engine`` compares
    anything with ``max_retries`` or names the backoff (``backoff``,
    ``BACKOFF_BASE``, ``BACKOFF_CAP``); the executor only hands the
    settings' values on, and ``task_timeout`` may still size a
    transport's wait tick.  The shuffle's fetch-retry loop lives in
    ``repro.joins`` and reads a different budget."""
    backoff_names = {"backoff", "BACKOFF_BASE", "BACKOFF_CAP"}

    def name(node):
        return getattr(node, "id", None) or getattr(node, "attr", None)

    readers = set()
    for module, path in MODULES:
        if not in_layer(module, "repro.engine"):
            continue
        with open(path) as f:
            tree = ast.parse(f.read(), filename=path)
        for node in ast.walk(tree):
            compared = isinstance(node, ast.Compare) and any(
                name(side) == "max_retries" for side in (node.left, *node.comparators)
            )
            if compared or name(node) in backoff_names:
                readers.add(module)
    assert readers == {"repro.engine.attempts"}


def _state_reads(node, scope=""):
    """``(enclosing function, attr)`` of every state read under ``node``:
    a ``.value(...)``, ``.histogram(...).snapshot()``, ``.stats()``,
    ``.status()`` or ``shared_pool_stats()`` call."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _state_reads(child, f"{scope}.{child.name}".lstrip("."))
            continue
        if isinstance(child, ast.Call):
            func = child.func
            name = getattr(func, "attr", getattr(func, "id", None))
            if (
                name in ("value", "shared_pool_stats")
                or (name in ("stats", "status") and not child.args)
                or (
                    name == "snapshot"
                    and isinstance(func.value, ast.Call)
                    and getattr(func.value.func, "attr", None) == "histogram"
                )
            ):
                yield scope, name
        yield from _state_reads(child, scope)


def test_server_state_is_read_in_one_place():
    """Every number the join server reports is read once, in
    ``JoinServer.snapshot``, which ``stats``, ``/metrics`` and ``repro
    query --stats`` all render.  Writes (``counter(...).inc``,
    ``histogram(...).observe``) are exempt; so is the query response's
    own ``artifact_cache`` echo in ``_finish``, part of the query path."""
    path = os.path.join(SRC_ROOT, "repro", "serving", "server.py")
    with open(path) as f:
        reads = set(_state_reads(ast.parse(f.read(), filename=path)))
    assert {name for scope, name in reads if scope == "JoinServer.snapshot"} == {
        "value", "snapshot", "stats", "status", "shared_pool_stats"
    }
    assert {r for r in reads if r[0] != "JoinServer.snapshot"} == {
        ("JoinServer._finish", "stats")
    }


def test_there_is_one_lru():
    """``OrderedDict`` is what a hand-written LRU is made of: only the one
    cache primitive may import it."""
    importers = {
        module
        for module, path in MODULES
        if "collections.OrderedDict" in imported_modules(module, path)
    }
    assert importers == {"repro.engine.lru"}


def _calls(match):
    """``{(module, enclosing function)}`` of every call ``match(call)``
    accepts."""
    out = set()
    for module, path in MODULES:
        with open(path) as f:
            tree = ast.parse(f.read(), filename=path)
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.update(
                    (module, func.name)
                    for node in ast.walk(func)
                    if isinstance(node, ast.Call) and match(node)
                )
    return out


def _callers(attr, owner):
    """``{(module, enclosing function)}`` of every ``owner.attr(...)`` call."""
    return _calls(
        lambda call: isinstance(call.func, ast.Attribute)
        and call.func.attr == attr
        and isinstance(call.func.value, ast.Name)
        and call.func.value.id == owner
    )


def test_there_is_one_spill_writer():
    """Shuffle blocks and cell checkpoints share one atomic writer: one
    function serializes ``.npz`` spill files, and no other module of the
    block store opens temp files of its own."""
    assert _callers("savez", "np") == {
        ("repro.engine.blockstore.store", "_write")
    }
    mkstemp = {
        module for module, _ in _callers("mkstemp", "tempfile")
        if in_layer(module, "repro.engine.blockstore")
    }
    assert mkstemp == {"repro.engine.blockstore.store"}


def test_there_is_one_shared_memory_writer():
    """The ``processes`` backend publishes a plan through one segment: one
    function creates shared memory (under the names the hygiene sweep
    attributes to their owner), and one publisher calls it."""

    def creates_shared_memory(call):
        name = getattr(call.func, "attr", getattr(call.func, "id", None))
        return name == "SharedMemory" and any(
            kw.arg == "create"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in call.keywords
        )

    def calls_new_shm(call):
        return isinstance(call.func, ast.Name) and call.func.id == "_new_shm"

    assert _calls(creates_shared_memory) == {
        ("repro.engine.executor", "_new_shm")
    }
    assert len(_calls(calls_new_shm)) == 1


# ----------------------------------------------------------------------
# every public definition has a caller
# ----------------------------------------------------------------------
#: Where a use of a definition counts: the program, its scripts,
#: benchmarks and examples.  A test alone does not keep code alive.
CALLER_TREES = ("src", "scripts", "benchmarks", "examples")

#: The public definitions of ``src/repro`` that nothing in
#: ``CALLER_TREES`` calls, each kept for the test that compares the
#: program against it (a reference) or the user doc that documents it.
UNCALLED = {
    "repro.agreements.marking.mark_quartet":
        "reference: test_marking_lockstep.py and test_property_join.py::"
        "test_lockstep_marking_is_mark_quartet_per_quartet compare the "
        "lockstep marking with Algorithm 1 run one quartet at a time",
    "repro.agreements.policies.UniformPolicy":
        "reference: test_property_join.py builds the universal graphs "
        "through the policy interface the adaptive ones use",
    "repro.data.wkt.read_objects_wkt": "docs/USAGE.md documents repro.data.wkt",
    "repro.data.wkt.read_points_wkt": "docs/USAGE.md documents repro.data.wkt",
    "repro.data.wkt.write_objects_wkt": "docs/USAGE.md documents repro.data.wkt",
    "repro.data.wkt.write_points_wkt": "docs/USAGE.md documents repro.data.wkt",
    "repro.engine.shuffle.ShuffleStats.add_single":
        "reference: test_engine.py::TestShuffleStats::"
        "test_add_transfers_equals_per_record_accounting",
    "repro.grid.statistics.GridStatistics.edge_weight":
        "reference: test_agreement_store.py checks the graph's weight "
        "arrays against it, edge by edge",
    "repro.joins.postprocess.distinct_pairs":
        "reference: test_columnar_fusion.py::"
        "test_batched_distinct_matches_full_unique",
    "repro.partitioning.rect_partition.RectPartition.validate":
        "reference: test_partitioning.py checks every rectangulation with it",
    "repro.planner.accuracy.replay_reports":
        "docs/SERVING.md and docs/OBSERVABILITY.md: how a run history is "
        "replayed against the planner",
    "repro.engine.telemetry.spans.validate_span_tree":
        "reference: test_telemetry.py checks every recorded trace with it",
    "repro.verify.invariants.validate_join_result":
        "reference: test_recovery_invariants.py, test_fault_tolerance.py "
        "and test_robustness.py check join results with it",
    "repro.verify.oracle.brute_force_pairs":
        "reference: test_oracle.py pins the other oracles to it",
}


def _docstrings(tree):
    """The ``id`` of every docstring constant of a module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                out.add(id(first.value))
    return out


def _uses(node, skip, strings=True):
    """Every name ``node`` uses: names, attributes, imports under another
    name and identifier-like string constants (``getattr`` / registry
    keys), not the nodes in ``skip``."""
    for sub in ast.walk(node):
        if id(sub) in skip:
            continue
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias) and sub.asname:
            yield sub.name.rpartition(".")[2]  # used under another name
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            parts = sub.value.split(".")
            if all(part.isidentifier() for part in parts):
                yield from parts


def _public_definitions(module, tree):
    """``(qualified name, name, node, enclosing class)`` of every public
    top-level function and class of a module, and of every public method
    (the class by its qualified name; ``None`` at top level)."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) or node.name.startswith("_"):
            continue
        qual = f"{module}.{node.name}"
        yield qual, node.name, node, None
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not sub.name.startswith("_"):
                    yield f"{qual}.{sub.name}", sub.name, sub, qual


@functools.cache
def _caller_index():
    """``(uses, definitions)``: how often each name is used in
    ``CALLER_TREES``, and per public definition of ``src/repro`` its
    ``(qualified name, name, uses inside it, enclosing class)``.
    Docstrings, comments, ``__all__`` and the package ``__init__`` export
    tables are not uses."""
    used, defs = Counter(), []
    for tree_root in CALLER_TREES:
        for dirpath, _dirnames, filenames in os.walk(os.path.join(REPO_ROOT, tree_root)):
            for fname in sorted(filenames):
                if not fname.endswith(".py"):
                    continue
                path = os.path.join(dirpath, fname)
                with open(path) as f:
                    tree = ast.parse(f.read(), filename=path)
                skip = _docstrings(tree)
                for node in tree.body:
                    if isinstance(node, ast.Assign) and any(
                        getattr(t, "id", None) == "__all__" for t in node.targets
                    ):
                        skip.update(id(sub) for sub in ast.walk(node))
                # an __init__'s strings are its lazy export table
                used.update(_uses(tree, skip, strings=fname != "__init__.py"))
                rel = os.path.relpath(path, SRC_ROOT)
                if tree_root == "src" and rel.startswith("repro" + os.sep):
                    module = rel[: -len(".py")].replace(os.sep, ".")
                    module = module.removesuffix(".__init__")
                    defs += [
                        (qual, name, Counter(_uses(node, skip)), cls)
                        for qual, name, node, cls in _public_definitions(module, tree)
                    ]
    return used, defs


def uncalled_definitions(allowed):
    """Qualified names of the public definitions in ``src/repro`` whose
    name no code in ``CALLER_TREES`` uses outside the definition itself
    and outside other uncalled definitions (a fixpoint: a helper only an
    uncalled definition calls is uncalled too).  The ``allowed``
    definitions are never uncalled, and their uses count."""
    used, defs = _caller_index()
    uncalled: set[str] = set()
    while True:
        # what uncalled code uses (a method of an uncalled class is
        # already inside the class)
        dead = Counter()
        for qual, _name, inner, cls in defs:
            if qual in uncalled and cls not in uncalled:
                dead.update(inner)
        found = {
            qual
            for qual, name, inner, _cls in defs
            if qual not in uncalled and qual not in allowed
            and used[name] - dead[name] - inner[name] <= 0
        }
        if not found:
            return uncalled
        uncalled |= found


def test_every_public_definition_has_a_caller():
    """A function, class or method of the program that only its own tests
    reach is a leftover: it goes, with its tests, or a test that compares
    the program against it (or a user doc that documents it) puts it in
    ``UNCALLED`` with that reason."""
    found = uncalled_definitions(UNCALLED)
    assert not found, "no caller outside tests:\n" + "\n".join(sorted(found))
    # an allowlisted name that is gone, or that gained a caller, leaves it
    defined = {qual for qual, *_ in _caller_index()[1]}
    assert set(UNCALLED) <= defined, sorted(set(UNCALLED) - defined)
    for qual in UNCALLED:
        assert qual in uncalled_definitions(set(UNCALLED) - {qual}), (
            f"{qual} has a caller now"
        )


# ----------------------------------------------------------------------
# the runtime import graph: what a fresh process actually loads
# ----------------------------------------------------------------------
#: what ``benchmarks/perf`` times as the start-up of a one-shot join
BENCH_IMPORTS = "import repro.joins.distance_join, repro.planner.planner"

#: never needed to build the CLI parser or to run ``repro join``
NOT_FOR_THE_CLI = ("scipy", "asyncio", "multiprocessing", "repro.serving",
                   "repro.bench", "repro.obs")
#: additionally never needed by a serial, fault-free, store-less join or
#: by the planner (``numpy.ma`` is what the first ``np.unique`` of a
#: process imports: 11-17 ms inside the first join)
NOT_FOR_A_JOIN = NOT_FOR_THE_CLI + ("repro.verify", "repro.baselines",
                                    "concurrent.futures.process", "numpy.ma")


def loaded_after(fresh_python, code, cwd=None):
    """``sys.modules`` of a fresh interpreter after it ran ``code``."""
    out = fresh_python(
        code + "\nimport sys\nprint('MODULES', *sorted(sys.modules))", cwd
    )
    return out.rsplit("MODULES", 1)[1].split()


def assert_not_loaded(loaded, banned):
    hits = [m for m in loaded if any(in_layer(m, b) for b in banned)]
    assert not hits, f"loaded at run time: {hits}"
    assert "repro._lazy" in loaded and "numpy" in loaded  # the probe ran


def test_building_the_parser_loads_no_server(fresh_python):
    loaded = loaded_after(fresh_python, "import repro.cli; repro.cli.build_parser()")
    assert_not_loaded(loaded, NOT_FOR_THE_CLI)


def test_a_join_and_a_plan_load_only_their_layers(fresh_python):
    loaded = loaded_after(fresh_python, BENCH_IMPORTS + """
from repro.data.generators import uniform
from repro.joins.distance_join import JoinConfig, distance_join
from repro.planner.planner import plan_join
r, s = uniform(400, seed=1), uniform(400, seed=2)
assert len(distance_join(r, s, JoinConfig(eps=0.05))) > 0
assert len(distance_join(r, s, JoinConfig(eps=0.05, local_kernel="plane_sweep"))) > 0
assert plan_join(r, s, 0.05, seed=1).config.eps == 0.05
""")
    assert_not_loaded(loaded, NOT_FOR_A_JOIN)


def test_repro_join_loads_no_scipy_and_no_server(fresh_python, tmp_path):
    loaded = loaded_after(fresh_python, """
import repro.cli
from repro.data.generators import uniform
from repro.data.io import write_points_text
write_points_text(uniform(300, seed=1), "r.txt")
write_points_text(uniform(300, seed=2), "s.txt")
assert repro.cli.main(["join", "--r", "r.txt", "--s", "s.txt",
                       "--eps", "0.05", "--method", "lpib"]) == 0
""", cwd=str(tmp_path))
    assert_not_loaded(loaded, NOT_FOR_THE_CLI)
