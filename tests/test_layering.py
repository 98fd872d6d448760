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
  (The physical-plan *dataclasses* live in ``repro.joins.plan`` so the
  drivers can build plans without an upward import; ``repro.planner``
  re-exports them.)

The AST walk sees what a module *may* import; the runtime checks at the
end start fresh interpreters and read ``sys.modules`` to see what a
process *does* import: package ``__init__`` modules export lazily
(``repro._lazy``), so a process pays only for the layers it runs.
"""

import ast
import os

import pytest

SRC_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

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
        "repro.engine.partitioner",
        "repro.engine.rdd",
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
    # through ExecutionSettings.history, and repro top takes an opaque
    # poll() callable instead of importing the serving client
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
        "repro.engine.partitioner",
        "repro.engine.rdd",
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
    assert "repro.planner.physical" in names
    assert "repro.joins.plan" in names
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
    """Drivers build physical plans via repro.joins.plan, never upward."""
    modules = dict(MODULES)
    for driver in ("repro.joins.distance_join", "repro.joins.object_join",
                   "repro.joins.generalized_join", "repro.joins.spark_style"):
        imports = imported_modules(driver, modules[driver])
        assert any(in_layer(i, "repro.joins.plan") for i in imports), (
            f"{driver} should build its stages from a physical plan"
        )
        assert not any(in_layer(i, "repro.planner") for i in imports)


def test_obs_sits_between_telemetry_and_serving():
    """repro.obs builds on telemetry only; serving and the CLI consume it."""
    modules = dict(MODULES)
    names = set(modules)
    for expected in ("repro.obs", "repro.obs.history", "repro.obs.exporter",
                     "repro.obs.slo", "repro.obs.top"):
        assert expected in names
    # obs imports nothing from repro except engine.telemetry (and the
    # layer-free lazy-export helper every package __init__ uses)
    for module, path in MODULES:
        if not in_layer(module, "repro.obs"):
            continue
        for imported in imported_modules(module, path):
            if imported.startswith("repro."):
                assert (
                    in_layer(imported, "repro.engine.telemetry")
                    or in_layer(imported, "repro.obs")
                    or in_layer(imported, "repro._lazy")
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


def test_the_attempt_policy_is_read_in_one_module():
    """Written once: the retry budget and the backoff are the attempt
    ledger's alone.  No other module of ``repro.engine`` reads
    ``max_retries`` or calls ``backoff`` on a policy (``self.`` inside
    ``RetryPolicy`` is the declaration; ``task_timeout`` may still size a
    transport's wait tick; the shuffle's fetch-retry loop lives in
    ``repro.joins`` and reads a different budget)."""
    readers = set()
    for module, path in MODULES:
        if not in_layer(module, "repro.engine"):
            continue
        with open(path) as f:
            tree = ast.parse(f.read(), filename=path)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ("max_retries", "backoff")
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")
            ):
                readers.add(module)
    assert readers == {"repro.engine.attempts"}


def test_there_is_one_lru():
    """``OrderedDict`` is what a hand-written LRU is made of: only the one
    cache primitive and the block store's memory tier (whose eviction is a
    demotion to disk, not a drop) may import it."""
    importers = {
        module
        for module, path in MODULES
        if "collections.OrderedDict" in imported_modules(module, path)
    }
    assert importers == {"repro.engine.lru", "repro.engine.blockstore.store"}


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
assert len(distance_join(r, s, JoinConfig(eps=0.05, local_kernel="grid_hash"))) > 0
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
