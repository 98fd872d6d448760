"""The contract of the lazily exporting package ``__init__`` modules.

Every package re-exports its public names through ``repro._lazy``: a name
is imported from its submodule on first access.  Whatever worked with the
eager ``__init__`` modules must keep working -- attribute access,
``from pkg import name``, ``from pkg import *``, ``dir()``, pickling --
and an import of the package alone must load none of its submodules'
dependencies.
"""

import importlib
import inspect
import pickle
import pkgutil
import types

import pytest

import repro

PACKAGES = ["repro"] + [
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.ispkg
]
EXPORTING = [
    name for name in PACKAGES
    if hasattr(importlib.import_module(name), "__all__")
]


def test_every_package_exports():
    assert set(PACKAGES) - set(EXPORTING) == set()
    assert len(EXPORTING) >= 18


@pytest.mark.parametrize("name", EXPORTING)
def test_exports_resolve(name):
    package = importlib.import_module(name)
    exported = package.__all__
    assert exported and len(set(exported)) == len(exported)
    listed = dir(package)
    for attr in exported:
        value = getattr(package, attr)
        assert attr in listed
        assert not isinstance(value, types.ModuleType), (
            f"{name}.{attr} resolved to a submodule, not the name it exports"
        )
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


@pytest.mark.parametrize("name", EXPORTING)
def test_unknown_name_raises(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    assert not hasattr(package, "no_such_name")
    with pytest.raises(ImportError):
        exec(f"from {name} import no_such_name", {})


def test_submodules_stay_importable_by_name():
    from repro.joins import local, pipeline

    assert isinstance(local, types.ModuleType)
    assert isinstance(pipeline, types.ModuleType)
    # no export shadows its own submodule: the driver module keeps its
    # name, and the function lives in it and at the top level
    import repro.joins.distance_join as driver
    from repro.joins import distance_join

    assert isinstance(driver, types.ModuleType)
    assert distance_join is driver is repro.joins.distance_join
    assert inspect.isfunction(repro.distance_join)
    assert driver.distance_join is repro.distance_join


def test_pickle_round_trips_through_the_lazy_path():
    cfg = repro.JoinConfig(eps=0.05, method="diff", num_workers=3)
    assert pickle.loads(pickle.dumps(cfg)) == cfg
    r = repro.uniform(200, seed=1)
    s = repro.uniform(200, seed=2)
    result = repro.distance_join(r, s, cfg)
    assert type(result) is repro.joins.JoinResult
    back = pickle.loads(pickle.dumps(result))
    assert type(back) is repro.JoinResult
    assert back.pairs_set() == result.pairs_set() != set()
    assert back.metrics.replicated_total == result.metrics.replicated_total


def test_importing_the_package_imports_no_layer(fresh_python):
    """``import repro`` alone runs no submodule -- not even numpy loads --
    and a name then resolves through the table."""
    fresh_python(
        "import sys, repro, repro.engine, repro.data\n"
        "assert 'numpy' not in sys.modules, sorted(sys.modules)\n"
        "assert 'JoinConfig' in dir(repro) and 'JoinConfig' not in vars(repro)\n"
        "cfg = repro.JoinConfig(eps=0.1)\n"
        "assert vars(repro)['JoinConfig'] is type(cfg)\n"
        "assert 'repro.joins.distance_join' in sys.modules\n"
        "assert 'repro.joins.object_join' not in sys.modules\n"
    )
