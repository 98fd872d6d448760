"""Lazy re-exports for the package ``__init__`` modules (PEP 562).

A package that re-exports its submodules' public names eagerly makes every
process pay for every layer: ``import repro.joins.distance_join`` runs
``repro/__init__`` and ``repro/joins/__init__`` first.  The ``__init__``
modules instead declare *which submodule defines which name* and resolve a
name on first access, so a process imports only the layers it runs.
"""

from __future__ import annotations

import sys
from importlib import import_module


def _lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__, __all__)`` for the ``__init__`` of ``package``.

    ``exports`` maps a submodule (relative to ``package``) to the public
    names it defines.  A resolved name is stored in the package namespace,
    so ``__getattr__`` runs once per name.  A name that is also a submodule
    of the package cannot be exported this way: the import system binds
    the submodule over it.
    """
    origin = {name: sub for sub, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{origin[name]}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    return __getattr__, __dir__, sorted(origin)
