"""Lazy package exports (PEP 562).

Each package ``__init__`` declares one table mapping every public name to
the module that defines it, relative to the package::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "CSRGraph": ".csr",
        "load_npz": ".io",
    })

Importing the package loads nothing else; a name's module is imported on
the first read of that name, and the value is then cached in the package
namespace so later reads are plain attribute hits.  A name whose module is
the package's own submodule of that name (``"eval": ".eval"`` in
:mod:`repro`) resolves to the submodule.  Any other submodule not in the
table is still reachable as an attribute, as it was when the package
imported its submodules eagerly.

The point is set-up cost: a run that clusters a graph should not pay for
the baselines, the evaluation code or SciPy.  Modules on the timed path
import what they use at their top level, so no import moves into a call.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from typing import Callable


def lazy_exports(package: str, exports: dict[str, str]
                 ) -> tuple[Callable, Callable, list[str]]:
    """Return ``(__getattr__, __dir__, __all__)`` for ``package``."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        target = exports.get(name)
        if target is None:
            submodule = f"{package}.{name}"
            if name.startswith("__") or \
                    importlib.util.find_spec(submodule) is None:
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}")
            return importlib.import_module(submodule)
        module = importlib.import_module(target, package)
        value = (module if module.__name__ == f"{package}.{name}"
                 else getattr(module, name))
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__, list(exports)
