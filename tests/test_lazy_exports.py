"""Package exports resolve lazily but completely.

Every package ``__init__`` declares its public names in one table
(``repro._lazy.lazy_exports``); these checks hold each table to the
surface the eager imports used to give: ``__all__``, ``dir()``, star
imports and a clean ``AttributeError`` for unknown names.
"""

from __future__ import annotations

import importlib
import types

import pytest

PACKAGES = ["repro", "repro.baselines", "repro.core", "repro.device",
            "repro.eval", "repro.graph", "repro.mapreduce", "repro.obs",
            "repro.pipeline", "repro.sequence", "repro.synthdata",
            "repro.util"]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve_and_are_listed(name):
    package = importlib.import_module(name)
    assert package.__all__
    assert len(set(package.__all__)) == len(package.__all__)
    listed = dir(package)
    for export in package.__all__:
        assert getattr(package, export) is not None, export
        assert export in listed, export


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_binds_all(name):
    package = importlib.import_module(name)
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    for export in package.__all__:
        assert namespace[export] is getattr(package, export), export


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_name_raises_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_export"):
        package.no_such_export
    assert not hasattr(package, "__no_such_dunder__")


def test_exports_name_their_defining_module():
    """A resolved export is the defining module's object, not a copy."""
    import repro
    import repro.core.pipeline
    import repro.eval

    assert repro.cluster_graph is repro.core.pipeline.cluster_graph
    assert repro.eval is importlib.import_module("repro.eval")
    assert isinstance(repro.synthdata, types.ModuleType)


def test_submodules_stay_reachable_as_attributes():
    """Subpackages outside a table still resolve, as they did when the
    package imported them eagerly."""
    import repro

    assert repro.core.GpClust.__module__ == "repro.core.pipeline"
    assert isinstance(repro.graph.stats, types.ModuleType)
