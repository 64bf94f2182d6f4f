"""Public names: every module's ``__all__`` resolves and star-imports cleanly."""

import importlib
import pkgutil

import pytest

import mfgfd

MODULES = sorted(m.name for m in pkgutil.iter_modules(mfgfd.__path__))


def test_modules_found():
    assert {"torus_grid", "hamiltonian", "dynamics", "solver"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"mfgfd.{name}")
    for export in getattr(module, "__all__", []):
        assert hasattr(module, export), f"mfgfd.{name}.__all__ names missing {export!r}"


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace: dict = {}
    exec(f"from mfgfd.{name} import *", namespace)
    for export in getattr(importlib.import_module(f"mfgfd.{name}"), "__all__", []):
        assert export in namespace
