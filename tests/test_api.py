import importlib
import pkgutil

import pytest

import rwre

MODULES = ["rwre"] + [f"rwre.{info.name}" for info in pkgutil.iter_modules(rwre.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    stale = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not stale, f"{name}.__all__ lists missing names {stale}"
