"""Export lists: every name in a module's ``__all__`` exists, so a deleted
name cannot linger in one."""

import importlib
import pkgutil

import pytest

import levy_gqmle

MODULES = ["levy_gqmle"] + [f"levy_gqmle.{m.name}" for m in pkgutil.iter_modules(levy_gqmle.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(getattr(importlib.import_module(name), "__all__", ())) <= set(namespace)
