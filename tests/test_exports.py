"""Every exported name resolves: a deleted function cannot stay in an __all__."""

import importlib
import inspect
import pkgutil

import pytest

import shqp

MODULES = ["shqp"] + [f"shqp.{m.name}" for m in pkgutil.iter_modules(shqp.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"


@pytest.mark.parametrize("name", shqp.__all__)
def test_each_package_name_is_exported_by_its_submodule(name):
    """shqp.__all__ is derived from its imports: each name is a class or
    function its defining submodule exports, never a module."""
    value = getattr(shqp, name)
    assert not inspect.ismodule(value)
    assert name in importlib.import_module(value.__module__).__all__
