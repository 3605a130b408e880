"""Every exported name resolves: a deleted function cannot stay in an __all__."""

import importlib
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

