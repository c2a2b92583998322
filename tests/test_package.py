"""Package surface: every name a module exports in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import gammalab

MODULES = ["gammalab"] + [f"gammalab.{m.name}"
                          for m in pkgutil.iter_modules(gammalab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [e for e in exported if not hasattr(module, e)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= namespace.keys()
