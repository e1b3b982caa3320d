"""Every name in a kreinsys module's __all__ resolves on that module."""

import importlib
import pkgutil

import pytest

import kreinsys

MODULES = sorted(m.name for m in pkgutil.iter_modules(kreinsys.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"kreinsys.{name}")
    assert not [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
