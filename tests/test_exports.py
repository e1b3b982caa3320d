"""Every name in a kreinsys module's __all__ resolves on that module, and
every name the package exports is listed in the __all__ of its module."""

import importlib
import pkgutil

import pytest

import kreinsys

MODULES = sorted(m.name for m in pkgutil.iter_modules(kreinsys.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"kreinsys.{name}")
    assert not [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]


def test_package_exports_are_listed():
    unlisted = []
    for name, obj in vars(kreinsys).items():
        home = getattr(obj, "__module__", None) or ""
        if name.startswith("_") or not home.startswith("kreinsys."):
            continue
        listed = getattr(importlib.import_module(home), "__all__", None)
        if listed is not None and name not in listed:
            unlisted.append(f"{home}.{name}")
    assert not unlisted
