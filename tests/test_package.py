"""Tests of the package surface."""
import importlib
import pkgutil

import dvarimax


def test_every_listed_export_resolves():
    modules = [dvarimax] + [
        importlib.import_module(f"dvarimax.{info.name}")
        for info in pkgutil.iter_modules(dvarimax.__path__)]
    for module in modules:
        exports = getattr(module, "__all__", ())
        missing = [name for name in exports if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ lists {missing}"
    namespace = {}
    exec("from dvarimax import *", namespace)
    assert set(dvarimax.__all__) <= set(namespace)
