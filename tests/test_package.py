"""Tests of the package surface."""
import importlib
import pkgutil
from pathlib import Path

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


def test_readme_library_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf8")
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert 0 <= namespace["error"] < 1
