"""The package loads only the scipy modules that a fit runs.

The test process has already imported scipy.optimize and scipy.linalg
(the oracle tests use them), so the checks of what a fit loads run in a
fresh interpreter.
"""
import importlib.machinery
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import json, sys
import numpy as np
import dvarimax

def loaded():
    return {name: name in sys.modules
            for name in ("scipy.optimize", "scipy.sparse", "scipy.sparse.linalg")}

report = {"import": loaded()}
rng = np.random.default_rng(0)
for label, (p, n) in (("dense", (20, 500)), ("gram_free", (800, 800))):
    x = rng.standard_normal((p, 5)) @ rng.standard_normal((5, n)) * 3.0
    x += rng.standard_normal((p, n))
    dvarimax.estimate_loading(x, 5, "base", dvarimax.InitScheme.random(),
                              dvarimax.RotationSolveConfig(step_size=1e-2,
                                                           max_iters=50),
                              np.random.default_rng(1))
    report[label] = loaded()
print(json.dumps(report))
"""


def _fresh_report(probe):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(run.stdout.splitlines()[-1])


def test_import_and_dense_fits_leave_optimize_and_sparse_linalg_unloaded():
    report = _fresh_report(_PROBE)
    unloaded = {"scipy.optimize": False, "scipy.sparse": False,
                "scipy.sparse.linalg": False}
    assert report["import"] == unloaded
    # 20 x 500 takes the dense subset solve
    assert report["dense"] == unloaded
    # 800 x 800 with r = 5 takes the Gram-free Lanczos route, which drives
    # ARPACK's extension without the scipy.sparse.linalg package
    assert report["gram_free"] == unloaded


# The same fits, watching scipy.linalg and what its package init imports;
# it also records whether the three extensions are registered under their
# dotted names at import, and whether scipy.linalg and scipy.sparse.linalg,
# once imported after the fits, hold the very objects the package loaded.
_LINALG_PROBE = _PROBE.replace(
    '("scipy.optimize", "scipy.sparse", "scipy.sparse.linalg")',
    '("scipy.linalg", "numpy.f2py", "numpy.testing")'
).replace(
    'report = {"import": loaded()}',
    'report = {"import": loaded(), "registered": [\n'
    '    sys.modules.get("scipy.linalg._fblas") is dvarimax.rotation._fblas,\n'
    '    sys.modules.get("scipy.linalg._flapack") is dvarimax.spectral._flapack,\n'
    '    sys.modules.get("scipy.sparse.linalg._eigen.arpack._arpacklib")\n'
    '    is dvarimax.spectral._arpacklib]}'
).replace(
    "print(json.dumps(report))",
    "import scipy.linalg.blas, scipy.linalg.lapack, scipy.sparse.linalg\n"
    "from scipy.sparse.linalg._eigen.arpack import arpack\n"
    "report['one_copy'] = [scipy.linalg.blas.dgemv is dvarimax.rotation.dgemv,\n"
    "                      scipy.linalg.blas._fblas is dvarimax.rotation._fblas,\n"
    "                      scipy.linalg.lapack._flapack is dvarimax.spectral._flapack,\n"
    "                      arpack._arpacklib is dvarimax.spectral._arpacklib]\n"
    "print(json.dumps(report))")


def test_import_and_dense_fits_leave_scipy_linalg_unloaded():
    report = _fresh_report(_LINALG_PROBE)
    unloaded = {"scipy.linalg": False, "numpy.f2py": False, "numpy.testing": False}
    assert report["import"] == unloaded
    assert report["registered"] == [True, True, True]
    # 20 x 500 takes the dense subset solve, dsyevr included
    assert report["dense"] == unloaded
    # 800 x 800 with r = 5 takes the Gram-free Lanczos route
    assert report["gram_free"] == unloaded
    assert report["one_copy"] == [True, True, True, True]


def test_loader_falls_back_to_a_plain_import(monkeypatch):
    from dvarimax import _fortran, rotation, spectral
    lookups = []

    class NoFile(importlib.machinery.FileFinder):
        def find_spec(self, fullname, target=None):
            lookups.append(fullname)

    # The plain import also binds the new module as an attribute of its
    # package; the module and attribute entries are restored afterwards.
    import scipy.linalg
    import scipy.sparse.linalg  # noqa: F401 (imports the ARPACK package)
    monkeypatch.setattr(_fortran, "FileFinder", NoFile)
    loaded = {}
    for package, name in (("scipy.linalg", "_fblas"),
                          ("scipy.sparse.linalg._eigen.arpack", "_arpacklib")):
        fullname = f"{package}.{name}"
        monkeypatch.delitem(sys.modules, fullname)
        monkeypatch.setattr(sys.modules[package], name, None, raising=False)
        loaded[name] = _fortran.load(package, name)
        assert loaded[name].__name__ == fullname
        assert sys.modules[fullname] is loaded[name]
    assert lookups == ["scipy.linalg._fblas",
                       "scipy.sparse.linalg._eigen.arpack._arpacklib"]
    rng = np.random.default_rng(3)
    a, v = rng.standard_normal((7, 4)), rng.standard_normal(4)
    fblas = loaded["_fblas"]
    assert fblas.dgemv(1.0, a, v).tobytes() == rotation.dgemv(1.0, a, v).tobytes()
    gram = rng.standard_normal((60, 120))
    gram = gram @ gram.T
    want = spectral._lanczos(gram.dot, 60, 3)
    monkeypatch.setattr(spectral, "_arpacklib", loaded["_arpacklib"])
    got = spectral._lanczos(gram.dot, 60, 3)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
