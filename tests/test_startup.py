"""The package loads only the scipy modules that a fit runs.

The test process has already imported scipy.optimize (the oracle tests
use it), so the checks run in a fresh interpreter.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import json, sys
import numpy as np
import dvarimax

def loaded():
    return {name: name in sys.modules
            for name in ("scipy.optimize", "scipy.sparse.linalg")}

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


def test_import_and_dense_fits_leave_optimize_and_sparse_linalg_unloaded():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, check=True)
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["import"] == {"scipy.optimize": False, "scipy.sparse.linalg": False}
    # 20 x 500 takes the dense subset solve
    assert report["dense"] == {"scipy.optimize": False, "scipy.sparse.linalg": False}
    # 800 x 800 with r = 5 takes the Gram-free Lanczos route
    assert report["gram_free"] == {"scipy.optimize": False, "scipy.sparse.linalg": True}
