"""scipy's f2py BLAS and LAPACK extensions without scipy.linalg's package init
(which imports numpy.f2py, numpy.testing and unittest), registered under their
own names, so a later ``import scipy.linalg`` reuses them, not a second copy."""
import importlib
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import scipy  # cheap; on Windows wheels it sets up scipy's DLL paths


def load(name: str):
    fullname = "scipy.linalg." + name
    if fullname in sys.modules:
        return sys.modules[fullname]
    finder = FileFinder(os.path.join(scipy.__path__[0], "linalg"),
                        (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(fullname)
    if spec is None:
        return importlib.import_module(fullname)
    module = module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module
