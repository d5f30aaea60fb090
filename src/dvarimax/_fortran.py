"""scipy's compiled BLAS, LAPACK and ARPACK extensions without the init of
the packages that hold them (scipy.linalg's imports numpy.f2py, numpy.testing
and unittest; scipy.sparse.linalg's imports scipy.sparse and scipy.linalg),
registered under their own dotted names, so a later import of the package
reuses them, not a second copy."""
import importlib
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import scipy  # cheap; on Windows wheels it sets up scipy's DLL paths


def load(package: str, name: str):
    """The extension ``package.name``, where ``package`` is a scipy
    subpackage such as ``"scipy.linalg"``; a plain import if its file is
    not found."""
    fullname = f"{package}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    finder = FileFinder(os.path.join(scipy.__path__[0], *package.split(".")[1:]),
                        (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(fullname)
    if spec is None:
        return importlib.import_module(fullname)
    module = module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module
