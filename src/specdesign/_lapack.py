"""The LAPACK routines of the package, without importing ``scipy.linalg``.

Importing ``scipy.linalg`` runs its package ``__init__`` and the array-API
layer of ``scipy._lib`` (which pulls in ``numpy.f2py`` and
``numpy.testing``): 0.27-0.30 s on a 2-vCPU host, most of a short CLI run.
The routines themselves live in scipy's compiled wrapper
``scipy/linalg/_flapack``, which needs only numpy and loads in a few ms.  It
is loaded here once, under its own name, so that a later
``import scipy.linalg`` finds it in ``sys.modules`` and shares it.  Where
the file is not found (or does not load on its own) the module comes from
``scipy.linalg`` after all; either way every call runs the same extension.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

_NAME = "scipy.linalg._flapack"


def _flapack_path() -> str | None:
    """Where scipy keeps its compiled LAPACK wrapper, or None."""
    spec = importlib.util.find_spec("scipy")
    for root in (spec.submodule_search_locations if spec else None) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _load():
    """scipy's ``_flapack`` extension module, loaded at most once."""
    path = _flapack_path()
    if path is not None:
        if _NAME in sys.modules:
            return sys.modules[_NAME]
        loader = importlib.machinery.ExtensionFileLoader(_NAME, path)
        spec = importlib.util.spec_from_file_location(_NAME, path, loader=loader)
        try:
            module = importlib.util.module_from_spec(spec)
        except ImportError:
            pass   # e.g. a shared library that only scipy's __init__ makes visible
        else:
            sys.modules[_NAME] = module
            loader.exec_module(module)
            return module
    from scipy.linalg import _flapack
    return _flapack


_flapack = _load()
dtbtrs = _flapack.dtbtrs
dstebz = _flapack.dstebz
dstein = _flapack.dstein
dsbevx = _flapack.dsbevx
