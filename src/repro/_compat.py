"""Optional-dependency shims.

NumPy is an *optional* accelerator (``pip install .[fast]``): every
algorithm in this package has a pure-Python implementation that is
semantically identical, and the vectorized paths are only engaged when
``HAVE_NUMPY`` is true.  Import ``np`` from here instead of importing
numpy directly so a missing install degrades to the pure path instead
of raising at import time.

scipy (the ``bench`` extra) is only *located* here, never imported:
its one caller, the Student-t quantile in :mod:`repro.bench.stats`,
imports ``scipy.stats`` itself.  Importing it at module level would
cost every daemon and coordinator process most of its start-up time.
For the same reason :func:`lazy_exports` lets a package re-export its
submodules' names without importing them all up front.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from typing import Callable, Dict, List, Mapping, Tuple

try:  # pragma: no cover - exercised via the no-numpy CI leg
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False


def _installed(name: str) -> bool:
    """Whether ``name`` can be imported, without importing it."""
    try:
        return importlib.util.find_spec(name) is not None
    except (ImportError, ValueError):  # pragma: no cover - broken install
        return False


# scipy cannot import without NumPy, whatever find_spec says.
HAVE_SCIPY = HAVE_NUMPY and _installed("scipy")


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """PEP 562 ``__getattr__`` and ``__dir__`` for a package whose
    ``exports`` (name -> defining module) load on first access, so that
    importing one submodule does not execute its siblings."""
    namespace: Dict[str, object] = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__


__all__ = ["np", "HAVE_NUMPY", "HAVE_SCIPY", "lazy_exports"]
