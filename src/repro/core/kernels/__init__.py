"""Maintenance kernels: one-shot select+pivot drives.

Algorithm 1's maintenance — Select the q-th largest value of the merged
region, then three-way-partition the region around it — is executed by
:class:`repro.core.qmax.QMax` either *deamortized* (the resumable
generators of :mod:`repro.core.select`, a few elementary operations per
admitted item) or as **one opaque fast call per iteration** through a
*maintenance kernel*.  A kernel performs the entire drive at the
iteration boundary, trading the paper's per-update O(1/γ) worst-case
bound for a far lower amortized constant: no generator dispatch, no
per-element Python bytecode on the vectorized implementation.

The two kernels:

``stepwise``
    The resumable generators driven to completion in one call — the
    deamortization-exact reference the ``numpy`` kernel is
    differentially fuzzed against.  Always available.  (Passing the
    *name* ``"stepwise"`` to ``QMax`` selects the default deamortized
    schedule; passing a :class:`~repro.core.kernels.stepwise.
    StepwiseKernel` *instance* selects one-shot drives.)
``numpy``
    One-shot ``np.argpartition`` select + fancy-index partition over
    the float64 value column; no per-record Python.  Available when
    NumPy imports; on a pure-Python host a request for it runs
    ``stepwise`` instead, with a warning.  ``QMax.stats()`` always
    reports the kernel that actually resolved, never the request.

Any other name raises :class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

import logging
import os

from repro._compat import HAVE_NUMPY
from repro.core.kernels.numpy_kernel import NumpyKernel
from repro.core.kernels.stepwise import StepwiseKernel
from repro.errors import ConfigurationError

_LOG = logging.getLogger("repro.core.kernels")

#: Environment variable consulted by :func:`resolve_kernel` when no
#: explicit kernel is requested.
KERNEL_ENV = "REPRO_KERNEL"

#: The default kernel name (the deamortized reference schedule).
DEFAULT_KERNEL = "stepwise"

#: Every kernel name :func:`get_kernel` accepts.
KERNEL_NAMES = ("stepwise", "numpy")


def kernel_available(name: str) -> bool:
    """Whether ``name`` is a kernel that can run on this host."""
    return name == "stepwise" or (name == "numpy" and HAVE_NUMPY)


def get_kernel(name: str):
    """Instantiate the kernel called ``name``.

    ``numpy`` without NumPy degrades to ``stepwise`` with a warning; an
    unknown name raises :class:`~repro.errors.ConfigurationError`.
    """
    if name not in KERNEL_NAMES:
        raise ConfigurationError(
            f"unknown kernel {name!r}; choose one of: "
            f"{', '.join(KERNEL_NAMES)}"
        )
    if name == "numpy":
        if kernel_available("numpy"):
            return NumpyKernel()
        _LOG.warning(
            "kernel 'numpy' needs NumPy, which is not installed; "
            "falling back to 'stepwise'"
        )
    return StepwiseKernel()


def resolve_kernel(spec):
    """Resolve a kernel request to an instance.

    ``spec`` is ``None`` (consult ``REPRO_KERNEL``, defaulting to
    ``stepwise``), a kernel name, or an object already implementing
    the kernel protocol (``drive(vals, ids, lo, hi, q, side,
    observe=None) -> threshold``), which is returned as-is.
    """
    if spec is None:
        spec = os.environ.get(KERNEL_ENV) or DEFAULT_KERNEL
    if isinstance(spec, str):
        return get_kernel(spec)
    if hasattr(spec, "drive"):
        return spec
    raise ConfigurationError(
        f"kernel must be a name or an object with a drive() method, "
        f"got {spec!r}"
    )


__all__ = [
    "DEFAULT_KERNEL",
    "KERNEL_ENV",
    "KERNEL_NAMES",
    "NumpyKernel",
    "StepwiseKernel",
    "get_kernel",
    "kernel_available",
    "resolve_kernel",
]
