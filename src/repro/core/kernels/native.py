"""Probe kept for the end-to-end benchmark harness.

The compiled maintenance kernel that used to live here was removed: it
measured 0.93–1.49× the ``numpy`` kernel, short of the ≥2× that would
have paid for a C extension, a build step and a third kernel.
``perfbench/bench.py`` still reports ``"native"`` in its environment
block through this probe, so the function stays and always answers
``False``.  Nothing in :mod:`repro.core.kernels` imports this module.
"""


def native_module_available() -> bool:
    return False
