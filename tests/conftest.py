"""Shared test helpers: the OpenBLAS core that golden digests are keyed by.

A dgemm/zgemm result rounds as the kernel's register tiles and blocking
sum it, so an output that passes through BLAS has one set of bytes per
kernel.  numpy's bundled OpenBLAS picks its kernel by CPU at load time;
`OPENBLAS_CORETYPE` (read once, at import) forces one, e.g. `Haswell`
on a CPU with AVX-512.
"""

import ctypes
import glob
import os

import numpy as np
import pytest


def openblas_core():
    """Name of the kernel core numpy's bundled OpenBLAS runs (`SkylakeX`,
    `Haswell`, ...), read through ctypes; None if it cannot be read."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas*"))):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_char_p
            return fn().decode()
    return None


@pytest.fixture(scope="session")
def per_core():
    """Look up this process's OpenBLAS core in a table keyed by core name.
    A core with no entry fails the test, naming the core: its digests have
    to be recorded under `OPENBLAS_CORETYPE=<core> OPENBLAS_NUM_THREADS=1`."""
    core = openblas_core()

    def pick(table):
        if core not in table:
            pytest.fail(f"no golden value recorded for OpenBLAS core {core!r} "
                        f"(recorded: {', '.join(sorted(table))})")
        return table[core]
    return pick
