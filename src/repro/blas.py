"""The BLAS numpy runs on: its name and its thread count, read and set.

numpy wheels bundle scipy-openblas (``numpy.libs/libscipy_openblas64_*.so``),
whose thread pool can be resized at runtime through the exported
``scipy_openblas_{get,set}_num_threads64_`` symbols.  The process pool
(:mod:`repro.parallel.pool`) runs every task on one thread, so N forked
workers do not run N × CPU BLAS threads, and a task computes the same
bits whichever worker count runs it; reports record the parent's count
in ``meta``.  Where the library or its symbols are absent (another
BLAS, a source build), reading gives ``None`` and setting does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from pathlib import Path

import numpy as np


@functools.lru_cache(maxsize=1)
def _openblas() -> ctypes.CDLL | None:
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        try:
            setter = lib.scipy_openblas_set_num_threads64_
            getter = lib.scipy_openblas_get_num_threads64_
        except AttributeError:
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        return lib
    return None


@functools.lru_cache(maxsize=1)
def blas_name() -> str | None:
    """Name of the BLAS numpy was built against (e.g. ``scipy-openblas``)."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):  # no build metadata, or an older numpy
        return None


def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS uses now; ``None`` when unknown."""
    lib = _openblas()
    return None if lib is None else lib.scipy_openblas_get_num_threads64_()


def set_blas_threads(threads: int) -> None:
    """Resize the bundled OpenBLAS thread pool; a no-op without it."""
    lib = _openblas()
    if lib is not None:
        lib.scipy_openblas_set_num_threads64_(threads)


@contextlib.contextmanager
def one_blas_thread():
    """Run a block on one OpenBLAS thread; the previous count comes back after."""
    before = blas_threads()
    set_blas_threads(1)
    try:
        yield
    finally:
        if before is not None:
            set_blas_threads(before)
