"""Fan work out over forked worker processes.

:func:`fork_pool` yields ``run(fn, items, chunksize)``, which returns
``[fn(state, item) for item in items]`` at every ``jobs``. Workers are
forked, not spawned, so they see ``state`` (the model, the training
features) copy-on-write and nothing large is pickled on the way in.
Results too large to send back through the pool go into an array from
:func:`shared_zeros`, which is allocated before the fork.

Each worker sets every OpenBLAS the process has loaded to one thread, so
``jobs`` workers do not each start one BLAS thread per core.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import mmap
import multiprocessing as mp
import os
from contextlib import contextmanager

import numpy as np

# the thread setter's name in numpy's bundled 64-bit-integer OpenBLAS, in
# other 64-bit-integer builds and in the plain build
BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_",
                       "openblas_set_num_threads64_",
                       "openblas_set_num_threads")

log = logging.getLogger("translayer")

_STATE = None


def openblas_libraries() -> list[ctypes.CDLL]:
    """Every OpenBLAS library mapped into this process (Linux only).

    Opening a library that is already loaded returns the loaded copy.
    """
    maps = "/proc/self/maps"
    if not os.path.exists(maps):
        return []
    with open(maps) as fh:
        fields = (line.split(maxsplit=5) for line in fh)
        paths = {f[5].rstrip("\n") for f in fields
                 if len(f) == 6 and "openblas" in os.path.basename(f[5])}
    return [ctypes.CDLL(path) for path in sorted(paths)]


@functools.cache
def _blas_thread_setters() -> tuple:
    """The thread setter of each loaded OpenBLAS; warns once if none."""
    setters = []
    for lib in openblas_libraries():
        fn = next((getattr(lib, name) for name in BLAS_THREAD_SETTERS
                   if hasattr(lib, name)), None)
        if fn is not None:
            fn.argtypes = [ctypes.c_int]
            fn.restype = None
            setters.append(fn)
    if not setters:
        log.warning("no OpenBLAS thread setter found: forked workers keep "
                    "the BLAS thread count; set OPENBLAS_NUM_THREADS=1 "
                    "when using --jobs above 1")
    return tuple(setters)


def _init(state, blas_setters):
    global _STATE
    _STATE = state
    for set_threads in blas_setters:
        set_threads(1)


def _call(fn, item):
    return fn(_STATE, item)


@contextmanager
def fork_pool(jobs: int, state):
    """Yield ``run(fn, items, chunksize)`` = ``[fn(state, item) for item in
    items]``, run over ``jobs`` forked workers when ``jobs > 1``. ``fn``
    must be defined at module level, where a worker can look it up."""
    if jobs <= 1:
        yield lambda fn, items, chunksize: [fn(state, item) for item in items]
        return
    ctx = mp.get_context("fork")
    with ctx.Pool(jobs, initializer=_init,
                  initargs=(state, _blas_thread_setters())) as pool:
        yield lambda fn, items, chunksize: pool.map(
            functools.partial(_call, fn), items, chunksize=chunksize)


def shared_zeros(shape) -> np.ndarray:
    """A zeroed float64 array in anonymous shared memory.

    What a worker forked after the allocation writes into it, the parent
    sees, without the values passing through a pipe.
    """
    nbytes = int(np.prod(shape)) * np.dtype(np.float64).itemsize
    return np.ndarray(shape, dtype=np.float64,
                      buffer=mmap.mmap(-1, max(nbytes, 1)))
