"""Fan work out over forked worker processes.

:func:`fork_pool` yields ``run(fn, items)``, which iterates over
``fn(state, item) for item in items``, in item order, at every ``jobs``.
A caller that sums the results holds one at a time. Workers are forked,
not spawned, so they see ``state`` (the model and images, the training
features) copy-on-write, and an item is a small task such as a ``(start,
stop)`` range: nothing large is pickled on the way in.
Results too large to send back through the pool go into an array from
:func:`shared_zeros`, which is allocated before the fork. A worker that
dies fails the run with ``BrokenProcessPool`` instead of hanging it.

While a pool lives, BLAS runs on one thread (:func:`one_blas_thread`),
also in the workers, which inherit the count: they do not each start one
BLAS thread per core, and every ``jobs`` sums in the same order.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import mmap
import multiprocessing as mp
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

import numpy as np

# the thread-count functions' names, "get" or "set" in place of {}, in
# numpy's bundled 64-bit-integer OpenBLAS, in other 64-bit-integer builds
# and in the plain build
BLAS_THREAD_FUNCTIONS = ("scipy_openblas_{}_num_threads64_",
                         "openblas_{}_num_threads64_", "openblas_{}_num_threads")

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
def _blas_thread_functions() -> tuple:
    """``(get, set)`` thread-count functions of each loaded OpenBLAS; warns
    once if there are none."""
    found = tuple((getattr(lib, name.format("get")),
                   getattr(lib, name.format("set")))
                  for lib in openblas_libraries() for name in BLAS_THREAD_FUNCTIONS
                  if hasattr(lib, name.format("set")))
    for get, set_threads in found:
        get.argtypes, get.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    if not found:
        log.warning("no OpenBLAS thread setter found: BLAS keeps its thread "
                    "count, and results can vary with it; set its thread "
                    "variable (OPENBLAS_NUM_THREADS, MKL_NUM_THREADS) to 1")
    return found


@contextmanager
def one_blas_thread():
    """Run the body with every loaded OpenBLAS on one thread, then give each
    its previous count back. A threaded BLAS splits long dot products and
    LAPACK's reductions between threads, which moves their last bits."""
    functions = _blas_thread_functions()
    previous = [get() for get, _ in functions]
    for _, set_threads in functions:
        set_threads(1)
    try:
        yield
    finally:
        for (_, set_threads), count in zip(functions, previous):
            set_threads(count)


def _init(state):
    global _STATE
    _STATE = state


def _call(fn, item):
    return fn(_STATE, item)


@contextmanager
def fork_pool(jobs: int, state):
    """Yield ``run(fn, items)``, an iterator over ``fn(state, item) for
    item in items`` in item order, run over ``jobs`` forked workers when
    ``jobs > 1``. Consume it inside the ``with`` block. ``fn`` must be
    defined at module level, where a worker can look it up."""
    with one_blas_thread():
        if jobs <= 1:
            yield lambda fn, items: (fn(state, item) for item in items)
            return
        with ProcessPoolExecutor(jobs, mp.get_context("fork"), initializer=_init,
                                 initargs=(state,)) as pool:
            yield lambda fn, items: pool.map(functools.partial(_call, fn), items)


def shared_zeros(shape) -> np.ndarray:
    """A zeroed float64 array in anonymous shared memory.

    What a worker forked after the allocation writes into it, the parent
    sees, without the values passing through a pipe.
    """
    nbytes = int(np.prod(shape)) * np.dtype(np.float64).itemsize
    return np.ndarray(shape, dtype=np.float64,
                      buffer=mmap.mmap(-1, max(nbytes, 1)))
