"""Fan work out over forked worker processes.

:func:`fork_pool` yields ``run(fn, items)``, which iterates over
``fn(state, item) for item in items``, in item order, at every ``jobs``.
A caller that sums the results holds one at a time. A ``with`` block
forks its workers once, at its first ``run`` that has work for more than
one, and every later ``run`` in the block reuses them: a step of several
fan-outs (map, then extract; Gram, then solve, then lift) pays for one
fork and one shutdown. A forking pool starts all its workers at the
first task, so the block forks ``min(jobs, width)``, ``width`` the most
items any of its runs takes, and runs in this process when that is one.
Workers are forked, not spawned, so they see ``state`` (the model and
images, the training features) copy-on-write, and an item is a small
task such as a ``(start, stop)`` range: nothing large is pickled on the
way in. What a worker computes for the parent, or for a later run, goes
into arrays from :func:`shared_zeros`, which are allocated before the
fork, and whose rows :func:`release` gives back once they are read. A
task only reads ``state`` and writes only into such arrays, so every
task at every ``jobs`` sees the state the block was given. A worker that
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
from contextlib import ExitStack, contextmanager

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
def fork_pool(jobs: int, state, width: int | None = None):
    """Yield ``run(fn, items)``, an iterator over ``fn(state, item) for
    item in items`` in item order. The block forks ``min(jobs, width)``
    workers once, at the first ``run`` for which that is more than one,
    ``width`` being by default that run's item count, and every ``run``
    from then on uses them; until then runs are made in this process.
    Consume each iterator inside the ``with`` block. ``fn`` must be
    defined at module level, where a worker can look it up."""
    with one_blas_thread(), ExitStack() as stack:
        pool = None

        def run(fn, items):
            nonlocal pool
            workers = min(jobs, width or len(items))
            if pool is None and workers > 1:
                pool = stack.enter_context(ProcessPoolExecutor(
                    workers, mp.get_context("fork"), initializer=_init,
                    initargs=(state,)))
            if pool is None:
                return (fn(state, item) for item in items)
            return pool.map(functools.partial(_call, fn), items)
        yield run


def shared_zeros(shape, dtype=np.float64) -> np.ndarray:
    """A zeroed array in anonymous shared memory.

    What a worker forked after the allocation writes into it, the parent
    sees, without the values passing through a pipe. A page takes memory
    once written, and all of them go back to the system with the array.
    """
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape)) * dtype.itemsize
    return np.ndarray(shape, dtype=dtype, buffer=mmap.mmap(-1, max(nbytes, 1)))


def trim_heap() -> None:
    """Return the free pages of the C heap to the system, which glibc keeps
    resident below the last chunk in use; a no-op where the C library has
    no ``malloc_trim``."""
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
        trim(0)


def release(array: np.ndarray, start: int, stop: int) -> None:
    """Return the memory of rows ``start:stop`` of a :func:`shared_zeros`
    array, in every process that shares it, for the pages wholly inside
    those rows, which then read as zeros; rows that share a page with a
    row outside keep their values. A no-op where ``mmap`` has no
    ``MADV_REMOVE``."""
    remove = getattr(mmap, "MADV_REMOVE", None)
    if remove is None:
        return
    row, page = array.strides[0], mmap.PAGESIZE
    first, end = -(-start * row // page) * page, stop * row // page * page
    if end > first:
        array.base.madvise(remove, first, end - first)
