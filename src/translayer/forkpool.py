"""Fan work out over forked worker processes.

Workers are forked, not spawned, so they see the parent's arrays (the
model, the training features) copy-on-write and nothing large is pickled
on the way in. The caller's state reaches each worker through the pool
initializer and is read back there with :func:`worker_state`. Results
that are too large to send back through the pool go into an array from
:func:`shared_zeros`, which is allocated before the fork.
"""

from __future__ import annotations

import mmap
import multiprocessing as mp
from contextlib import contextmanager

import numpy as np

_STATE = None


def _init(state):
    global _STATE
    _STATE = state


def worker_state():
    """The ``state`` that the pool this worker belongs to was created with."""
    return _STATE


@contextmanager
def fork_pool(jobs: int, state):
    """A pool of ``jobs`` forked workers holding ``state``; None at jobs <= 1."""
    if jobs <= 1:
        yield None
        return
    ctx = mp.get_context("fork")
    with ctx.Pool(jobs, initializer=_init, initargs=(state,)) as pool:
        yield pool


def shared_zeros(shape) -> np.ndarray:
    """A zeroed float64 array in anonymous shared memory.

    What a worker forked after the allocation writes into it, the parent
    sees, without the values passing through a pipe.
    """
    nbytes = int(np.prod(shape)) * np.dtype(np.float64).itemsize
    return np.ndarray(shape, dtype=np.float64,
                      buffer=mmap.mmap(-1, max(nbytes, 1)))
