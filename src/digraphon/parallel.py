"""Optional process-level sharding for the exhaustive scans.

Everything in this library is pure, so enumeration ranges can be split
across workers and merged deterministically.  The default worker count
comes from the ``DIGRAPHON_WORKERS`` environment variable (1 when unset);
library calls may override it per invocation.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Optional, Sequence, TypeVar

WORKERS_ENV = "DIGRAPHON_WORKERS"

T = TypeVar("T")
R = TypeVar("R")

# The live pool and its worker count; the lock keeps one caller at a time
# from replacing the pool while another maps over it.
_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0
_pool_lock = threading.Lock()


def resolve_workers(workers: Optional[int] = None) -> int:
    if workers is not None:
        return max(1, int(workers))
    try:
        return max(1, int(os.environ.get(WORKERS_ENV, "1")))
    except ValueError:
        return 1


def split_range(start: int, stop: int, chunks: int) -> list[tuple[int, int]]:
    """Split [start, stop) into at most ``chunks`` contiguous pieces."""
    total = stop - start
    if total <= 0:
        return []
    chunks = max(1, min(chunks, total))
    size, extra = divmod(total, chunks)
    out = []
    lo = start
    for i in range(chunks):
        hi = lo + size + (1 if i < extra else 0)
        out.append((lo, hi))
        lo = hi
    return out


def map_tasks(fn: Callable[[T], R], tasks: Sequence[T], workers: int) -> list[R]:
    """Apply ``fn`` over tasks, in order, optionally in a process pool.

    ``fn`` must be a module-level function and the tasks picklable; results
    come back in task order so merges stay deterministic.  The pool starts
    on the first pooled call and serves later calls with the same worker
    count; another count replaces it, and a broken pool is dropped so the
    next call starts a fresh one.  Workers keep the module state they
    started with, so a later change to it does not reach them.
    """
    global _pool, _pool_workers
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with _pool_lock:
        if _pool is None or _pool_workers != workers:
            if _pool is not None:
                _pool.shutdown()
            _pool, _pool_workers = ProcessPoolExecutor(max_workers=workers), workers
        try:
            return list(_pool.map(fn, tasks))
        except BrokenProcessPool:
            _pool = None
            raise
