"""Deterministic replica fan-out over a process pool.

Replica randomness is keyed by replica id, so `run_chunked` returns the
same list whatever the worker count or the scheduling order.
"""

import math
import os

_run = None   # (fn, payload) of the fan-out, set once in each worker


def _start(fn, payload):
    global _run
    _run = fn, payload


def _replica(r):
    fn, payload = _run
    return fn(payload, r)


def run_chunked(fn, payload, n: int, jobs: int) -> list:
    """[fn(payload, r) for r in range(n)]; with jobs > 1 a process pool,
    whose workers each receive (fn, payload) once, maps jobs * 4
    contiguous chunks of replica ids and returns in replica order.  The
    pool machinery is imported only here, by a run that opens a pool."""
    if jobs <= 1 or n < 2:
        return [fn(payload, r) for r in range(n)]
    from concurrent.futures import ProcessPoolExecutor
    chunks = min(jobs * 4, n)
    # a fork-started pool launches all its workers at the first submit
    workers = min(jobs, chunks, len(os.sched_getaffinity(0)))
    with ProcessPoolExecutor(workers, initializer=_start,
                             initargs=(fn, payload)) as ex:
        return list(ex.map(_replica, range(n),
                           chunksize=math.ceil(n / chunks)))
