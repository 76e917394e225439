"""Deterministic replica fan-out over a process pool.

`run_chunked(fn, payload, n, jobs)` calls fn(payload, r) for each
replica r in [0, n); only this module splits the replicas into pool
tasks of contiguous ranges.  Replica randomness is keyed by replica id,
so the results, returned in replica order, are independent of the
worker count and of scheduling order.
"""

import os
from concurrent.futures import ProcessPoolExecutor


def _chunk_bounds(n: int, parts: int) -> list[tuple[int, int]]:
    parts = max(1, min(parts, n))
    step, rem = divmod(n, parts)
    bounds = []
    start = 0
    for i in range(parts):
        stop = start + step + (1 if i < rem else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _run_range(fn, payload, start, stop):
    return [fn(payload, r) for r in range(start, stop)]


def run_chunked(fn, payload, n: int, jobs: int) -> list:
    """[fn(payload, r) for r in range(n)], whatever jobs is; with jobs > 1
    one process pool runs jobs * 4 contiguous ranges of replicas."""
    if n <= 0:
        return []
    if jobs <= 1 or n < 2:
        return _run_range(fn, payload, 0, n)
    bounds = _chunk_bounds(n, jobs * 4)
    # a fork-started pool launches all its workers at the first submit
    workers = min(jobs, len(bounds), len(os.sched_getaffinity(0)))
    out = []
    with ProcessPoolExecutor(max_workers=workers) as ex:
        futures = [ex.submit(_run_range, fn, payload, a, b)
                   for a, b in bounds]
        for fut in futures:
            out.extend(fut.result())
    return out
