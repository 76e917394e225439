"""Deterministic replica fan-out over a process pool.

Workers receive (payload, start, stop) and return a list of per-replica
results for that range.  Replica randomness is keyed by replica id, so
the concatenated output is independent of the worker count and of
scheduling order.
"""

import os
from concurrent.futures import ProcessPoolExecutor

from .errors import InvalidParameterError

ENV_JOBS = "FFP_LAB_JOBS"


def default_jobs() -> int:
    raw = os.environ.get(ENV_JOBS)
    if raw is None:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        raise InvalidParameterError(f"{ENV_JOBS} must be an integer") from None


def chunk_bounds(n: int, parts: int) -> list[tuple[int, int]]:
    parts = max(1, min(parts, n))
    step, rem = divmod(n, parts)
    bounds = []
    start = 0
    for i in range(parts):
        stop = start + step + (1 if i < rem else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def run_chunked(worker, payload, n: int, jobs: int = 1) -> list:
    """Run worker over [0, n) split into chunks; results concatenated in
    replica order regardless of jobs."""
    if n <= 0:
        return []
    if jobs <= 1 or n < 2:
        return list(worker(payload, 0, n))
    bounds = chunk_bounds(n, jobs * 4)
    # a fork-started pool launches all its workers at the first submit
    workers = min(jobs, len(bounds), len(os.sched_getaffinity(0)))
    out = []
    with ProcessPoolExecutor(max_workers=workers) as ex:
        futures = [ex.submit(worker, payload, a, b) for a, b in bounds]
        for fut in futures:
            out.extend(fut.result())
    return out
