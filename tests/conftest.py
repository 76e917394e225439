import os

import ffp_lab  # noqa: F401  first, so numpy loads with one BLAS thread
import pytest


@pytest.fixture
def forks(monkeypatch):
    """Wrap the real os.fork and `ffp_lab.parallel.run_chunked`; returns
    one list per `run_chunked` call of the worker pids it forked (empty
    for a run that computes in this process)."""
    from ffp_lab import parallel
    fanouts = []
    fork, run_chunked = os.fork, parallel.run_chunked

    def recorded_fork():
        pid = fork()
        if pid:                         # in the parent
            fanouts[-1].append(pid)
        return pid

    def recorded_run(*args, **kwargs):
        fanouts.append([])
        return run_chunked(*args, **kwargs)

    monkeypatch.setattr(os, "fork", recorded_fork)
    monkeypatch.setattr(parallel, "run_chunked", recorded_run)
    return fanouts
