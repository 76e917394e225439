from concurrent.futures import Future

import pytest


@pytest.fixture
def fake_pool(monkeypatch):
    """Replace the process pool of `ffp_lab.parallel` with one that runs
    each task in this process; returns the max_workers of every pool
    opened."""
    from ffp_lab import parallel
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", FakePool)
    return sizes
