import pytest


@pytest.fixture
def fake_pool(monkeypatch):
    """Replace the process pool that `ffp_lab.parallel.run_chunked`
    imports from concurrent.futures with one that runs its initializer
    and each mapped call in this process; returns the max_workers of
    every pool opened."""
    import concurrent.futures

    from ffp_lab import parallel
    sizes = []
    monkeypatch.setattr(parallel, "_run", None)   # restored after the test

    class FakePool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize):
            return [fn(x) for x in iterable]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return sizes
