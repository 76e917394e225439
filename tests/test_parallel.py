"""`parallel.run_chunked` on a real process pool of at most 2 workers."""

import multiprocessing
import os

import pytest

from ffp_lab.errors import InvalidParameterError
from ffp_lab.parallel import run_chunked


class _Counted:
    """A payload that counts how often this process pickles it."""

    def __init__(self, scale):
        self.scale = scale
        self.pickles = 0

    def __reduce__(self):
        self.pickles += 1
        return _Counted, (self.scale,)


def _scaled(payload, r):
    return payload.scale * r


def _tagged(payload, r):
    return payload, r


def _fail_at_3(payload, r):
    if r == 3:
        raise InvalidParameterError(f"replica {r} failed")
    return r


def test_payload_sent_once_per_worker():
    """Each worker gets the payload at its start, not with every chunk;
    a fork-started worker inherits it without a pickle."""
    payload = _Counted(3)
    assert run_chunked(_scaled, payload, 16, jobs=2) == [3 * r for r in range(16)]
    workers = min(2, len(os.sched_getaffinity(0)))
    fork = multiprocessing.get_start_method() == "fork"
    assert payload.pickles <= (0 if fork else workers)


def test_results_in_replica_order():
    assert run_chunked(_tagged, "p", 7, jobs=2) == [("p", r) for r in range(7)]


def test_worker_exception_reaches_caller():
    with pytest.raises(InvalidParameterError, match="replica 3 failed"):
        run_chunked(_fail_at_3, None, 8, jobs=2)
