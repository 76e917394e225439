"""`parallel.run_chunked` on real forked workers, at most 2 of them."""

import json
import os
import signal

import pytest

from ffp_lab import blur, parallel
from ffp_lab.cli import main
from ffp_lab.errors import InvalidParameterError
from ffp_lab.parallel import run_chunked


@pytest.fixture(autouse=True)
def no_child_left():
    """Every case ends with no child of this process left, running or
    unreaped; a case that hangs fails after 60 s."""
    def expire(signum, frame):
        raise TimeoutError("run_chunked took over 60 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _Counted:
    """A payload that counts how often this process pickles it."""

    def __init__(self, scale):
        self.scale = scale
        self.pickles = 0

    def __reduce__(self):
        self.pickles += 1
        return _Counted, (self.scale,)


class _Unpicklable(Exception):
    """Pickles, but cannot be rebuilt from its args."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


def _scaled(payload, r):
    return payload.scale * r, payload.pickles


def _tagged(payload, r):
    return payload, r


def _fail_at_3(payload, r):
    if r == 3:
        raise InvalidParameterError(f"replica {r} failed")
    return r


def _exit_at_3(payload, r):
    if r == 3:
        os._exit(3)
    return r


def _unpicklable_at_3(payload, r):
    if r == 3:
        raise _Unpicklable("replica 3", "no way back")
    return r


def _big(payload, r):
    return bytes([r]) * payload


def test_payload_sent_once_per_worker():
    """The workers inherit fn and payload at the fork: neither this
    process nor a worker ever pickles the payload."""
    payload = _Counted(3)
    assert run_chunked(_scaled, payload, 16, jobs=2) == [(3 * r, 0) for r in range(16)]
    assert payload.pickles == 0


def test_results_in_replica_order():
    assert run_chunked(_tagged, "p", 7, jobs=2) == [("p", r) for r in range(7)]


def test_worker_exception_reaches_caller():
    with pytest.raises(InvalidParameterError, match="replica 3 failed"):
        run_chunked(_fail_at_3, None, 8, jobs=2)


def test_dead_worker_named_with_its_status(forks):
    with pytest.raises(RuntimeError) as info:
        parallel.run_chunked(_exit_at_3, None, 8, jobs=2)
    pids, = forks
    assert str(info.value) == f"worker {pids[3 % len(pids)]} ended with status 3"


def test_unpicklable_exception_reaches_caller_as_its_traceback():
    with pytest.raises(RuntimeError) as info:
        run_chunked(_unpicklable_at_3, None, 8, jobs=2)
    text = str(info.value)
    assert text.startswith("Traceback (most recent call last):")
    assert "in _unpicklable_at_3" in text
    assert "_Unpicklable: replica 3: no way back" in text


def test_results_larger_than_a_pipe_buffer():
    """Each of two workers sends 3 MB, far more than a pipe holds, and
    the second one waits while the parent reads the first pipe."""
    n = 3 * 2 ** 20
    assert run_chunked(_big, n, 2, jobs=2) == [bytes([r]) * n for r in range(2)]


class _Interrupted(Exception):
    pass


def test_signal_right_after_fork_leaves_no_worker(monkeypatch):
    """A handler that raises in the parent as soon as os.fork returns:
    its error reaches the caller, and the worker is killed and reaped
    (the autouse fixture finds no child)."""
    def interrupt(signum, frame):
        raise _Interrupted
    fork = os.fork

    def fork_then_signal():
        pid = fork()
        if pid:                         # in the parent
            signal.raise_signal(signal.SIGUSR1)
        return pid
    previous = signal.signal(signal.SIGUSR1, interrupt)
    monkeypatch.setattr(os, "fork", fork_then_signal)
    try:
        with pytest.raises(_Interrupted):
            run_chunked(_tagged, "p", 4, jobs=2)
    finally:
        signal.signal(signal.SIGUSR1, previous)


def test_worker_parameter_error_exits_2(tmp_path, monkeypatch, capsys):
    """An InvalidParameterError keeps its type through the pipe, so the
    CLI reports it with exit 2, not a traceback."""
    def fail(payload, r):
        raise InvalidParameterError(f"replica {r} refused")
    monkeypatch.setattr(blur, "_decay_one", fail)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(
        {"kind": "blur-decay", "lambda": 1.0, "d": 2, "L_list": [1],
         "t_list": [0.05], "replicas": 4, "seed": 2,
         "init": {"kind": "vacant"}}))
    assert main(["blur-decay", "--manifest", str(manifest), "--jobs", "2",
                 "--out", str(tmp_path / "out")]) == 2
    assert "error: replica 0 refused" in capsys.readouterr().err

