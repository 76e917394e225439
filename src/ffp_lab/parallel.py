"""Deterministic replica fan-out over forked workers: replica randomness
is keyed by replica id, so the result is the same for any worker count."""

import os
import pickle
import signal


def _outcome(fn, payload, ids) -> bytes:
    """A worker's pickled (True, results) or (False, exception); one that
    fails a pickle round trip becomes a RuntimeError with its traceback."""
    try:
        return pickle.dumps((True, [fn(payload, r) for r in ids]))
    except BaseException as exc:        # the parent raises it
        try:
            return pickle.dumps((False, pickle.loads(pickle.dumps(exc))))
        except Exception:
            import traceback            # only a failing worker needs it
            text = "".join(traceback.format_exception(exc))
            return pickle.dumps((False, RuntimeError(text)))


def run_chunked(fn, payload, n: int, jobs: int) -> list:
    """[fn(payload, r) for r in range(n)]; with jobs > 1, worker w of
    min(jobs, n, usable CPUs) forked ones computes range(w, n, workers)
    from the fn and payload it inherits (never pickled), and pipes back
    its outcome.  The parent computes nothing; it raises a worker's error."""
    if jobs <= 1 or n < 2:
        return [fn(payload, r) for r in range(n)]
    workers = min(jobs, n, len(os.sched_getaffinity(0)))
    out, pids, pipes, reaped = [None] * n, [], [], 0
    # a signal sent to this thread waits until every forked pid is in pids
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
    try:
        for w in range(workers):
            rfd, wfd = os.pipe()
            pipes.append(open(rfd, "rb"))
            pid = os.fork()
            if pid == 0:                # a worker leaves only by os._exit
                try:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                    with open(wfd, "wb") as fh:
                        fh.write(_outcome(fn, payload, range(w, n, workers)))
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(wfd)               # the pipe reads EOF once w exits
            pids.append(pid)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for w, pid in enumerate(pids):
            data = pipes[w].read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped += 1
            if code:                    # -signal if a signal killed it
                raise RuntimeError(f"worker {pid} ended with status {code}")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            out[w::workers] = value
        return out
    finally:
        for fh in pipes:
            fh.close()
        for pid in pids[reaped:]:       # left unreaped only by a raise
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
