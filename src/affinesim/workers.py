"""Work split over forked worker processes, one per usable CPU.

split is the one fork primitive of the package: the run pipeline of
simulate and batch (cli._run) splits its runs with it, and
fileio.write_trace the rows of one large trace.
"""

from __future__ import annotations

import json
import os
import signal

# True in a process that runs a share of a split over several workers: a
# split it starts then runs inline, so no share forks a second time.
_sharing = False


def split(count: int, work) -> list:
    """The outputs of work(indices) for every index of range(count), in
    input order, with the indices split over forked worker processes.

    work returns one JSON-serializable output per index it is given.
    Worker w of N takes the indices i with i % N == w; this process is
    worker 0. N is the number of CPUs this process may run on, at most
    count; it is 1 where the platform has no fork or does not report those
    CPUs, inside a share of another split over several workers (this
    process's own share included), and when a fork raises OSError: then
    work runs here on every index. A worker sends its outputs (or its
    error) as JSON through a pipe and leaves through os._exit, so it
    flushes no buffer, prints nothing and runs none of this process's exit
    handlers. Every worker is reaped before this returns or raises: a
    failed worker makes it raise OSError with the worker's message, and a
    failure here kills the workers first. Workers are forked, not spawned,
    as a spawned one would import numpy and this package again (about
    0.2 s); Python 3.12 and later warn on a fork in a process with other
    threads, and OpenBLAS keeps one.
    """
    global _sharing
    n, workers = 1, []
    if not _sharing and hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        n = min(len(os.sched_getaffinity(0)), count)
    try:
        try:
            for w in range(1, n):
                workers.append(_fork(work, range(w, count, n), workers))
        except OSError:
            _kill(workers)
            n = 1
        outer, _sharing = _sharing, _sharing or n > 1
        try:
            shares = [work(range(0, count, n))]
        finally:
            _sharing = outer
        failures = []
        while workers:
            pid, pipe = workers[0]
            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            workers.pop(0)
            try:
                message = json.loads(data)
            except ValueError:  # the worker died before its message was whole
                message = {}
            if status == 0 and "outputs" in message:
                shares.append(message["outputs"])
            else:
                failures.append(message.get("error", f"worker {pid} exited with status {status}"))
    except BaseException:
        _kill(workers)
        raise
    if failures:
        raise OSError(failures[0])
    outputs = [None] * count
    for w, share in enumerate(shares):
        outputs[w::n] = share
    return outputs


def _fork(work, indices, siblings):
    """Fork a worker that sends {"outputs": work(indices)}, or {"error":
    message}, as JSON through a pipe; return its pid and the pipe's read
    end. The worker closes the read ends of its siblings' pipes, so that it
    holds no pipe but its own write end."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, os.fdopen(read_fd, "rb")
    global _sharing
    _sharing, status = True, 1
    try:
        os.close(read_fd)
        for _, pipe in siblings:
            pipe.close()
        try:
            message = {"outputs": work(indices)}
        except BaseException as exc:  # the parent raises it as OSError
            message = {"error": str(exc) or type(exc).__name__}
        with os.fdopen(write_fd, "w") as pipe:
            json.dump(message, pipe)
        status = 0 if "outputs" in message else 1
    finally:
        os._exit(status)


def _kill(workers):
    """Kill and reap every worker that is still listed."""
    for pid, pipe in workers:
        pipe.close()
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    workers.clear()
