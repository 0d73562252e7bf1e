"""The fork primitive: what a forked worker holds."""

import os

import pytest

from affinesim import workers

from conftest import assert_no_child


def open_pipes():
    """The pipes this process holds an end of, as /proc names them."""
    found = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the fd that listed the directory, closed since
            continue
        if target.startswith("pipe:"):
            found.add(target)
    return found


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="reads open fds from /proc")
def test_a_worker_holds_no_pipe_of_its_siblings(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    before = open_pipes()

    def share(indices):
        return [sorted(open_pipes() - before) for _ in indices]

    held = workers.split(3, share)
    # This process holds the read end of each worker's pipe; a worker holds
    # the write end of its own and nothing of the worker forked before it.
    assert [len(pipes) for pipes in held] == [2, 1, 1]
    assert sorted(held[0]) == sorted(held[1] + held[2])
    assert_no_child()
