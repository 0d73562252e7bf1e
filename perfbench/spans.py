"""In-memory span tracing for the benchmark's traced pass.

Functions are wrapped from outside the package: `patched` replaces a
function at every affinesim module that binds it by name, and restores the
originals afterwards. Each call records a span (name, start, end, parent).
The parent stack is kept per thread; a span opened on a thread with an empty
stack, such as a scenario on run_batch's thread pool, takes as parent the
innermost open span of the thread that created the tracer, which is the
call that handed it the work.
"""

from __future__ import annotations

import contextlib
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    sid: int
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None
    ok: bool  # False when the call raised


class Tracer:
    """Collects spans and counters; safe to use from several threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._next_id = 0
        self._root_thread = threading.get_ident()
        self._root_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list:
        if threading.get_ident() == self._root_thread:
            return self._root_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount=1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name: str, fn, on_result=None):
        """Return fn wrapped in a span; on_result(tracer, result) sees each return."""

        def traced(*args, **kwargs):
            stack = self._stack()
            # Slices, not indexing: another thread may pop the root stack.
            tail = stack[-1:] or self._root_stack[-1:]
            with self._lock:
                self._next_id += 1
                sid = self._next_id
            stack.append(sid)
            ok = False
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append(Span(sid, name, start, end, tail[0] if tail else None, ok))
            if on_result is not None:
                on_result(self, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


@contextlib.contextmanager
def patched(tracer: Tracer, package: str, targets: dict):
    """Wrap each "module.function" in targets wherever the package binds it.

    targets maps a qualified name relative to the package to an on_result
    hook or None. Every module of the package whose namespace holds the same
    function object gets the wrapper, so `from .stress import follower_targets`
    in another module is traced too.
    """
    modules = [m for name, m in sorted(sys.modules.items()) if name == package or name.startswith(package + ".")]
    restore = []
    try:
        for qualified, hook in targets.items():
            module_name, func_name = qualified.rsplit(".", 1)
            original = getattr(sys.modules[f"{package}.{module_name}"], func_name)
            wrapper = tracer.wrap(qualified, original, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        restore.append((module, attr, original))
                        setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in reversed(restore):
            setattr(module, attr, original)


def covered_ns(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _children(spans) -> dict:
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return children


def _clipped(parent: Span, kids) -> list:
    return [(max(c.start, parent.start), min(c.end, parent.end)) for c in kids]


def self_times(spans) -> dict:
    """Self time of each span in ns: its duration minus what its children cover.

    Children on other threads may overlap each other; their union counts once.
    """
    children = _children(spans)
    return {s.sid: (s.end - s.start) - covered_ns(_clipped(s, children[s.sid])) for s in spans}


def concurrent_ns(spans) -> int:
    """Child time counted more than once because children overlapped.

    The sum of all self times minus this equals the summed duration of the
    root spans, which is how self times account for the traced wall time.
    """
    total = 0
    children = _children(spans)
    for s in spans:
        clipped = _clipped(s, children[s.sid])
        total += sum(max(0, end - start) for start, end in clipped) - covered_ns(clipped)
    return total
