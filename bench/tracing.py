"""Span recording for the traced benchmark child, and the arithmetic on spans.

The recorder wraps library functions from outside: each call becomes a
span ``[id, parent, thread, name, t0, t1, cpu0, cpu1]`` with wall times
from ``time.monotonic`` (system-wide on Linux, so comparable with the
parent process) and CPU times from ``time.thread_time``.  Spans are kept
in memory and written once, when the child exits.

A span opened on a thread with no open span (a worker of the sweep's
thread pool) takes the innermost open span of the main thread as its
parent, so worker spans hang under the sweep that started them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict

# indices into a span record
ID, PARENT, THREAD, NAME, T0, T1, CPU0, CPU1 = range(8)

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._next_id = 0

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack.append(span_id)
        cpu0 = time.thread_time()
        t0 = time.monotonic()
        try:
            yield
        finally:
            t1 = time.monotonic()
            cpu1 = time.thread_time()
            stack.pop()
            record = [span_id, parent, threading.get_ident(), name, t0, t1, cpu0, cpu1]
            with self._lock:
                self.spans.append(record)

    def wrap(self, fn, name: str, after=None):
        """``fn`` inside a span; ``after(result, *args, **kwargs)`` records counts.

        ``after`` runs in a bookkeeping span of its own, so the counting
        is charged to the tracer and not to the caller's self time.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                with self.span(BOOKKEEPING):
                    after(result, *args, **kwargs)
            return result

        return traced

    def dump(self, path, **extra) -> None:
        doc = {"spans": self.spans, "counts": dict(self.counts), "main_thread": self._main_ident}
        doc.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# arithmetic on recorded spans
# ---------------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _same_thread_children(spans):
    children = defaultdict(list)
    by_id = {s[ID]: s for s in spans}
    for s in spans:
        p = by_id.get(s[PARENT])
        if p is not None and p[THREAD] == s[THREAD]:
            children[p[ID]].append(s)
    return children


def self_times(spans) -> dict[int, tuple[float, float]]:
    """Per span id: (self wall, self CPU).

    Self time is the span's duration minus the part of it covered by its
    child spans on the same thread; children on other threads run in
    parallel and are not subtracted.
    """
    children = _same_thread_children(spans)
    out = {}
    for s in spans:
        kids = children.get(s[ID], [])
        wall = (s[T1] - s[T0]) - _covered([(k[T0], k[T1]) for k in kids], s[T0], s[T1])
        cpu = (s[CPU1] - s[CPU0]) - sum(k[CPU1] - k[CPU0] for k in kids)
        out[s[ID]] = (wall, cpu)
    return out


def ancestors_named(spans, name: str) -> set[int]:
    """Ids of spans that have an ancestor (on any thread) called ``name``."""
    by_id = {s[ID]: s for s in spans}
    out = set()
    for s in spans:
        cur = by_id.get(s[PARENT])
        while cur is not None:
            if cur[NAME] == name:
                out.add(s[ID])
                break
            cur = by_id.get(cur[PARENT])
    return out


def summarize(spans, main_thread: int) -> dict:
    """Totals by span name, with the main thread's covered time.

    Returns ``self_s`` (name -> summed self wall time), ``total_s`` (name ->
    summed span duration), ``calls`` (name -> span count), ``main_covered_s``
    (main-thread time inside any span, the sum of its root spans),
    ``worker_self_s`` (sum of self times on other threads) and
    ``wait_in_sweep_s`` (self wall minus self CPU summed over the spans
    under an ``evaluation.sweep`` span).
    """
    selfs = self_times(spans)
    by_id = {s[ID]: s for s in spans}
    out = {
        "self_s": defaultdict(float),
        "total_s": defaultdict(float),
        "calls": defaultdict(int),
        "main_covered_s": 0.0,
        "worker_self_s": 0.0,
    }
    for s in spans:
        wall, _ = selfs[s[ID]]
        out["self_s"][s[NAME]] += wall
        out["total_s"][s[NAME]] += s[T1] - s[T0]
        out["calls"][s[NAME]] += 1
        if s[THREAD] == main_thread:
            if by_id.get(s[PARENT]) is None:
                out["main_covered_s"] += s[T1] - s[T0]
        else:
            out["worker_self_s"] += wall
    under_sweep = ancestors_named(spans, "evaluation.sweep")
    out["wait_in_sweep_s"] = sum(
        selfs[i][0] - selfs[i][1] for i in under_sweep
    )
    return out

