"""In-memory span tracing around besovlab's public functions.

A traced pass replaces each listed function, in every ``besovlab`` module
namespace that holds it, by a wrapper that records one span per call:
name, start, end, parent and thread. The parent is the innermost open span
on the same thread. A span on another thread than the one that made the
tracer (a pool worker) that has no open span on its own thread takes as
parent the innermost span open on the tracer's thread when it starts: the
call that handed it the work, such as ``cli.cmd_suite`` waiting on its
pool. A wrapper may also attach work counts computed from the call's
arguments and result. The originals are put back when the pass ends, also
when it raises.

A span's self time is its duration minus the part of that interval its
child spans cover. Children on one thread nest and never overlap; children
on pool threads do overlap, so the arithmetic takes the union of the child
intervals and counts time that two workers share once.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    """One call: wall-clock start and end, the thread's CPU time spent
    between them (a thread blocked on the interpreter lock spends none)."""

    __slots__ = ("name", "start", "end", "parent", "thread", "cpu", "counts")

    def __init__(self, name, start, end, parent=None, thread=0, cpu=0.0, counts=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.thread = thread
        self.cpu = cpu
        self.counts = counts


class Tracer:
    """Collects spans from wrapped functions; safe to call from threads.

    The thread that makes the tracer is its home thread; see the module
    docstring for how spans on other threads find their parent.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._local.stack = []
        self._home = threading.get_ident()
        self._home_stack = self._local.stack

    def wrap(self, name, fn, counter=None):
        """Return ``fn`` wrapped so each call records a span named ``name``.

        ``counter(args, kwargs, result)`` returns a dict of work counts for
        the span; it runs after the span has ended, so its cost is tracing
        overhead and not the function's time.
        """
        spans, lock, local = self.spans, self._lock, self._local
        home, home_stack = self._home, self._home_stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            thread = threading.get_ident()
            if stack:
                parent = stack[-1]
            elif thread != home:
                # a one-element slice of a list is taken atomically
                tail = home_stack[-1:]
                parent = tail[0] if tail else None
            else:
                parent = None
            span = Span(name, 0.0, 0.0, parent, thread)
            with lock:
                index = len(spans)
                spans.append(span)
            stack.append(index)
            cpu0 = time.thread_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu = time.thread_time() - cpu0
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return wrapper


def _besovlab_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "besovlab" or name.startswith("besovlab."))
    ]


@contextmanager
def installed(tracer: Tracer, targets):
    """Patch every traced function into all ``besovlab`` namespaces.

    ``targets`` holds (module name, attribute, span name, counter) tuples.
    Every module attribute that is the original function object, under any
    name, is replaced by the wrapper for the duration of the block.
    """
    patched = []
    try:
        modules = _besovlab_modules()
        for module_name, attr, span_name, counter in targets:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = tracer.wrap(span_name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        patched.append((mod, key, original))
        yield
    finally:
        for mod, key, original in reversed(patched):
            setattr(mod, key, original)


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Self time of every span: duration minus the union of its children's
    intervals, each clipped to the parent's interval."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(spans[i])
    out = []
    for i, span in enumerate(spans):
        covered = _union_length(
            (max(c.start, span.start), min(c.end, span.end)) for c in children.get(i, ())
        )
        out.append((span.end - span.start) - covered)
    return out


def has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def summarize(spans, selfs=None) -> dict:
    """Per span name: calls, summed self time and summed work counts;
    ``selfs`` are the spans' self times when already computed."""
    if selfs is None:
        selfs = self_times(spans)
    out: dict = {}
    for span, self_s in zip(spans, selfs):
        entry = out.setdefault(span.name, {"calls": 0, "self_s": 0.0, "counts": defaultdict(float)})
        entry["calls"] += 1
        entry["self_s"] += self_s
        for key, value in (span.counts or {}).items():
            entry["counts"][key] += value
    return out
