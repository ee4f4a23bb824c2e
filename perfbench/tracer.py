"""Spans recorded from outside the package, for the traced benchmark run.

The tracer replaces public functions at the module attributes their
callers read (``ode.estimate_blowup_time``, and also the copies other
modules imported by name, such as ``ensemble.barometer``) with wrappers
that record a span per call: name, start, end, parent span and, for
model callables, the number of array elements passed in.  The callables
the benchmark hands to the package (drift, diffusion, ODE rates, growth
laws) are wrapped the same way.  Nothing under ``src/`` changes.

A span's parent is the innermost open span of its own thread, or, in a
worker thread with nothing open, the innermost open span of the main
thread (the call that started the worker).  Self time is a span's
duration minus the union of its children's intervals, so overlapping
children in worker threads are not counted twice.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import time
from collections import defaultdict

import numpy as np

NAME, START, END, PARENT, SIZE = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._main_stack: list[list] = []
        self._local.stack = self._main_stack
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, *, sized=False, on_result=None):
        """Return ``fn`` recording one span per call.

        ``name`` is a string or a function of the call's arguments.
        ``sized`` records ``np.size`` of the first argument; ``on_result``
        receives ``(span, result, args)`` and may rewrite the result.
        """
        stacks = self._stack
        main_stack = self._main_stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stacks()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else None
            label = name if isinstance(name, str) else name(args, kwargs)
            span = [label, 0.0, 0.0, parent, np.size(args[0]) if sized else 0]
            stack.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                spans.append(span)
            if on_result is not None:
                result = on_result(span, result, args)
            return result

        return traced

    def open(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Scope(self, name)

    def patch(self, module, attr: str, name, **hooks) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, **hooks))

    def unpatch(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def model(self, model):
        """A copy of a ``StochasticModel`` whose callables record spans."""
        return dataclasses.replace(
            model,
            drift=self.wrap("sde.drift", model.drift, sized=True),
            diffusion=self.wrap("sde.diffusion", model.diffusion, sized=True),
        )

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


class _Scope:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.span = [name, 0.0, 0.0, None, 0]

    def __enter__(self):
        stack = self.tracer._stack()
        self.span[PARENT] = stack[-1] if stack else None
        stack.append(self.span)
        self.span[START] = time.perf_counter()
        return self.span

    def __exit__(self, *exc):
        self.span[END] = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append(self.span)
        return False


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


@dataclasses.dataclass
class NameStats:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    size: int = 0


def summarize(spans: list[list]) -> dict[str, NameStats]:
    """Calls, total time, self time and element count per span name."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            lo = max(span[START], parent[START])
            hi = min(span[END], parent[END])
            if hi > lo:
                children[id(parent)].append((lo, hi))
    out: dict[str, NameStats] = defaultdict(NameStats)
    for span in spans:
        stats = out[span[NAME]]
        duration = span[END] - span[START]
        stats.calls += 1
        stats.seconds += duration
        stats.self_seconds += duration - _union_length(children.get(id(span), []))
        stats.size += span[SIZE]
    return out


def under(spans: list[list], root_prefix: str) -> list[list]:
    """Spans whose chain of parents reaches a span named ``root_prefix*``."""
    keep = []
    for span in spans:
        node = span
        while node is not None:
            if node[NAME].startswith(root_prefix):
                keep.append(span)
                break
            node = node[PARENT]
    return keep
