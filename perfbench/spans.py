"""In-memory span recorder for the traced benchmark run.

A ``Tracer`` wraps library functions where the calling modules look them
up: every module of the package that binds the original function object
gets the wrapper instead, so calls made through any module's namespace
are recorded.  Each span keeps its name, start, end, parent and thread.
Parents come from a per-thread stack, so spans opened in thread-pool
workers nest under the worker's own open span, never under a span of the
thread that submitted the work.

A span's self time is its duration minus the part of its interval that
its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    work: int = 0
    peak_bytes: int = 0


@dataclass(frozen=True)
class Layer:
    """One traced function: ``owner.attr`` is recorded under ``name``.

    ``owner`` is a module or a class; for a class the attribute is a
    method and is replaced on the class itself.  ``work_arg`` names the
    argument that counts replicates; ``track_alloc`` measures the peak
    traced allocation of each call with ``tracemalloc``.
    """

    name: str
    owner: object
    attr: str
    work_arg: str | None = None
    track_alloc: bool = False


@dataclass
class Stats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: int = 0
    peak_bytes: int = 0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, work: int = 0) -> Span:
        stack = self._stack()
        span = Span(
            next(self._ids),
            name,
            self.clock(),
            0.0,
            stack[-1] if stack else None,
            threading.get_ident(),
            work,
        )
        stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, layer: Layer, fn):
        sig = inspect.signature(fn) if layer.work_arg else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = 0
            if sig is not None:
                bound = sig.bind(*args, **kwargs).arguments
                work = int(bound.get(layer.work_arg, sig.parameters[layer.work_arg].default))
            span = self.open(layer.name, work)
            try:
                if not layer.track_alloc or tracemalloc.is_tracing():
                    return fn(*args, **kwargs)
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    span.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            finally:
                self.close(span)

        return traced


def rebind(original, replacement, package: str) -> list[tuple[object, str, object]]:
    """Replace every binding of ``original`` in the package's loaded modules.

    Returns the (module, name, original) triples that ``restore`` undoes.
    """
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                undo.append((module, key, original))
    return undo


def restore(undo) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


def instrument(tracer: Tracer, layers, package: str) -> list[tuple[object, str, object]]:
    """Wrap each layer's function at all its bindings; returns the undo list."""
    undo = []
    for layer in layers:
        if inspect.isclass(layer.owner):
            original = layer.owner.__dict__[layer.attr]
            setattr(layer.owner, layer.attr, tracer.wrap(layer, original))
            undo.append((layer.owner, layer.attr, original))
        else:
            original = getattr(layer.owner, layer.attr)
            undo.extend(rebind(original, tracer.wrap(layer, original), package))
    return undo


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of each span, keyed by span id."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.end - span.start - _covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def summarize(spans) -> dict[str, Stats]:
    """Calls, total time, self time, work and peak allocation per span name."""
    own = self_times(spans)
    out: dict[str, Stats] = {}
    for span in spans:
        stats = out.setdefault(span.name, Stats())
        stats.calls += 1
        stats.total_s += span.end - span.start
        stats.self_s += own[span.id]
        stats.work += span.work
        stats.peak_bytes = max(stats.peak_bytes, span.peak_bytes)
    return out
