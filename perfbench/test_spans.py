"""Tests for the benchmark's span accounting.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

from spans import Layer, Span, Tracer, instrument, restore, self_times, summarize


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_nested_self_time():
    tracer = Tracer(clock=fake_clock(0.0, 1.0, 3.0, 4.0, 4.5, 10.0))
    outer = tracer.open("outer")
    a = tracer.open("inner")
    tracer.close(a)
    b = tracer.open("inner")
    tracer.close(b)
    tracer.close(outer)
    assert a.parent == outer.id and b.parent == outer.id and outer.parent is None
    stats = summarize(tracer.spans)
    assert stats["outer"].self_s == pytest.approx(10.0 - 2.0 - 0.5)
    assert stats["inner"].self_s == pytest.approx(2.5)
    assert stats["inner"].calls == 2


def test_overlapping_children_counted_once():
    spans = [
        Span(0, "p", 0.0, 10.0, None, 1),
        Span(1, "c", 1.0, 5.0, 0, 2),
        Span(2, "c", 3.0, 7.0, 0, 3),
        Span(3, "c", 9.0, 12.0, 0, 4),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_worker_spans_use_their_own_thread_stack():
    tracer = Tracer()
    gate = threading.Barrier(2)

    def job(i):
        outer = tracer.open("job", work=i)
        gate.wait(timeout=10)  # both workers hold an open span at once
        inner = tracer.open("step")
        tracer.close(inner)
        tracer.close(outer)
        return outer.id, inner.parent, threading.get_ident()

    main = tracer.open("main")
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(job, [3, 5]))
    tracer.close(main)

    by_id = {s.id: s for s in tracer.spans}
    for outer_id, inner_parent, ident in results:
        assert inner_parent == outer_id
        assert by_id[outer_id].parent is None
        assert by_id[outer_id].thread == ident != main.thread
    stats = summarize(tracer.spans)
    # work in other threads does not reduce the submitting span's self time
    assert stats["main"].self_s == pytest.approx(main.end - main.start)
    assert stats["job"].work == 8


def test_instrument_rebinds_every_module_and_restores(monkeypatch):
    lib = types.ModuleType("fakepkg.lib")
    user = types.ModuleType("fakepkg.user")

    def scale(x, count):
        return x * count

    class Fn:
        def __call__(self, x):
            return x + 1

    lib.scale, lib.Fn = scale, Fn
    user.scale = scale  # "from .lib import scale"
    monkeypatch.setitem(sys.modules, "fakepkg.lib", lib)
    monkeypatch.setitem(sys.modules, "fakepkg.user", user)

    tracer = Tracer()
    undo = instrument(
        tracer,
        [Layer("lib.scale", lib, "scale", work_arg="count"), Layer("lib.Fn.call", Fn, "__call__")],
        "fakepkg",
    )
    assert user.scale(2, count=4) == 8 and lib.scale(1, 3) == 3 and Fn()(1) == 2
    restore(undo)
    assert user.scale is scale and lib.scale is scale and Fn.__dict__["__call__"].__name__ == "__call__"
    stats = summarize(tracer.spans)
    assert stats["lib.scale"].calls == 2 and stats["lib.scale"].work == 7
    assert stats["lib.Fn.call"].calls == 1
    user.scale(1, 1)
    assert len(tracer.spans) == 3


def test_alloc_tracking_records_peak():
    tracer = Tracer()

    def grab(n):
        return bytearray(n)

    wrapped = tracer.wrap(Layer("grab", None, "grab", track_alloc=True), grab)
    wrapped(1 << 20)
    assert tracer.spans[0].peak_bytes >= 1 << 20
