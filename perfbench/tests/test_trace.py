import json
import threading
import types

import pytest

from perfbench.layers import layer_metrics
from perfbench.trace import Span, Tracer, after_each_call, self_seconds, total_seconds, within


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class Worker:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 41


def test_nested_spans_record_parent_trace_and_self_time():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("a"):  # t=1..8
        with tracer.span("b"):  # t=2..5
            with tracer.span("a"):  # t=3..4
                pass
        with tracer.span("c"):  # t=6..7
            pass
    with tracer.span("d"):  # a new trace
        pass
    a, b, inner_a, c, d = tracer.spans
    assert b.parent is a and inner_a.parent is b and c.parent is a and d.parent is None
    assert a.trace == b.trace == inner_a.trace == c.trace != d.trace
    assert self_seconds(tracer.spans, "a") == (7 - 3 - 1) + 1
    assert self_seconds(tracer.spans, "b") == 3 - 1
    assert total_seconds(tracer.spans, "a") == 7  # the nested "a" is not counted twice
    assert within(tracer.spans, "b", "a") == [inner_a]


def test_wrap_traces_calls_and_restore_puts_originals_back():
    original = Worker.__dict__["inner"]
    module = types.SimpleNamespace(twice=lambda x: 2 * x)
    tracer = Tracer()
    tracer.wrap(Worker, "outer", "layer.outer")
    tracer.wrap(Worker, "inner", "layer.inner", attrs_of=lambda args, result: {"result": result})
    tracer.wrap(module, "twice", "layer.twice")
    tracer.wrap(Worker, "gone", "layer.gone")
    assert Worker().outer() == 42 and module.twice(3) == 6
    outer, inner, twice = tracer.spans
    assert (outer.name, inner.name, twice.name) == ("layer.outer", "layer.inner", "layer.twice")
    assert inner.parent is outer and inner.attrs == {"result": 41}
    assert tracer.missing == ["Worker.gone"]
    tracer.restore()
    assert Worker.__dict__["inner"] is original
    Worker().outer()
    assert len(tracer.spans) == 3


def test_each_thread_keeps_its_own_span_stack():
    tracer = Tracer()
    started, release = threading.Event(), threading.Event()

    def other():
        with tracer.span("thread"):
            started.set()
            release.wait(5)

    with tracer.span("main"):
        worker = threading.Thread(target=other)
        worker.start()
        started.wait(5)
        with tracer.span("main.child"):
            pass
        release.set()
        worker.join(5)
    assert not worker.is_alive()
    spans = {s.name: s for s in tracer.spans}
    assert spans["thread"].parent is None
    assert spans["main.child"].parent is spans["main"]


def test_after_each_call_sees_results_and_unwraps():
    results = []
    with after_each_call(Worker, "inner", results.append):
        Worker().outer()
        Worker().inner()
    assert results == [41, 41]
    assert "observed" not in Worker.inner.__qualname__


def test_export_writes_parent_indices(tmp_path):
    tracer = Tracer()
    with tracer.span("a"):
        with tracer.span("b"):
            pass
    tracer.record("req", 1.0, 2.0, {"request": 0})
    tracer.export(tmp_path / "trace.json")
    rows = json.loads((tmp_path / "trace.json").read_text())["spans"]
    assert [r["parent"] for r in rows] == [None, 0, None]
    assert rows[2]["attrs"] == {"request": 0} and rows[2]["end"] - rows[2]["start"] == 1.0


def test_layer_metrics_split_contrastive_and_parallel_time():
    fit = Span("objectives.contrastive.loss", 0.0, 10.0)
    sample = Span("objectives.contrastive.sample", 1.0, 4.0, parent=fit)
    fanout = Span("parallel.map", 0.0, 5.0, attrs={"workers": 2, "task_s": [4.0, 4.0]})
    serial = [
        Span("parallel.map", start, start + seconds, attrs={"workers": 1, "task_s": [seconds]})
        for start, seconds in ((10.0, 8.0), (20.0, 10.0))
    ]
    metrics = layer_metrics([fit, sample, fanout, *serial])
    assert metrics["objectives.contrastive.kernel_s"] == 7.0
    assert metrics["objectives.contrastive.sample_s"] == 3.0
    assert metrics["parallel.map_s"] == 5.0 and metrics["parallel.task_s"] == 8.0
    assert metrics["parallel.efficiency"] == pytest.approx(0.8)
    assert metrics["parallel.speedup"] == pytest.approx(1.8)
    assert metrics["training.batches"] == 0.0
