"""Tracer unit tests: nesting, threading, metrics, the null path."""

import threading

import pytest

from repro import obs
from repro.obs.metrics import DURATION_BUCKETS, Histogram, MetricStore
from repro.obs.tracer import NULL_SPAN, Tracer


@pytest.fixture
def tracer():
    t = Tracer()
    with obs.use_tracer(t):
        yield t


class TestSpans:
    def test_records_wall_and_cpu(self, tracer):
        with obs.span("work"):
            sum(range(1000))
        (rec,) = tracer.spans
        assert rec.name == "work"
        assert rec.dur >= 0.0
        assert rec.cpu >= 0.0
        assert rec.ts >= 0.0

    def test_nesting_sets_parent(self, tracer):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        inner, outer = tracer.spans
        assert inner.name == "inner"
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_sibling_spans_share_parent(self, tracer):
        with obs.span("outer"):
            with obs.span("a"):
                pass
            with obs.span("b"):
                pass
        a, b, outer = tracer.spans
        assert a.parent_id == b.parent_id == outer.span_id

    def test_attrs_at_open_and_set(self, tracer):
        with obs.span("s", x=1) as sp:
            sp.set(y=2)
        assert tracer.spans[0].attrs == {"x": 1, "y": 2}

    def test_annotate_hits_innermost(self, tracer):
        with obs.span("outer"):
            with obs.span("inner"):
                obs.annotate(mark=True)
        inner = tracer.spans[0]
        assert inner.name == "inner" and inner.attrs == {"mark": True}

    def test_exception_records_error_attr(self, tracer):
        with pytest.raises(ValueError):
            with obs.span("boom"):
                raise ValueError("no")
        assert tracer.spans[0].attrs["error"] == "ValueError"

    def test_exception_pops_the_stack(self, tracer):
        with pytest.raises(ValueError):
            with obs.span("boom"):
                raise ValueError("no")
        with obs.span("after"):
            pass
        after = tracer.spans[-1]
        assert after.parent_id is None

    def test_explicit_parent_overrides_stack(self, tracer):
        with obs.span("root"):
            root_id = obs.current_span_id()
        with obs.span("linked", _parent=root_id):
            pass
        linked = tracer.spans[-1]
        assert linked.parent_id == root_id

    def test_current_span_id_tracks_stack(self, tracer):
        assert obs.current_span_id() is None
        with obs.span("s") as sp:
            assert obs.current_span_id() == sp.span_id
        assert obs.current_span_id() is None


def test_threads_nest_independently():
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def worker(tag):
        barrier.wait()
        with tracer.span(f"outer.{tag}", {}):
            with tracer.span(f"inner.{tag}", {}):
                pass

    with obs.use_tracer(tracer):
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    by_name = {s.name: s for s in tracer.spans}
    for tag in (0, 1):
        inner, outer = by_name[f"inner.{tag}"], by_name[f"outer.{tag}"]
        assert inner.parent_id == outer.span_id
        assert inner.tid == outer.tid
    assert by_name["outer.0"].tid != by_name["outer.1"].tid


class TestMetrics:
    def test_counters_accumulate(self, tracer):
        obs.add("hits")
        obs.add("hits", 2)
        assert tracer.metrics.value("hits") == 3.0
        assert tracer.op_count == 2

    def test_gauges_keep_the_series(self, tracer):
        obs.gauge("rate", 1.0)
        obs.gauge("rate", 2.0)
        series = tracer.metrics.snapshot()["gauges"]["rate"]
        assert [v for _, v in series] == [1.0, 2.0]
        assert series[0][0] <= series[1][0]

    def test_histogram_summary(self):
        metrics = MetricStore()
        for v in (1.0, 2.0, 3.0, 4.0):
            metrics.record("h", v)
        summary = metrics.snapshot()["histograms"]["h"]
        assert summary["count"] == 4
        assert summary["min"] == 1.0 and summary["max"] == 4.0
        assert summary["mean"] == 2.5
        assert summary["p50"] == 3.0 and summary["p95"] == 4.0

    def test_empty_histogram(self):
        # fully zeroed summary: consumers can always read min/p95 etc.
        assert Histogram(DURATION_BUCKETS).summary() == {
            "count": 0, "min": 0.0, "max": 0.0, "mean": 0.0,
            "p50": 0.0, "p95": 0.0,
        }

    def test_op_count_counts_everything(self, tracer):
        with obs.span("s"):
            pass
        obs.add("c")
        obs.gauge("g", 1.0)
        obs.record("h", 1.0)
        assert tracer.op_count == 4


class TestRegistry:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert obs.get_tracer() is None
        assert obs.span("anything") is NULL_SPAN
        assert obs.current_span_id() is None
        obs.add("nothing")  # must not raise
        obs.gauge("nothing", 1.0)
        obs.record("nothing", 1.0)
        obs.annotate(x=1)

    def test_null_span_is_inert(self):
        with obs.span("x") as sp:
            sp.set(anything=1)
        assert sp is NULL_SPAN

    def test_use_tracer_restores_previous(self):
        outer, inner = Tracer(), Tracer()
        obs.install(outer)
        try:
            with obs.use_tracer(inner):
                assert obs.get_tracer() is inner
            assert obs.get_tracer() is outer
        finally:
            obs.uninstall()
        assert obs.get_tracer() is None

    def test_use_tracer_restores_on_error(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with obs.use_tracer(t):
                raise RuntimeError("bail")
        assert obs.get_tracer() is None

    def test_null_op_seconds_is_fast_and_restores(self):
        t = Tracer()
        obs.install(t)
        try:
            per_op = obs.null_op_seconds(iterations=1000)
            assert obs.get_tracer() is t
        finally:
            obs.uninstall()
        # one disabled span + counter must be well under 10 microseconds
        assert 0.0 < per_op < 10e-6
        assert not t.spans  # probes must not leak into the tracer
