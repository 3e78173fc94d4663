"""The metric store and the Prometheus text renderer."""

import pytest

from repro.obs.metrics import BYTE_BUCKETS, MetricStore
from repro.obs.promexpo import (
    CONTENT_TYPE,
    metric_name,
    render,
    write_metrics,
)
from tests.obs.promparse import (
    assert_histogram_invariants,
    parse_exposition,
    sample_values,
)


class TestInstruments:
    def test_labeled_counter(self):
        store = MetricStore()
        store.add("c", endpoint="/jobs", status="202")
        store.add("c", 2.0, endpoint="/jobs", status="202")
        store.add("c", endpoint="/healthz", status="200")
        assert store.value("c", endpoint="/jobs", status="202") == 3.0
        assert store.value("c", status="202", endpoint="/jobs") == 3.0
        [(_, kind, _, _, series)] = store.collect()
        assert kind == "counter"
        assert sum(total for _, total in series) == 4.0

    def test_gauge_callback_and_set(self):
        store = MetricStore()
        store.gauge_fn("fn", lambda: 42.0)
        store.gauge("direct", 7.0)
        parsed = parse_exposition(render(store))
        assert sample_values(parsed, "repro_fn") == [42.0]
        assert sample_values(parsed, "repro_direct") == [7.0]

    def test_gauge_callback_failure_reads_zero(self):
        def boom():
            raise RuntimeError("scrape must not die")
        store = MetricStore()
        store.gauge_fn("boom", boom)
        assert sample_values(parse_exposition(render(store)),
                             "repro_boom") == [0.0]

    def test_rolling_histogram_buckets_cumulative(self):
        store = MetricStore()
        store.declare("h", "histogram", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            store.record("h", value)
        parsed = parse_exposition(render(store))
        assert [(labels["le"], value) for name, labels, value
                in parsed["samples"] if name == "repro_h_bucket"] == [
            ("1", 1.0), ("10", 2.0), ("+Inf", 3.0)]
        assert sample_values(parsed, "repro_h_count") == [3.0]
        assert sample_values(parsed, "repro_h_sum") == [55.5]

    def test_window_summary_zeroed_when_empty(self):
        from repro.obs.metrics import Histogram

        summary = Histogram(BYTE_BUCKETS).summary()
        assert summary["count"] == 0
        assert summary["p95"] == 0.0

    def test_summary_percentiles_over_the_window(self):
        from repro.obs.metrics import DEFAULT_WINDOW

        store = MetricStore()
        for value in range(DEFAULT_WINDOW * 2):
            store.record("h", value)
        summary = store.snapshot()["histograms"]["h"]
        # count/min/max/mean cover every observation ...
        assert summary["count"] == DEFAULT_WINDOW * 2
        assert summary["min"] == 0.0
        assert summary["max"] == DEFAULT_WINDOW * 2 - 1
        assert summary["mean"] == (DEFAULT_WINDOW * 2 - 1) / 2
        # ... the percentiles only the most recent DEFAULT_WINDOW
        assert summary["p50"] == DEFAULT_WINDOW + DEFAULT_WINDOW // 2

    def test_registry_create_or_return_and_kind_mismatch(self):
        store = MetricStore()
        store.declare("x", "counter", "x")
        store.declare("x", "counter", "x")
        assert len(store.collect()) == 1
        with pytest.raises(ValueError):
            store.declare("x", "gauge", "x")

    def test_merge_raw_accumulates(self):
        a, b = MetricStore(), MetricStore()
        for store in (a, b):
            store.add("c", 2)
            store.add("jobs", outcome="done")
            store.gauge("g", 1.0)
            store.record("h", 0.5)
        a.merge_raw(b.raw(), ts_shift=10.0)
        assert a.value("c") == 4.0
        assert a.value("jobs", outcome="done") == 2.0
        snap = a.snapshot()
        assert [v for _, v in snap["gauges"]["g"]] == [1.0, 1.0]
        assert snap["gauges"]["g"][1][0] >= 10.0
        assert snap["histograms"]["h"]["count"] == 2
        assert a.op_count == 8


class TestRenderer:
    def test_metric_name_sanitizes(self):
        assert metric_name("sim.events_per_s") == "repro_sim_events_per_s"
        assert metric_name("9bad") == "repro__9bad"

    def test_exposition_parses_and_obeys_invariants(self):
        store = MetricStore()
        store.declare("jobs", "counter", "job outcomes")
        store.add("jobs", outcome="completed")
        store.add("jobs", 3, outcome="failed")
        store.declare("queue_depth", "gauge", "queued jobs")
        store.gauge("queue_depth", 4)
        store.declare("stage_seconds", "histogram", "stage wall",
                      buckets=(0.1, 1.0))
        store.record("stage_seconds", 0.05, stage="synth")
        store.record("stage_seconds", 5.0, stage="synth")
        store.record("stage_seconds", 0.5, stage="sim")

        text = render(store)
        parsed = parse_exposition(text)
        assert parsed["types"] == {
            "repro_jobs_total": "counter",
            "repro_queue_depth": "gauge",
            "repro_stage_seconds": "histogram",
        }
        assert sample_values(parsed, "repro_jobs_total",
                             outcome="failed") == [3.0]
        assert sample_values(parsed, "repro_queue_depth") == [4.0]
        assert_histogram_invariants(parsed, "repro_stage_seconds")
        assert sample_values(parsed, "repro_stage_seconds_count",
                             stage="synth") == [2.0]

    def test_label_values_escaped(self):
        store = MetricStore()
        store.declare("odd", "counter", "odd labels")
        store.add("odd", path='with"quote', note="line\nbreak")
        text = render(store)
        assert r'path="with\"quote"' in text
        assert r'note="line\nbreak"' in text
        parse_exposition(text)  # still parses

    def test_empty_counter_renders_zero_line(self):
        store = MetricStore()
        store.declare("untouched", "counter", "never incremented")
        parsed = parse_exposition(render(store))
        assert sample_values(parsed, "repro_untouched_total") == [0.0]

    def test_content_type_pinned(self):
        assert CONTENT_TYPE == "text/plain; version=0.0.4; charset=utf-8"

    def test_write_metrics(self, tmp_path):
        from repro import obs

        tracer = obs.Tracer()
        tracer.metrics.declare("up", "gauge", "up")
        tracer.metrics.gauge("up", 1)
        path = tmp_path / "metrics.prom"
        write_metrics(tracer, str(path))
        parsed = parse_exposition(path.read_text())
        assert sample_values(parsed, "repro_up") == [1.0]


class TestRegistryFromTracer:
    """A finished run's tracer store, rendered for ``--metrics-out``."""

    def test_batch_run_metrics_match_daemon_families(self, tmp_path):
        from repro import obs

        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            with obs.monitored(tracer, interval_s=0.01):
                with obs.span("stage.synth", style="3p") as sp:
                    window = obs.resource_window()
                    obs.add("cache.hits", 2)
                    obs.gauge("sim.events_per_s", 1e6)
                    obs.record("cache.lock_wait_s", 0.001)
                    sp.set(**window.close())

        path = tmp_path / "metrics.prom"
        write_metrics(tracer, str(path))
        parsed = parse_exposition(path.read_text())
        assert sample_values(parsed, "repro_cache_hits_total") == [2.0]
        assert sample_values(parsed, "repro_sim_events_per_s") == [1e6]
        assert_histogram_invariants(parsed, "repro_cache_lock_wait_s")
        # the two per-stage families the serve daemon also exposes
        assert sample_values(parsed, "repro_stage_seconds_count",
                             stage="synth", style="3p") == [1.0]
        assert sample_values(parsed, "repro_stage_peak_rss_bytes_count",
                             stage="synth") == [1.0]
        assert sample_values(parsed, "repro_stage_cache_total",
                             outcome="miss") == [1.0]
        assert_histogram_invariants(parsed, "repro_stage_peak_rss_bytes")
        peak = sample_values(parsed, "repro_process_peak_rss_bytes")
        assert peak and peak[0] > 0

    def test_byte_buckets_cover_process_sizes(self):
        assert BYTE_BUCKETS[0] == float(16 << 20)
        assert BYTE_BUCKETS[-1] == float(8 << 30)
