"""Observability integration: the pipeline under a live tracer."""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro import obs
from repro.circuits import build
from repro.flow import ArtifactCache, FlowOptions, compare_styles, run_flow
from repro.obs.tracer import Tracer


@pytest.fixture(scope="module")
def design():
    return build("s1488")


@pytest.fixture(scope="module")
def options():
    return FlowOptions(period=1000.0, sim_cycles=24, profile="random")


class TestTracedRunFlow:
    @pytest.fixture(scope="class")
    def traced(self, design, options):
        tracer = Tracer()
        with obs.use_tracer(tracer):
            result = run_flow(design, replace(options, style="3p"))
        return tracer, result

    def test_every_stage_has_a_span(self, traced):
        tracer, result = traced
        stage_names = [s.name for s in tracer.spans
                       if s.name.startswith("stage.")]
        assert stage_names == [
            f"stage.{r.stage}" for r in result.stages]

    def test_stage_spans_nest_under_flow_run(self, traced):
        tracer, _ = traced
        run = next(s for s in tracer.spans if s.name == "flow.run")
        assert run.attrs["style"] == "3p"
        for span in tracer.spans:
            if span.name.startswith("stage."):
                assert span.parent_id == run.span_id, span.name

    def test_stage_spans_carry_summary_scalars(self, traced):
        tracer, result = traced
        sim_span = next(s for s in tracer.spans if s.name == "stage.sim")
        assert sim_span.attrs["cache_hit"] is False
        assert sim_span.attrs["wall_s"] >= 0.0
        assert sim_span.attrs["sim_events"] == (
            result.stage_record("sim").summary["sim_events"])

    def test_sub_spans_recorded_inside_stages(self, traced):
        tracer, _ = traced
        names = {s.name for s in tracer.spans}
        assert {"ilp.solve", "convert.rewrite", "sta.analyze",
                "sim.compile", "sim.run", "pnr.place", "pnr.cts.tree",
                "pnr.route"} <= names

    def test_graph_extractions_in_hold_fix_are_sta_spans(self, traced):
        tracer, _ = traced
        by_id = {s.span_id: s for s in tracer.spans}

        def stage_of(span):
            while not span.name.startswith("stage."):
                span = by_id[span.parent_id]
            return span.name

        graphs = [s for s in tracer.spans if s.name == "sta.graph"]
        assert "stage.hold_fix" in {stage_of(s) for s in graphs}
        for span in graphs:
            assert span.attrs["registers"] > 0
            assert span.attrs["edges"] > 0

    def test_bench_sta_calls_count_analyses_only(self, traced, monkeypatch):
        tracer, _ = traced
        path = (Path(__file__).resolve().parents[2]
                / "benchmarks" / "flow" / "bench_flow.py")
        spec = importlib.util.spec_from_file_location("bench_flow", path)
        bench_flow = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "bench_flow", bench_flow)
        monkeypatch.setattr(sys, "path", list(sys.path))
        spec.loader.exec_module(bench_flow)
        layers = bench_flow._traced_layers(
            tracer.spans, {"call_s": 0.0, "produce_s": 0.0})
        analyses = sum(s.name == "sta.analyze" for s in tracer.spans)
        graphs = sum(s.name == "sta.graph" for s in tracer.spans)
        assert layers["sta.calls"] == analyses
        assert graphs > analyses  # hold-fix extracts outside analyze

    def test_sta_spans_carry_worst_slack_and_sweeps(self, traced):
        tracer, result = traced
        analyses = [s for s in tracer.spans if s.name == "sta.analyze"]
        assert analyses[-1].attrs["worst_setup_slack"] == (
            result.timing.worst_setup_slack)
        sweeps = tracer.metrics.snapshot()["histograms"]["sta.sweeps"]
        assert sweeps["count"] == len(analyses)
        assert sweeps["max"] == max(s.attrs["iterations"] for s in analyses)

    def test_metrics_collected(self, traced):
        tracer, _ = traced
        assert tracer.metrics.value("sim.events") > 0
        assert tracer.metrics.value("convert.latches") > 0
        assert tracer.metrics.snapshot()["gauges"]["sim.events_per_s"]


class TestCacheObservability:
    def test_cache_hit_records_lock_wait(self, design, options):
        cache = ArtifactCache()
        opts = replace(options, style="ff")
        run_flow(design, opts, cache=cache)
        hits = cache.hits()
        result = run_flow(design, opts, cache=cache)
        assert cache.hits() > hits
        for record in result.stages:
            if record.cache_hit:
                assert record.summary["lock_wait_s"] >= 0.0

    def test_cache_counters_and_histogram(self, design, options):
        cache = ArtifactCache()
        tracer = Tracer()
        opts = replace(options, style="ff")
        with obs.use_tracer(tracer):
            run_flow(design, opts, cache=cache)
            run_flow(design, opts, cache=cache)
        assert tracer.metrics.value("cache.hits") > 0
        assert tracer.metrics.value("cache.misses") > 0
        waits = tracer.metrics.snapshot()["histograms"]["cache.lock_wait_s"]
        assert waits["count"] and waits["min"] >= 0.0


class TestParallelTracing:
    def test_parallel_styles_nest_and_carry_thread_ids(self, design,
                                                       options):
        tracer = Tracer()
        with obs.use_tracer(tracer):
            compare_styles(design, options, jobs=3)

        compare = next(s for s in tracer.spans
                       if s.name == "flow.compare")
        runs = [s for s in tracer.spans if s.name == "flow.run"]
        assert len(runs) == 3
        assert {r.attrs["style"] for r in runs} == {"ff", "ms", "3p"}
        for run in runs:
            assert run.parent_id == compare.span_id
        # workers ran concurrently on their own threads
        assert len({r.tid for r in runs}) > 1
        # every stage span's parent chain reaches its style's flow.run
        by_id = {s.span_id: s for s in tracer.spans}
        for span in tracer.spans:
            if not span.name.startswith("stage."):
                continue
            node = span
            while node.parent_id is not None:
                node = by_id[node.parent_id]
                if node.name == "flow.run":
                    break
            assert node.name == "flow.run", span.name


class TestJobsValidation:
    @pytest.mark.parametrize("jobs", [0, -1, 1.5, "2", None])
    def test_bad_jobs_rejected(self, design, options, jobs):
        with pytest.raises(ValueError, match="positive integer"):
            compare_styles(design, options, jobs=jobs)


#: deterministic work counts of one traced s1196 compare_styles at 16
#: cycles; a change to any of them is a change in what the flow does
S1196_COUNTERS = {
    "cache.hits": 2, "cache.misses": 29, "convert.latches": 26,
    "lint.findings": 0, "pnr.cts.buffers": 0, "retime.moves": 0,
    "sim.compiles": 4, "sim.events": 4299,
}


@pytest.mark.parametrize("jobs,executor", [(1, "serial"), (2, "process")],
                         ids=["serial", "process"])
def test_counter_oracle(jobs, executor, tmp_path):
    """Exact counters, histogram counts and gauge sample counts of one
    traced run, read back from the JSONL export.  Process workers ship
    their metrics to the parent, so both executors give the same
    values."""
    import json

    tracer = Tracer()
    with obs.use_tracer(tracer):
        compare_styles(build("s1196"), FlowOptions(sim_cycles=16),
                       jobs=jobs, executor=executor)
    path = tmp_path / "run.jsonl"
    obs.write_jsonl(tracer, str(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    by_type: dict[str, dict] = {}
    for line in lines:
        by_type.setdefault(line["type"], {})[line.get("name")] = line
    counters = {name: by_type["counter"].get(name, {"value": 0})["value"]
                for name in S1196_COUNTERS}
    assert counters == S1196_COUNTERS
    assert by_type["histogram"]["cache.lock_wait_s"]["count"] == 31
    assert len(by_type["gauge"]["sim.events_per_s"]["series"]) == 4
    assert len(by_type["gauge"]["ilp.ffs"]["series"]) == 1
