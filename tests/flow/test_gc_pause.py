"""The cyclic garbage collector is paused while a flow runs.

``Pipeline.run`` disables the collector for the length of the stage
loop, because full collections rescan every cached netlist and the flow
frees all of its garbage by reference counting.  Two halves:

* the oracle: with the collector off, a whole ``compare_styles`` leaves
  no cyclic garbage behind (``gc.collect() == 0``), in every way a flow
  is run -- plain, traced, against a cold and a warm disk cache, and on
  two threads.  This is what makes the pause safe;
* the guard's contract: off inside a stage, back on afterwards (also
  after an exception), left off for a caller who turned it off, and
  held until the last of several overlapping flows ends.
"""

import gc
import threading
from dataclasses import replace

import pytest

from repro import obs
from repro.circuits import build, spec
from repro.flow import ArtifactCache, FlowOptions, compare_styles
from repro.flow.diskcache import DiskCache
from repro.flow.pipeline import Pipeline, Stage, build_pipeline
from repro.obs.tracer import Tracer

DESIGNS = ("s1196", "des3")
CYCLES = 16


def _options(name: str) -> FlowOptions:
    bench = spec(name)
    return FlowOptions(period=bench.period, profile=bench.workload,
                       sim_cycles=CYCLES)


def _cyclic_garbage(run) -> int:
    """Objects only the cyclic collector can free, left behind by
    ``run()`` and everything it returned (the collector stays off
    until ``collector_restored`` turns it back on)."""
    gc.collect()
    gc.disable()
    run()
    return gc.collect()


@pytest.fixture(autouse=True)
def collector_restored():
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("name", DESIGNS)
class TestFlowMakesNoCycles:
    def test_plain(self, name):
        design = build(name)
        assert _cyclic_garbage(
            lambda: compare_styles(design, _options(name))) == 0

    def test_traced(self, name):
        design = build(name)

        def run():
            tracer = Tracer()
            with obs.use_tracer(tracer), obs.monitored(tracer):
                compare_styles(design, _options(name))
            assert any(s.name == "flow.run" for s in tracer.spans)

        assert _cyclic_garbage(run) == 0

    def test_cold_and_warm_disk_cache(self, name, tmp_path):
        design = build(name)

        def run(expect_hits: bool):
            cache = ArtifactCache(disk=DiskCache(tmp_path))
            compare_styles(design, _options(name), cache=cache)
            assert (cache.misses() == 0) is expect_hits

        assert _cyclic_garbage(lambda: run(expect_hits=False)) == 0
        assert _cyclic_garbage(lambda: run(expect_hits=True)) == 0

    def test_two_threads(self, name):
        design = build(name)
        assert _cyclic_garbage(lambda: compare_styles(
            design, _options(name), jobs=2, executor="thread")) == 0


class _Probe(Stage):
    """A stage that records whether the collector is on while it runs,
    optionally waiting on ``gate`` (after setting ``entered``) first."""

    name = "probe"

    def __init__(self, fail: bool = False,
                 entered: threading.Event | None = None,
                 gate: threading.Event | None = None) -> None:
        self.fail = fail
        self.entered = entered
        self.gate = gate
        self.seen: list[bool] = []

    def run(self, ctx):
        self.seen.append(gc.isenabled())
        if self.entered is not None:
            self.entered.set()
        if self.gate is not None:
            assert self.gate.wait(timeout=30)
        if self.fail:
            raise RuntimeError("probe failure")
        return {}


@pytest.fixture(scope="module")
def small():
    return build("s1488"), replace(_options("s1488"), style="ff")


class TestGuard:
    def test_off_inside_a_stage_and_on_after(self, small):
        design, options = small
        gc.enable()
        probe = _Probe()
        Pipeline([probe]).run(design, options)
        assert probe.seen == [False]
        assert gc.isenabled()

    def test_on_after_a_stage_raises(self, small):
        design, options = small
        gc.enable()
        probe = _Probe(fail=True)
        with pytest.raises(RuntimeError, match="probe failure"):
            Pipeline([probe]).run(design, options)
        assert probe.seen == [False]
        assert gc.isenabled()

    def test_caller_who_disabled_it_keeps_it_off(self, small):
        design, options = small
        gc.disable()
        probe = _Probe()
        Pipeline([probe]).run(design, options)
        assert probe.seen == [False]
        assert not gc.isenabled()

    def test_overlapping_flows_hold_it_off_until_both_end(self, small):
        design, options = small
        gc.enable()
        first = _Probe(entered=threading.Event(), gate=threading.Event())
        second = _Probe(entered=threading.Event(), gate=threading.Event())
        threads = [
            threading.Thread(target=Pipeline([probe]).run,
                             args=(design, options))
            for probe in (first, second)
        ]
        try:
            for thread, probe in zip(threads, (first, second)):
                thread.start()
                assert probe.entered.wait(timeout=30)
            assert not gc.isenabled()
            first.gate.set()
            threads[0].join(timeout=30)
            assert not threads[0].is_alive()
            assert not gc.isenabled(), "re-enabled while a flow still runs"
        finally:
            first.gate.set()
            second.gate.set()
        threads[1].join(timeout=30)
        assert not threads[1].is_alive()
        assert gc.isenabled()
        assert first.seen == second.seen == [False]

    def test_flow_run_span_counts_collections(self, small):
        design, options = small
        gc.enable()
        tracer = Tracer()
        with obs.use_tracer(tracer):
            Pipeline([_Probe()]).run(design, options)
        (run,) = [s for s in tracer.spans if s.name == "flow.run"]
        assert run.attrs["gc_collections"] == 0


def test_no_full_collection_during_a_riscv_sized_flow():
    """riscv (2.8k FFs) allocates enough long-lived netlist objects that
    an unpaused collector runs several full collections in one flow."""
    name = "riscv"
    design = build(name)
    options = replace(_options(name), style="ff")
    gc.enable()
    before = gc.get_stats()[2]["collections"]
    ctx = build_pipeline("ff").run(design, options, cache=ArtifactCache())
    assert gc.get_stats()[2]["collections"] == before
    assert ctx.records
