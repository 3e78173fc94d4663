"""Memory contract of the artifact cache: it pins no intermediate netlist.

The memory tier holds each payload's handed-on netlist weakly, so a
netlist lives only while a flow, a caller's ``DesignResult`` or the
synthesized netlist's ``ff_reference`` artifact holds it:

* (a) after ``compare_styles`` returns and its result is dropped, the
  only netlists still alive are the source design and the synthesized
  one, the shared root of every style chain;
* (b) repeated flows against one cache, each result dropped, leave the
  live-netlist count where one flow left it;
* (c) a lookup whose netlist has been freed is a miss: the stage runs
  again and gives the same digests and rows, and ``cache.released``
  counts those re-runs.  A disk tier serves them instead.

Netlists are counted by walking ``gc.get_objects()``: a live ``Module``
is a tracked container object.  No test calls ``gc.collect()``; the
flow makes no reference cycles, so reference counting alone frees
every netlist no one holds.
"""

import gc
from dataclasses import replace

import pytest

from repro import obs
from repro.circuits import build, spec
from repro.flow import (
    ArtifactCache,
    DiskCache,
    FlowOptions,
    compare_styles,
    run_flow,
)
from repro.flow.pipeline import module_digest
from repro.netlist.core import Module
from repro.obs.tracer import Tracer

CYCLES = 16

#: stages of the 3p chain that hand on a netlist of their own; every
#: one but ``synth`` (pinned by ``ff_reference``) is freed between runs.
RELEASED_3P = ["convert", "retime", "cg", "hold_fix", "pnr"]


def _options(name: str, **extra) -> FlowOptions:
    bench = spec(name)
    return FlowOptions(period=bench.period, profile=bench.workload,
                       sim_cycles=CYCLES, **extra)


def _live_modules() -> list[Module]:
    return [o for o in gc.get_objects() if isinstance(o, Module)]


def _new_modules(before: set[int]) -> list[Module]:
    return [m for m in _live_modules() if id(m) not in before]


def _rows(result) -> dict:
    return {
        "area": result.area,
        "power": result.power.as_row(),
        "registers": result.registers,
        "timing_ok": result.timing.ok,
    }


def _chain(result) -> list[tuple[str, str, str]]:
    return [(r.stage, r.input_digest, r.output_digest) for r in result.stages]


# ---------------------------------------------------------------------------
# (a) a finished compare keeps the design and its synthesis alive, no more


@pytest.mark.parametrize("name", ["s9234", "des3"])
def test_compare_leaves_only_the_design_and_its_synthesis(name):
    design = build(name)
    cache = ArtifactCache()
    before = {id(m) for m in _live_modules()}

    def compare() -> str:
        comparison = compare_styles(design, _options(name), cache=cache)
        return comparison.ff.stage_record("synth").output_digest

    synth_digest = compare()
    left = _new_modules(before)
    assert [module_digest(m) for m in left] == [synth_digest]
    assert any(m is design for m in _live_modules())
    assert cache.released() == 0


# ---------------------------------------------------------------------------
# (b) repeated flows do not accumulate netlists


def test_live_netlists_stay_flat_over_repeated_flows():
    design = build("s1488")
    cache = ArtifactCache()
    before = {id(m) for m in _live_modules()}
    counts = []
    for seed in range(1, 11):
        run_flow(design, _options("s1488", seed=seed), cache=cache)
        counts.append(len(_new_modules(before)))
    assert counts == [counts[0]] * 10
    assert counts[0] == 1  # the synthesized netlist


def test_a_held_result_keeps_its_netlist():
    design = build("s1488")
    cache = ArtifactCache()
    result = run_flow(design, _options("s1488"), cache=cache)
    final = module_digest(result.module)
    again = run_flow(design, _options("s1488"), cache=cache)
    # the pnr output is alive through ``result``: a memory hit
    assert again.module is result.module
    assert module_digest(again.module) == final
    assert cache.released("pnr") == 0


# ---------------------------------------------------------------------------
# (c) a freed netlist is a miss, and the re-run gives the same results


def _run_twice(cache: ArtifactCache, options: FlowOptions):
    design = build("s1488")
    first = run_flow(design, options, cache=cache)
    chain, rows = _chain(first), _rows(first)
    hits, misses = cache.hits(), cache.misses()
    del first
    second = run_flow(design, options, cache=cache)
    return chain, rows, hits, misses, second


def test_a_freed_netlist_reruns_its_stage_with_identical_results():
    cache = ArtifactCache()
    chain, rows, hits, misses, second = _run_twice(cache, _options("s1488"))
    assert _chain(second) == chain
    assert _rows(second) == rows
    rerun = [r.stage for r in second.stages if not r.cache_hit]
    assert rerun == RELEASED_3P
    assert cache.released() == len(RELEASED_3P)
    assert all(cache.released(stage) == 1 for stage in RELEASED_3P)
    assert cache.misses() == misses + len(RELEASED_3P)
    assert cache.hits() == hits + len(chain) - len(RELEASED_3P)
    assert len(cache) == len(chain)


def test_a_disk_tier_serves_what_memory_released(tmp_path):
    cache = ArtifactCache(disk=DiskCache(tmp_path))
    chain, rows, _hits, misses, second = _run_twice(cache, _options("s1488"))
    assert _chain(second) == chain
    assert _rows(second) == rows
    assert all(r.cache_hit for r in second.stages)
    assert cache.misses() == misses
    assert cache.released() == len(RELEASED_3P)
    assert cache.disk_hits() == len(RELEASED_3P)


def test_released_counter_reaches_the_tracer():
    cache = ArtifactCache()
    options = _options("s1488")
    tracer = Tracer()
    with obs.use_tracer(tracer):
        _run_twice(cache, options)
    assert tracer.metrics.value("cache.released") == len(RELEASED_3P)


def test_a_memory_hit_reports_released_zero():
    tracer = Tracer()
    with obs.use_tracer(tracer):
        compare_styles(build("s1488"), _options("s1488"))
    snapshot = tracer.metrics.snapshot()["counters"]
    assert snapshot["cache.released"] == 0
    assert snapshot["cache.hits"] == 2  # ms and 3p reuse the synthesis


@pytest.mark.parametrize("style", ["ff", "ms", "pulsed"])
def test_other_styles_rerun_identically(style):
    cache = ArtifactCache()
    options = replace(_options("s1488"), style=style)
    chain, rows, _hits, _misses, second = _run_twice(cache, options)
    assert _chain(second) == chain
    assert _rows(second) == rows
    assert cache.released() == sum(not r.cache_hit for r in second.stages)
