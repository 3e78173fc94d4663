"""Deferred netlists: a disk hit unpickles a netlist only when it is read.

The artifact cache stores a payload's handed-on netlist as its own
nested pickle, and a disk hit hands it on still pickled.  The runner
unpickles it just before a stage runs on it, or when the flow returns
it; the synthesized netlist, which is also the ``ff_reference``
artifact, stays inline and is unpickled with its entry.  So:

* (a) a warm compare on a fresh memory tier equals the cold one: rows,
  stats, area, final digests, every stage record and lint result;
* (b) an all-hit compare unpickles 1 + 3 netlists: ``ff_reference``
  and each style's final netlist;
* (c) a partial-warm rerun (new ``sim_cycles``) equals a cache-less run,
  and its sim stages unpickle the P&R netlist they run on;
* (d) no ``Stage.run`` and no caller ever sees a pickled netlist;
* (e) an entry whose netlist part is truncated, overwritten, or no
  longer unpickles is dropped as corrupt and its producer re-runs,
  never a traceback.
"""

import pickle
import zlib

import pytest

from repro import obs
from repro.circuits import build, spec
from repro.flow import (
    ArtifactCache,
    DiskCache,
    FlowOptions,
    Stage,
    compare_styles,
    module_digest,
)
from repro.flow.pipeline import PickledNetlist
from repro.netlist.core import Module
from repro.obs.tracer import Tracer

STYLES = ("ff", "ms", "3p")
CYCLES = 16


def _options(name: str, **extra) -> FlowOptions:
    bench = spec(name)
    return FlowOptions(**{"period": bench.period, "profile": bench.workload,
                          "sim_cycles": CYCLES, **extra})


def _compare(design, options, root, **kwargs):
    """A compare on a fresh memory tier over the disk tier at ``root``,
    traced; returns ``(comparison, cache, disk, tracer)``."""
    disk = DiskCache(root)
    cache = ArtifactCache(disk=disk)
    tracer = Tracer()
    with obs.use_tracer(tracer):
        comparison = compare_styles(design, options, cache=cache, **kwargs)
    return comparison, cache, disk, tracer


def _outputs(comparison) -> dict:
    """What every run of the same options must reproduce, per style."""
    view = {"row": comparison.table_row()}
    for style in STYLES:
        result = comparison.result(style)
        view[style] = {
            "stats": result.stats,
            "area": result.area,
            "digest": module_digest(result.module),
            "chain": [(r.stage, r.input_digest, r.output_digest)
                      for r in result.stages],
            "lint": result.lint,
        }
    return view


def _run_s(comparison) -> dict:
    """Each stage's producer seconds, which a cache hit replays."""
    return {style: [r.run_s for r in comparison.result(style).stages]
            for style in STYLES}


def _loads(tracer) -> int:
    return int(tracer.metrics.value("cache.netlist_loads"))


# ---------------------------------------------------------------------------
# (a) + (b) an all-hit compare


@pytest.mark.parametrize("name", ["s1488", "s9234", "des3"])
def test_warm_compare_equals_cold_and_loads_four_netlists(name, tmp_path):
    design = build(name)
    cold, _, _, cold_tracer = _compare(design, _options(name), tmp_path)
    warm, cache, _, tracer = _compare(design, _options(name), tmp_path)

    assert cache.misses() == 0
    assert _outputs(warm) == _outputs(cold)
    assert _run_s(warm) == _run_s(cold)
    assert _loads(cold_tracer) == 0
    # ff_reference with its entry, then the deferred final netlist of
    # each of the three styles
    assert _loads(tracer) == 1 + 3
    spans = [s for s in tracer.spans if s.name == "cache.netlist_load"]
    assert len(spans) == 3
    assert tracer.metrics.value("cache.netlist_load_bytes") == \
        sum(s.attrs["bytes"] for s in spans) > 0


# ---------------------------------------------------------------------------
# (c) a partial-warm rerun


def test_partial_warm_rerun_equals_a_cacheless_run(tmp_path):
    design = build("s1488")
    _compare(design, _options("s1488"), tmp_path)

    options = _options("s1488", sim_cycles=2 * CYCLES)
    warm, _, _, tracer = _compare(design, options, tmp_path)
    reference = compare_styles(design, options)

    assert _outputs(warm) == _outputs(reference)
    for style in STYLES:
        missed = [r.stage for r in warm.result(style).stages
                  if not r.cache_hit]
        assert missed == ["sim", "power"], style
    # ff_reference, and each style's sim unpickles its P&R netlist,
    # which power and the result then share
    assert _loads(tracer) == 1 + 3


# ---------------------------------------------------------------------------
# (d) nothing outside the runner sees a pickled netlist


def _stage_classes():
    todo, seen = [Stage], []
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return [cls for cls in seen if "run" in vars(cls)]


def test_no_stage_and_no_caller_sees_a_pickled_netlist(tmp_path,
                                                        monkeypatch):
    seen: list[tuple[str, type]] = []

    def spy(real):
        def run(self, ctx):
            seen.append((self.name, type(ctx.module)))
            for art in ctx.artifacts.values():
                assert not isinstance(art, PickledNetlist), self.name
            return real(self, ctx)
        return run

    for cls in _stage_classes():
        monkeypatch.setattr(cls, "run", spy(vars(cls)["run"]))

    design = build("s1488")
    _compare(design, _options("s1488", verify=True), tmp_path)
    seen.clear()
    # partial-warm reruns: verify (new budget), cg and sim (new seed)
    # miss, so they run on netlists the disk tier handed on pickled
    for options in (_options("s1488", verify=True,
                             verify_conflict_budget=100_000),
                    _options("s1488", verify=True, seed=2)):
        for kwargs in ({}, {"jobs": 3, "executor": "thread"}):
            comparison, *_ = _compare(design, options, tmp_path, **kwargs)
            for style in STYLES:
                assert type(comparison.result(style).module) is Module
    assert {name for name, _ in seen} >= {"verify", "cg", "sim", "power"}
    assert {kind for _, kind in seen} == {Module}


# ---------------------------------------------------------------------------
# (e) a netlist part that does not load


def _pnr_entries(root):
    entries = sorted(root.glob("pnr/*/*.pkl"))
    assert len(entries) == len(STYLES)
    return entries


def _assert_dropped_and_rerun(design, root, cold):
    warm, cache, disk, _ = _compare(design, _options("s1488"), root)
    assert disk.dropped_corrupt == len(STYLES)
    assert cache.runs("pnr") == len(STYLES)
    assert cache.misses() == len(STYLES)
    assert _outputs(warm) == _outputs(cold)
    for path in _pnr_entries(root):  # re-created, and loadable again
        assert isinstance(pickle.loads(path.read_bytes())[0].load(), Module)


def test_truncated_netlist_part_is_a_dropped_corrupt_miss(tmp_path):
    design = build("s1488")
    cold, *_ = _compare(design, _options("s1488"), tmp_path)

    for path in _pnr_entries(tmp_path):
        raw = path.read_bytes()
        netlist = pickle.loads(raw)[0]
        assert isinstance(netlist, PickledNetlist)
        start = raw.find(netlist.data)
        assert start > 0
        path.write_bytes(raw[:start + len(netlist.data) // 2])

    _assert_dropped_and_rerun(design, tmp_path, cold)


def _overwritten(netlist: PickledNetlist) -> PickledNetlist:
    """Bytes overwritten in place under the old CRC: they still unpickle,
    to a netlist of another name, so only the CRC catches them."""
    data = netlist.data.replace(b"s1488", b"s9488")
    assert data != netlist.data
    assert pickle.loads(data).name.startswith("s9488")
    return PickledNetlist(data, netlist.crc)


def _moved_class(netlist: PickledNetlist) -> PickledNetlist:
    """Intact bytes under a valid CRC that name a module that is gone,
    as after a netlist class moved."""
    data = netlist.data.replace(b"repro.netlist.core", b"repro.netlist.gone")
    assert data != netlist.data
    return PickledNetlist(data, zlib.crc32(data))


@pytest.mark.parametrize("spoil", [_overwritten, _moved_class],
                         ids=["overwritten", "moved-class"])
def test_unloadable_netlist_inside_an_intact_entry_reruns(spoil, tmp_path):
    """The entry's outer pickle loads, so the disk tier hits; its
    netlist fails only when the runner unpickles it.  That drops the
    entry and re-runs the chain, whose producer re-creates it."""
    design = build("s1488")
    cold, *_ = _compare(design, _options("s1488"), tmp_path)

    for path in _pnr_entries(tmp_path):
        payload = pickle.loads(path.read_bytes())
        path.write_bytes(pickle.dumps((spoil(payload[0]), *payload[1:])))

    _assert_dropped_and_rerun(design, tmp_path, cold)


def test_a_synth_entry_keeps_its_netlist_inline(tmp_path):
    """``synth`` hands on its output and stashes it as ``ff_reference``:
    stored once, inline, and loaded with the entry as one object.  The
    netlists of later stages are nested pickles."""
    design = build("s1488")
    _compare(design, _options("s1488"), tmp_path)
    (path,) = tmp_path.glob("synth/*/*.pkl")
    module, _digest, _clocks, arts, _summary, _run_s = pickle.loads(
        path.read_bytes())
    assert type(module) is Module
    assert arts["ff_reference"] is module
    for path in _pnr_entries(tmp_path):
        assert isinstance(pickle.loads(path.read_bytes())[0], PickledNetlist)
