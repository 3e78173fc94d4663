"""Stage handoff oracle: a stage never mutates the Module it is handed.

The runner shares cached netlists by reference and treats "the stage
handed on the very object it received" as "the netlist is unchanged".
Both are only sound under the no-mutation contract, so this file checks
the contract itself and what it buys:

* (a) every ``Module`` the cache stored pickles to the same bytes at the
  end of a run as when it was stored, sequential and threaded;
* (b) read-only stages hand on the identical object, and every stage
  that edits the netlist in place makes exactly one copy (none on a
  cache hit);
* (c) a cold riscv ``compare_styles`` stays within its copy and digest
  budget;
* (d) the per-stage digest chain is unchanged from the netlists the flow
  produced when every stage ran on its own copy.

It also checks that a disk-cache directory written in the previous
payload format is never read back.
"""

import pickle
from dataclasses import replace

import pytest

from repro.circuits import build
from repro.circuits.registry import spec
from repro.flow import (
    ArtifactCache,
    DiskCache,
    FlowOptions,
    Pipeline,
    compare_styles,
    run_flow,
)
from repro.flow import diskcache, pipeline
from repro.flow.pipeline import PickledNetlist
from repro.netlist.core import Module

STYLES = ("ff", "ms", "3p", "pulsed")

#: stages that edit the netlist in place: each makes exactly one copy.
EDITING = {"retime", "cg", "resize", "hold_fix", "pnr"}
#: stages whose library call returns a fresh module.
FRESH = {"synth", "convert"}


def _options(name: str, **extra) -> FlowOptions:
    return FlowOptions(period=spec(name).period, sim_cycles=16, resize=True,
                       retime_ms=True, **extra)


def _stored_modules(payload) -> list[Module]:
    module, _digest, _clocks, arts, _summary, _rkeys = payload
    return [m for m in (module, *arts.values()) if isinstance(m, Module)]


class _RecordingCache(ArtifactCache):
    """Pickles every Module a payload holds at the moment it is stored."""

    def __init__(self) -> None:
        super().__init__()
        self.stored: list[tuple[tuple, Module, bytes]] = []

    def get_or_run(self, key, producer):
        def produce():
            payload = producer()
            for module in _stored_modules(payload):
                self.stored.append((key, module, pickle.dumps(module)))
            return payload

        return super().get_or_run(key, produce)


# ---------------------------------------------------------------------------
# (a) the cache stays frozen


@pytest.mark.parametrize("jobs", [1, 3])
@pytest.mark.parametrize("name", ["s1488", "s9234", "s13207", "des3"])
def test_cached_modules_are_never_mutated(name, jobs):
    design = build(name)
    design_bytes = pickle.dumps(design)
    options = _options(name)
    cache = _RecordingCache()
    compare_styles(design, options, jobs=jobs, cache=cache)
    run_flow(design, replace(options, style="pulsed"), cache=cache)

    assert cache.stored
    for key, module, at_store in cache.stored:
        assert pickle.dumps(module) == at_store, key
    assert pickle.dumps(design) == design_bytes


# ---------------------------------------------------------------------------
# (b) object identity and one copy per in-place editing stage


@pytest.fixture
def handoffs(monkeypatch):
    """Log ``(stage, module in, module out, copies made)`` per stage."""
    copies = [0]
    real_copy = Module.copy

    def counting_copy(self, *args, **kwargs):
        copies[0] += 1
        return real_copy(self, *args, **kwargs)

    log: list[tuple[str, Module, Module, int]] = []
    real_run_stage = Pipeline._run_stage

    def spy(self, stage, ctx):
        before, made = ctx.module, copies[0]
        real_run_stage(self, stage, ctx)
        log.append((stage.name, before, ctx.module, copies[0] - made))

    monkeypatch.setattr(Module, "copy", counting_copy)
    monkeypatch.setattr(Pipeline, "_run_stage", spy)
    return log


def _assert_one_copy_per_edit(log):
    for stage, before, after, copies in log:
        if stage in EDITING:
            assert after is not before, stage
            assert copies == 1, stage
        elif stage in FRESH:
            assert after is not before, stage
        else:
            assert after is before, stage
            assert copies == 0, stage


@pytest.mark.parametrize("style", STYLES)
def test_uncached_handoff(handoffs, style):
    run_flow(build("s9234"), _options("s9234", style=style, verify=True))
    assert {stage for stage, *_ in handoffs} >= {"sta", "sim", "power"}
    _assert_one_copy_per_edit(handoffs)


@pytest.mark.parametrize("style", STYLES)
def test_cached_handoff_copies_once_then_never(handoffs, style):
    design = build("s9234")
    options = _options("s9234", style=style, verify=True)
    cache = ArtifactCache()
    run_flow(design, options, cache=cache)
    _assert_one_copy_per_edit(handoffs)

    cold = [after for _, _, after, _ in handoffs]
    handoffs.clear()
    run_flow(design, options, cache=cache)
    assert cache.misses() == len(cold) == cache.hits()
    # a hit installs the cached object itself: no copy, same netlist
    assert [copies for *_, copies in handoffs] == [0] * len(cold)
    assert all(after is produced
               for (_, _, after, _), produced in zip(handoffs, cold))


# ---------------------------------------------------------------------------
# (c) the copy and digest budget of a large compare


def test_riscv_compare_copy_and_digest_budget(monkeypatch):
    design = build("riscv")
    counts = {"copy": 0, "digest": 0}
    real_copy, real_digest = Module.copy, pipeline.module_digest

    def counting_copy(self, *args, **kwargs):
        counts["copy"] += 1
        return real_copy(self, *args, **kwargs)

    def counting_digest(module):
        counts["digest"] += 1
        return real_digest(module)

    monkeypatch.setattr(Module, "copy", counting_copy)
    monkeypatch.setattr(pipeline, "module_digest", counting_digest)
    bench = spec("riscv")
    compare_styles(design, FlowOptions(period=bench.period,
                                       profile=bench.workload, sim_cycles=16),
                   cache=ArtifactCache())
    # every stage copied and hashed its output before: 50 and 27; the
    # design is digested once per compare, not once per style
    assert counts["copy"] <= 12
    assert counts["digest"] <= 12


# ---------------------------------------------------------------------------
# (d) the digest chain

#: ``(stage, input digest, output digest)`` per stage, as produced when
#: every stage worked on its own netlist copy.
PINNED_CHAINS = {
    ("s1488", "ff"): [
        ("synth", "f1c552791f8526c6", "0cc3d13820168d6e"),
        ("lint_synth", "0cc3d13820168d6e", "0cc3d13820168d6e"),
        ("clocks", "0cc3d13820168d6e", "0cc3d13820168d6e"),
        ("verify", "0cc3d13820168d6e", "0cc3d13820168d6e"),
        ("resize", "0cc3d13820168d6e", "0cc3d13820168d6e"),
        ("hold_fix", "0cc3d13820168d6e", "0cc3d13820168d6e"),
        ("pnr", "0cc3d13820168d6e", "0cc3d13820168d6e"),
        ("sta", "0cc3d13820168d6e", "0cc3d13820168d6e"),
        ("sim", "0cc3d13820168d6e", "0cc3d13820168d6e"),
        ("power", "0cc3d13820168d6e", "0cc3d13820168d6e"),
    ],
    ("s1488", "ms"): [
        ("synth", "f1c552791f8526c6", "0cc3d13820168d6e"),
        ("lint_synth", "0cc3d13820168d6e", "0cc3d13820168d6e"),
        ("convert", "0cc3d13820168d6e", "a12dce1e7296366a"),
        ("lint_convert", "a12dce1e7296366a", "a12dce1e7296366a"),
        ("retime", "a12dce1e7296366a", "a12dce1e7296366a"),
        ("lint_retime", "a12dce1e7296366a", "a12dce1e7296366a"),
        ("verify", "a12dce1e7296366a", "a12dce1e7296366a"),
        ("resize", "a12dce1e7296366a", "a12dce1e7296366a"),
        ("hold_fix", "a12dce1e7296366a", "a12dce1e7296366a"),
        ("pnr", "a12dce1e7296366a", "a12dce1e7296366a"),
        ("sta", "a12dce1e7296366a", "a12dce1e7296366a"),
        ("sim", "a12dce1e7296366a", "a12dce1e7296366a"),
        ("power", "a12dce1e7296366a", "a12dce1e7296366a"),
    ],
    ("s1488", "3p"): [
        ("synth", "f1c552791f8526c6", "0cc3d13820168d6e"),
        ("lint_synth", "0cc3d13820168d6e", "0cc3d13820168d6e"),
        ("ilp", "0cc3d13820168d6e", "0cc3d13820168d6e"),
        ("convert", "0cc3d13820168d6e", "219389285c5b3ff8"),
        ("lint_convert", "219389285c5b3ff8", "219389285c5b3ff8"),
        ("retime", "219389285c5b3ff8", "219389285c5b3ff8"),
        ("lint_retime", "219389285c5b3ff8", "219389285c5b3ff8"),
        ("verify", "219389285c5b3ff8", "219389285c5b3ff8"),
        ("cg", "219389285c5b3ff8", "b95d46b69ce9b850"),
        ("lint_cg", "b95d46b69ce9b850", "b95d46b69ce9b850"),
        ("resize", "b95d46b69ce9b850", "b95d46b69ce9b850"),
        ("hold_fix", "b95d46b69ce9b850", "b95d46b69ce9b850"),
        ("pnr", "b95d46b69ce9b850", "b95d46b69ce9b850"),
        ("sta", "b95d46b69ce9b850", "b95d46b69ce9b850"),
        ("sim", "b95d46b69ce9b850", "b95d46b69ce9b850"),
        ("power", "b95d46b69ce9b850", "b95d46b69ce9b850"),
    ],
    ("s1488", "pulsed"): [
        ("synth", "f1c552791f8526c6", "0cc3d13820168d6e"),
        ("lint_synth", "0cc3d13820168d6e", "0cc3d13820168d6e"),
        ("convert", "0cc3d13820168d6e", "8720887eeb3fbdd5"),
        ("lint_convert", "8720887eeb3fbdd5", "8720887eeb3fbdd5"),
        ("verify", "8720887eeb3fbdd5", "8720887eeb3fbdd5"),
        ("resize", "8720887eeb3fbdd5", "8720887eeb3fbdd5"),
        ("hold_fix", "8720887eeb3fbdd5", "8720887eeb3fbdd5"),
        ("pnr", "8720887eeb3fbdd5", "8720887eeb3fbdd5"),
        ("sta", "8720887eeb3fbdd5", "8720887eeb3fbdd5"),
        ("sim", "8720887eeb3fbdd5", "8720887eeb3fbdd5"),
        ("power", "8720887eeb3fbdd5", "8720887eeb3fbdd5"),
    ],
    # hold fix and CTS both insert buffers here
    ("s9234", "3p"): [
        ("synth", "48f987aecc49db62", "1209e248c187e798"),
        ("lint_synth", "1209e248c187e798", "1209e248c187e798"),
        ("ilp", "1209e248c187e798", "1209e248c187e798"),
        ("convert", "1209e248c187e798", "7fe8f8fcf6b5312a"),
        ("lint_convert", "7fe8f8fcf6b5312a", "7fe8f8fcf6b5312a"),
        ("retime", "7fe8f8fcf6b5312a", "7fe8f8fcf6b5312a"),
        ("lint_retime", "7fe8f8fcf6b5312a", "7fe8f8fcf6b5312a"),
        ("verify", "7fe8f8fcf6b5312a", "7fe8f8fcf6b5312a"),
        ("cg", "7fe8f8fcf6b5312a", "0deef5ad9aeacf91"),
        ("lint_cg", "0deef5ad9aeacf91", "0deef5ad9aeacf91"),
        ("resize", "0deef5ad9aeacf91", "0deef5ad9aeacf91"),
        ("hold_fix", "0deef5ad9aeacf91", "75d1e77accadf6e5"),
        ("pnr", "75d1e77accadf6e5", "d5c30f9205b3fe38"),
        ("sta", "d5c30f9205b3fe38", "d5c30f9205b3fe38"),
        ("sim", "d5c30f9205b3fe38", "d5c30f9205b3fe38"),
        ("power", "d5c30f9205b3fe38", "d5c30f9205b3fe38"),
    ],
}


@pytest.mark.parametrize("cached", [False, True])
@pytest.mark.parametrize("name,style", sorted(PINNED_CHAINS))
def test_digest_chain_is_pinned(name, style, cached):
    options = FlowOptions(period=1000.0, sim_cycles=16, resize=True,
                          retime_ms=True, verify=True, style=style)
    cache = ArtifactCache() if cached else None
    for _ in range(2 if cached else 1):  # cold, then all-hit
        result = run_flow(build(name), options, cache=cache)
        chain = [(r.stage, r.input_digest, r.output_digest)
                 for r in result.stages]
        assert chain == PINNED_CHAINS[name, style]
        assert pipeline.module_digest(result.module) == chain[-1][2]


# ---------------------------------------------------------------------------
# disk format


def _v1_payload(key, value):
    """v1: a ``(snapshot, runtime keys)`` pair."""
    module, _digest, clocks, arts, summary, run_s = value
    return (module, clocks, arts, summary), {key[0]: run_s}


def _v2_payload(key, value):
    """v2: today's tuple, but ending in a runtime-key dict, not run_s."""
    *head, run_s = value
    return (*head, {key[0]: run_s})


def _v3_payload(key, value):
    """v3: today's tuple; its pickled cells lack the derived pin roles."""
    return value


def _v4_payload(key, value):
    """v4: today's tuple; its sim artifact was a whole testbench and its
    convert artifacts repeated the FF reference netlist."""
    return value


def _v5_payload(key, value):
    """v5: today's tuple; its physical and retime artifacts also held
    the netlist."""
    return value


def _v6_payload(key, value):
    """v6: today's tuple; its hold artifact also carried the setup
    re-check's ``setup_ok_after`` flag."""
    return value


def _v7_payload(key, value):
    """v7: today's tuple; its netlist was pickled inline with the rest of
    the payload, not nested as its own pickle."""
    module, *rest = value
    if isinstance(module, PickledNetlist):
        module = pickle.loads(module.data)
    return (module, *rest)


@pytest.mark.parametrize("version,payload", [
    ("v1", _v1_payload), ("v2", _v2_payload), ("v3", _v3_payload),
    ("v4", _v4_payload), ("v5", _v5_payload), ("v6", _v6_payload),
    ("v7", _v7_payload)],
    ids=["v1", "v2", "v3", "v4", "v5", "v6", "v7"])
def test_previous_format_directory_is_never_read(tmp_path, monkeypatch,
                                                 version, payload):
    """Entries written by an older format (its payload layout, under its
    format-hashed paths) are all-miss, and the run that misses them
    returns the same results as a cache-less run."""
    design = build("s1488")
    options = FlowOptions(period=1000.0, sim_cycles=16)

    class OldDisk(DiskCache):
        def store(self, key, value):
            return super().store(key, payload(key, value))

    with monkeypatch.context() as patch:
        patch.setattr(diskcache, "DISK_FORMAT", f"repro-diskcache-{version}")
        compare_styles(design, options,
                       cache=ArtifactCache(disk=OldDisk(tmp_path)))
    old_entries = DiskCache(tmp_path).stats().entries
    assert old_entries > 0

    disk = DiskCache(tmp_path)
    cache = ArtifactCache(disk=disk)
    warm = compare_styles(design, options, cache=cache)
    assert cache.disk_hits() == 0
    assert disk.load_hits == 0 and disk.dropped_corrupt == 0
    assert disk.stats().entries == 2 * old_entries

    reference = compare_styles(design, options)
    assert warm.table_row() == reference.table_row()
    for style in ("ff", "ms", "3p"):
        assert [(r.stage, r.output_digest)
                for r in warm.result(style).stages] == \
            [(r.stage, r.output_digest)
             for r in reference.result(style).stages]
