"""Payload contract: the stage cache stores only what a later stage reads.

Every payload a ``compare_styles`` run writes through to the disk tier is
re-pickled through a :class:`pickle.Pickler` whose ``persistent_id``
sees every object on the way, so the checks below look at exactly what
the disk tier holds (a netlist deferred as a :class:`PickledNetlist`
counts as the one netlist it holds):

* no simulator, compiled kernel or testbench result is ever stored: the
  ``sim`` stage hands ``power`` its per-net toggle counts, nothing more;
* that toggle map equals a fresh testbench run over the final netlist
  with the same stimulus and warm-up (single-vector and batch engines);
* a ``convert`` payload holds no netlist but its own output: the FF
  reference the verify gate reads is the synthesized netlist, stored
  once inside the ``synth`` payload.

It also checks that the disk tier's traffic is countable: the bytes a
cold run stores are the bytes a warm run loads.
"""

import io
import pickle

import pytest

from repro import obs, sim
from repro.circuits import build
from repro.circuits.registry import spec
from repro.flow import ArtifactCache, DiskCache, FlowOptions, compare_styles
from repro.flow.pipeline import PickledNetlist
from repro.netlist.core import Module
from repro.obs.tracer import Tracer
from repro.sim import (
    generate_batch_stimulus,
    generate_vectors,
    run_batch_testbench,
    run_testbench,
)

#: objects that only a running simulation needs.
FLAGGED = (sim.Simulator, sim.CompiledKernel, sim.BatchKernel,
           sim.TestbenchResult, sim.BatchTestbenchResult)
STYLES = ("ff", "ms", "3p")


class _Inspector(pickle.Pickler):
    """Records every flagged object and every netlist it pickles."""

    def __init__(self) -> None:
        super().__init__(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL)
        self.flagged: list[str] = []
        self.modules: list[Module | PickledNetlist] = []

    def persistent_id(self, obj):
        if isinstance(obj, FLAGGED):
            self.flagged.append(type(obj).__name__)
        elif isinstance(obj, (Module, PickledNetlist)):
            self.modules.append(obj)
        return None


def _inspect(payload) -> _Inspector:
    inspector = _Inspector()
    inspector.dump(payload)
    return inspector


class _RecordingDisk(DiskCache):
    """A disk tier that keeps every payload it was asked to store."""

    def __init__(self, root) -> None:
        super().__init__(root)
        self.stored: dict[tuple, object] = {}

    def store(self, key, value):
        self.stored[key] = value
        return super().store(key, value)


def _run(name: str, tmp_path, **extra):
    design = build(name)
    options = FlowOptions(period=spec(name).period, profile=spec(name).workload,
                          sim_cycles=24, **extra)
    disk = _RecordingDisk(tmp_path)
    comparison = compare_styles(design, options,
                                cache=ArtifactCache(disk=disk))
    return design, options, comparison, disk.stored


def _sim_artifact(stored, result):
    """The stored ``sim`` artifact of one style's run."""
    record = result.stage_record("sim")
    (payload,) = [value for key, value in stored.items()
                  if key[0] == "sim" and key[4] == record.input_digest]
    (artifact,) = payload[3].values()
    return artifact


def _fresh_toggles(design, options, result):
    if options.sim_lanes > 1:
        stimulus = generate_batch_stimulus(
            design, options.sim_cycles, profile=options.profile,
            seed=options.seed, lanes=options.sim_lanes)
        bench = run_batch_testbench(
            result.module, result.clocks, stimulus,
            delay_model=options.sim_delay_model,
            activity_warmup=options.warmup_cycles)
    else:
        vectors = generate_vectors(design, options.sim_cycles,
                                   profile=options.profile, seed=options.seed)
        bench = run_testbench(
            result.module, result.clocks, vectors,
            delay_model=options.sim_delay_model,
            activity_warmup=options.warmup_cycles)
    return bench.simulator.toggles


@pytest.fixture(scope="module", params=["s1488", "des3"])
def stored_run(request, tmp_path_factory):
    return _run(request.param, tmp_path_factory.mktemp(request.param))


def test_no_simulator_is_stored(stored_run):
    _design, _options, _comparison, stored = stored_run
    assert stored
    for key, payload in stored.items():
        assert _inspect(payload).flagged == [], key[0]


def test_sim_artifact_is_the_toggle_map(stored_run):
    design, options, comparison, stored = stored_run
    for style in STYLES:
        result = comparison.result(style)
        artifact = _sim_artifact(stored, result)
        assert type(artifact) is dict, style
        assert all(type(net) is str and type(count) is int
                   for net, count in artifact.items()), style
        assert artifact == _fresh_toggles(design, options, result), style


def test_convert_payload_holds_only_its_own_netlist(stored_run):
    _design, _options, _comparison, stored = stored_run
    converts = [(key, value) for key, value in stored.items()
                if key[0] == "convert"]
    assert converts
    for key, payload in converts:
        modules = _inspect(payload).modules
        assert modules, key
        assert all(module is payload[0] for module in modules), key


def test_synth_payload_stashes_its_output_as_ff_reference(stored_run):
    _design, _options, _comparison, stored = stored_run
    (payload,) = [v for k, v in stored.items() if k[0] == "synth"]
    assert payload[3]["ff_reference"] is payload[0]


def test_batch_sim_artifact_is_the_lane_averaged_toggle_map(tmp_path):
    design, options, comparison, stored = _run("s1488", tmp_path, sim_lanes=4)
    for style in STYLES:
        result = comparison.result(style)
        artifact = _sim_artifact(stored, result)
        assert type(artifact) is dict, style
        assert artifact == _fresh_toggles(design, options, result), style


def test_disk_traffic_cold_stores_what_warm_loads(tmp_path):
    design = build("s1488")
    options = FlowOptions(period=spec("s1488").period, sim_cycles=24)
    counters = {}
    for run in ("cold", "warm"):
        tracer = Tracer()
        with obs.use_tracer(tracer):
            compare_styles(design, options,
                           cache=ArtifactCache(disk=DiskCache(tmp_path)))
        counters[run] = tracer.metrics.snapshot()["counters"]
    cold, warm = counters["cold"], counters["warm"]
    assert cold["cache.disk_stores"] == warm["cache.disk_hits"] > 0
    assert "cache.disk_load_bytes" not in cold
    assert "cache.disk_store_bytes" not in warm
    total = DiskCache(tmp_path).stats().bytes
    assert cold["cache.disk_store_bytes"] == warm["cache.disk_load_bytes"]
    assert warm["cache.disk_load_bytes"] == total > 0
