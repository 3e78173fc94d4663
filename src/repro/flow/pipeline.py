"""Staged pipeline runner for the Sec. IV-B design flow.

The flow — synthesize → phase-ILP → convert → retime → p2 clock gating
→ hold fix → P&R → STA → simulate → power — is expressed as a per-style
chain of :class:`Stage` objects executed by a :class:`Pipeline`.  The
runner owns the cross-cutting concerns the old monolithic ``run_flow``
hand-rolled per step:

* **telemetry** -- every executed stage emits a :class:`StageRecord`
  (wall time, input/output netlist digests, cache hit/miss, per-stage
  summary, and the seconds ``stage.run`` itself took), the raw
  material of the Sec. V runtime comparison;
* **caching** -- stages that declare an options key are memoized in a
  content-addressed :class:`ArtifactCache` keyed on (stage, library,
  input-netlist digest, options), so ``compare_styles`` synthesizes a
  design once and the ff/ms/3p runs share the result.  A stage never
  mutates the :class:`Module` it is handed (editing stages copy it
  first), so cached netlists are shared by reference and a stage that
  hands on the very object it received is known not to have changed
  it: its output digest is its input digest.  The memory tier holds
  those netlists weakly, so it pins only the synthesized one.  A disk
  hit hands its netlist on still pickled; the runner unpickles it only
  when a stage runs on it or the flow returns it;
* **garbage collection** -- the cyclic collector is paused while any
  flow runs (:class:`_GcPause`): the flow makes no reference cycles,
  and full collections would rescan every cached netlist.

Stage chains are linear per style (a degenerate DAG); ``inputs`` /
``produces`` declare the artifact flow so the runner can check wiring
and a future scheduler could overlap independent stages.
"""

from __future__ import annotations

import gc
import hashlib
import pickle
import threading
import time
import weakref
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Hashable, Mapping

from repro import obs
from repro.convert import ClockSpec
from repro.flow.diskcache import DiskCache
from repro.netlist.core import Module
from repro.obs.monitor import gc_collection_count

if TYPE_CHECKING:  # pragma: no cover - import cycle with design_flow
    from repro.flow.design_flow import FlowOptions
    from repro.library.cell import Library


# ---------------------------------------------------------------------------
# digests


def module_digest(module: Module) -> str:
    """Content digest of a netlist's structure (ports, cells, wiring).

    Stable across :meth:`Module.copy` and independent of dict insertion
    order; used both as the artifact-cache key and as the provenance
    recorded in :class:`StageRecord`.
    """
    h = hashlib.sha256()
    h.update(module.name.encode())
    for port in sorted(module.ports):
        clk = "c" if port in module.clock_ports else "d"
        h.update(f"|P:{port}:{module.ports[port].name}:{clk}".encode())
    for name in sorted(module.instances):
        inst = module.instances[name]
        conns = ",".join(f"{p}={n}" for p, n in sorted(inst.conns.items()))
        attrs = ",".join(f"{k}={v!r}" for k, v in sorted(inst.attrs.items()))
        h.update(f"|I:{name}:{inst.cell.name}:{conns}:{attrs}".encode())
    return h.hexdigest()[:16]


def clocks_key(clocks: ClockSpec | None) -> Hashable:
    """Stable signature of a clock spec for cache keys.

    Stages downstream of the conversion depend on the phase schedule as
    well as the netlist, so the schedule is part of their cache key.
    """
    if clocks is None:
        return None
    return (
        clocks.period,
        tuple((p.name, p.rise, p.fall, p.skip_first) for p in clocks.phases),
    )


# ---------------------------------------------------------------------------
# telemetry


@dataclass(frozen=True)
class StageRecord:
    """Telemetry for one executed pipeline stage."""

    stage: str
    #: total wall-clock seconds the stage took (cache lookups included;
    #: time spent waiting on the cache's single-flight lock is reported
    #: separately as ``summary["lock_wait_s"]`` so a cached stage whose
    #: producer ran in another thread doesn't misreport as slow).
    wall_time: float
    #: digest of the working netlist before / after the stage ran.
    input_digest: str
    output_digest: str
    #: True when the stage's artifact came out of the cache.
    cache_hit: bool = False
    #: seconds the producing ``stage.run`` took.  A cache hit replays
    #: the producer's figure, so a warm run still reports the stage's
    #: productive cost (what the Sec. V runtime ratios are built from).
    run_s: float = 0.0
    #: stage-specific facts (solver used, latches added, ...).
    summary: Mapping[str, object] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# artifact cache


class PickledNetlist:
    """A netlist the disk tier handed on still pickled.

    :class:`ArtifactCache` stores a payload's handed-on netlist as its
    own pickle, with a CRC-32 of it, nested in the disk entry, so a disk
    hit passes it down the chain without unpickling it.  Only the
    runner and the memory tier hold one: the runner unpickles it
    (:meth:`load`) just before a stage runs on it or when the flow
    returns it, so no stage and no caller ever sees one.  ``key`` names
    the entry it was read from (set on the hit, not stored), which a
    failed load drops.
    """

    __slots__ = ("data", "crc", "key", "__weakref__")

    def __init__(self, data: bytes, crc: int) -> None:
        self.data = data
        self.crc = crc
        self.key: tuple | None = None

    @classmethod
    def of(cls, module: Module) -> "PickledNetlist":
        data = pickle.dumps(module, protocol=pickle.HIGHEST_PROTOCOL)
        return cls(data, zlib.crc32(data))

    def __reduce__(self):
        return PickledNetlist, (self.data, self.crc)

    def load(self) -> Module:
        """Unpickle the netlist (a fresh object on every call).  Bytes
        that fail their CRC or no longer unpickle (a netlist class that
        moved) raise :class:`_UnloadableNetlist`."""
        with obs.span("cache.netlist_load", bytes=len(self.data)):
            try:
                if zlib.crc32(self.data) != self.crc:
                    raise ValueError("netlist bytes fail their CRC-32")
                module = pickle.loads(self.data)
            except Exception as exc:
                raise _UnloadableNetlist(self) from exc
        obs.add("cache.netlist_loads")
        obs.add("cache.netlist_load_bytes", len(self.data))
        return module


class _UnloadableNetlist(Exception):
    """A disk hit's deferred netlist did not load; the runner drops its
    entry and runs the chain again (:meth:`Pipeline.run`)."""

    def __init__(self, netlist: PickledNetlist) -> None:
        super().__init__(f"cached netlist of {netlist.key!r} does not load")
        self.netlist = netlist


class ArtifactCache:
    """Thread-safe, content-addressed memo of stage artifacts.

    Keys are ``(stage name, library name, design digest, clocks key,
    input digest, options key)``; values are the runner's payloads
    ``(module or None, output digest, clocks, artifacts, summary,
    run_s)``.  The module is shared by reference, not copied, and is
    None for stages that hand on their input netlist unchanged; every
    consumer shares it read-only.  Lookups are single-flight: concurrent
    misses on one key run the producer exactly once, which is what lets
    a parallel ``compare_styles`` still synthesize only once.

    The memory tier holds that handed-on module through a weak
    reference; everything else in the payload is held strongly.  So the
    cache keeps a netlist alive only through an artifact: the
    synthesized netlist, which ``synth`` also stores as its
    ``ff_reference``, the shared root of every style chain.  Every other
    netlist lives while a flow or a caller's ``DesignResult`` holds it.
    A lookup that finds its netlist freed counts in :meth:`released`
    and is a miss: it goes on to the disk tier, or runs the producer
    again.  Producers are deterministic, so a re-run gives the same
    digests and results.

    With a ``disk`` tier (:class:`~repro.flow.diskcache.DiskCache`) the
    memory tier is layered over a persistent content-addressed store:
    memory miss -> disk probe (under a cross-process file lock, so
    single flight holds machine-wide) -> producer.  Everything produced
    is written through, so a warm second process is all-hit.

    This class alone decides which netlists a disk hit defers: a
    payload's handed-on netlist goes to disk as a
    :class:`PickledNetlist` and comes back as one, held weakly like a
    ``Module``.  One that an artifact also names (``synth``'s output is
    its ``ff_reference``) stays inline and loads with its entry, as does
    any netlist nested inside an artifact.
    """

    def __init__(self, disk: DiskCache | None = None) -> None:
        self._data: dict[Hashable, object] = {}
        self._key_locks: dict[Hashable, threading.Lock] = {}
        self._lock = threading.Lock()
        self._hits: dict[str, int] = {}
        self._misses: dict[str, int] = {}
        self._disk_hits: dict[str, int] = {}
        self._released: dict[str, int] = {}
        self.disk = disk

    @staticmethod
    def _hold(value: object) -> object:
        """The memory-tier form of ``value``: a payload's module, pickled
        or not, is held weakly, anything else as it is."""
        if (isinstance(value, tuple) and value
                and isinstance(value[0], (Module, PickledNetlist))):
            return (weakref.ref(value[0]), *value[1:])
        return value

    @staticmethod
    def _restore(held: object) -> object | None:
        """The value :meth:`_hold` stored, or None if its module has
        been freed."""
        if (isinstance(held, tuple) and held
                and isinstance(held[0], weakref.ref)):
            module = held[0]()
            return None if module is None else (module, *held[1:])
        return held

    def get_or_run(
        self, key: tuple, producer: Callable[[], object]
    ) -> tuple[object, bool, float]:
        """Return ``(artifact, was_hit, lock_wait_s)``, producing on first
        miss.  ``lock_wait_s`` is the time this caller spent blocked on
        the key's single-flight lock (i.e. waiting for another thread's
        or process's producer), which callers report separately from
        productive time.
        """
        stage = key[0]
        with self._lock:
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        wait_start = time.monotonic()
        with key_lock:
            lock_wait = time.monotonic() - wait_start
            if key in self._data:
                value = self._restore(self._data[key])
                released = value is None
                obs.add("cache.released", int(released))
                if not released:
                    obs.record("cache.lock_wait_s", lock_wait)
                    with self._lock:
                        self._hits[stage] = self._hits.get(stage, 0) + 1
                    obs.add("cache.hits")
                    return value, True, lock_wait
                with self._lock:
                    self._released[stage] = self._released.get(stage, 0) + 1
            if self.disk is not None:
                value, hit, lock_wait = self._disk_get_or_run(
                    key, producer, lock_wait)
            else:
                value = producer()
                hit = False
            obs.record("cache.lock_wait_s", lock_wait)
            with self._lock:
                self._data[key] = self._hold(value)
                if hit:
                    self._hits[stage] = self._hits.get(stage, 0) + 1
                    self._disk_hits[stage] = self._disk_hits.get(stage, 0) + 1
                else:
                    self._misses[stage] = self._misses.get(stage, 0) + 1
            obs.add("cache.hits" if hit else "cache.misses")
            return value, hit, lock_wait

    def _disk_get_or_run(
        self, key: tuple, producer: Callable[[], object], lock_wait: float
    ) -> tuple[object, bool, float]:
        """Probe the disk tier under its cross-process lock.

        The file lock is held across load-miss -> produce -> store, so a
        concurrent process blocked on the same key wakes up to a hit.
        """
        with self.disk.lock(key) as flock:
            lock_wait += flock.wait_s
            obs.record("cache.disk_lock_wait_s", flock.wait_s)
            value, size = self.disk.load(key)
            if value is not None:
                obs.add("cache.disk_hits")
                obs.add("cache.disk_load_bytes", size)
                netlist = (value[0] if isinstance(value, tuple) and value
                           else None)
                if isinstance(netlist, PickledNetlist):
                    netlist.key = key
                elif isinstance(netlist, Module):
                    # inline (an artifact names it): unpickled just now
                    obs.add("cache.netlist_loads")
                return value, True, lock_wait
            value = producer()
            size = self.disk.store(key, self._deferred(value))
            obs.add("cache.disk_stores")
            obs.add("cache.disk_store_bytes", size)
            return value, False, lock_wait

    @staticmethod
    def _deferred(value: object) -> object:
        """The disk form of ``value``: a payload's handed-on netlist as
        a :class:`PickledNetlist`, unless an artifact also names it."""
        if not (isinstance(value, tuple) and value
                and isinstance(value[0], Module)):
            return value
        module = value[0]
        if any(art is module for part in value[1:]
               if isinstance(part, dict) for art in part.values()):
            return value
        return (PickledNetlist.of(module), *value[1:])

    def drop(self, key: tuple) -> None:
        """Forget ``key`` in both tiers: its next lookup runs the
        producer."""
        with self._lock:
            self._data.pop(key, None)
        if self.disk is not None:
            self.disk.drop(key)

    # -- introspection ------------------------------------------------------

    def hits(self, stage: str | None = None) -> int:
        src = self._hits
        return src.get(stage, 0) if stage else sum(src.values())

    def misses(self, stage: str | None = None) -> int:
        src = self._misses
        return src.get(stage, 0) if stage else sum(src.values())

    def disk_hits(self, stage: str | None = None) -> int:
        """Hits served by the persistent tier (subset of ``hits``)."""
        src = self._disk_hits
        return src.get(stage, 0) if stage else sum(src.values())

    def released(self, stage: str | None = None) -> int:
        """Lookups that found their netlist freed (each then a disk hit
        or a re-run, counted there too)."""
        src = self._released
        return src.get(stage, 0) if stage else sum(src.values())

    def runs(self, stage: str) -> int:
        """How many times ``stage``'s producer actually executed *in this
        process* (a disk hit produced elsewhere is not a run)."""
        return self._misses.get(stage, 0)

    def __len__(self) -> int:
        return len(self._data)

    @property
    def stats(self) -> dict[str, dict[str, int]]:
        return {
            "hits": dict(self._hits),
            "misses": dict(self._misses),
            "disk_hits": dict(self._disk_hits),
            "released": dict(self._released),
        }


# ---------------------------------------------------------------------------
# stage protocol


@dataclass
class StageContext:
    """Mutable state threaded through one pipeline run."""

    design: Module  # the source design; read-only from here on
    #: the working netlist; stages replace it, never mutate it.  Between
    #: stages it may be a disk hit's still-pickled netlist, which the
    #: runner unpickles before a stage runs on it.
    module: Module | PickledNetlist
    options: "FlowOptions"
    library: "Library"
    clocks: ClockSpec | None = None
    cache: ArtifactCache | None = None
    #: digest of the source design, computed once per run; part of every
    #: cache key because stages like sim/verify read ``design`` (vector
    #: generation), not just the working netlist.
    design_digest: str = ""
    #: named artifacts produced by stages (assignment, retime, power...).
    artifacts: dict[str, object] = field(default_factory=dict)
    records: list[StageRecord] = field(default_factory=list)
    #: digest of ``module`` as of the last completed stage (the previous
    #: record's ``output_digest``); lets the runner hand each stage its
    #: input digest without re-hashing the netlist, which keeps read-only
    #: stages (the lint gates) digest-free.
    module_digest: str | None = None


class Stage:
    """One pass of the flow.

    Subclasses set ``name``, declare the artifacts they consume/produce,
    and implement :meth:`run`.  ``run`` never mutates the :class:`Module` it is
    handed: a stage that edits the netlist starts with ``ctx.module =
    ctx.module.copy()`` (or builds a fresh module), because the handed
    module may be shared with the cache and with other style runs.  A
    stage is cacheable by returning a hashable options signature from
    :meth:`options_key` (every concrete stage of the flow does, so a
    fully cached run is all-hit end to end; return None to opt out); the
    runner caches the working netlist, the clocks and the declared
    ``produces`` artifacts.
    """

    name: str = "stage"
    #: artifact names consumed / produced (documentation + wiring check).
    inputs: tuple[str, ...] = ()
    produces: tuple[str, ...] = ()

    def enabled(self, options: "FlowOptions") -> bool:
        return True

    def options_key(self, options: "FlowOptions") -> Hashable | None:
        """Hashable options signature, or None if not cacheable."""
        return None

    def run(self, ctx: StageContext) -> dict[str, object]:
        """Execute the pass, updating ``ctx``; returns the summary."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# runner


class _GcPause:
    """Pause Python's cyclic garbage collector while any flow runs.

    A flow allocates hundreds of thousands of long-lived container
    objects (the ``Net`` / ``Instance`` / ``Pin`` graphs of every
    netlist the :class:`ArtifactCache` holds), and each full collection
    rescans all of them: a fifth to a quarter of a flow's wall time,
    for nothing, because the flow makes no reference cycles.  Netlists
    are acyclic object graphs (a net names its driver and loads by
    instance and pin name, not by reference back to the net), so all
    of a flow's garbage is freed by reference counting alone.
    ``tests/flow/test_gc_pause.py`` is the oracle: with the collector
    off, a whole ``compare_styles`` (plain, traced, cold and warm disk
    cache, threaded) leaves ``gc.collect() == 0``.

    Flows may overlap in threads, so a depth count under a lock decides:
    the first flow to enter records ``gc.isenabled()`` and disables the
    collector; the last to leave re-enables it only if it was enabled
    before (a caller who turned it off keeps it off).  The trade-off:
    cyclic garbage that other threads make while any flow runs (the
    serve daemon's HTTP threads, say) is collected only after the last
    flow ends.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._was_enabled = False

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0:
                self._was_enabled = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, *exc_info: object) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._was_enabled:
                gc.enable()


_GC_PAUSE = _GcPause()


class Pipeline:
    """Execute a stage chain, recording a StageRecord per step."""

    def __init__(self, stages: list[Stage]):
        self.stages = list(stages)
        available: set[str] = set()
        for stage in self.stages:
            missing = set(stage.inputs) - available
            if missing:
                raise ValueError(
                    f"stage {stage.name!r} needs {sorted(missing)} which no "
                    f"earlier stage produces"
                )
            available.update(stage.produces)

    def run(
        self,
        design: Module,
        options: "FlowOptions",
        cache: ArtifactCache | None = None,
        parent_span: int | None = None,
        design_digest: str | None = None,
    ) -> StageContext:
        """Run the chain; ``parent_span`` explicitly links this run's
        ``flow.run`` span to a span on another thread (how a parallel
        ``compare_styles`` keeps worker traces nested under its own).
        ``design_digest`` is ``module_digest(design)``, computed here
        unless the caller already has it (one per compare, not per
        style).  The returned context's netlist is always unpickled."""
        if design_digest is None:
            design_digest = module_digest(design)
        with _GC_PAUSE, obs.span("flow.run", design=design.name,
                                 style=options.style,
                                 _parent=parent_span) as sp:
            gc0 = gc_collection_count()
            try:
                ctx = self._run_chain(design, options, cache, design_digest)
            finally:
                # 0 while the pause holds; a nonzero count means someone
                # ran gc.collect() or re-enabled the collector mid-flow.
                sp.set(gc_collections=gc_collection_count() - gc0)
        return ctx

    def _run_chain(self, design: Module, options: "FlowOptions",
                   cache: ArtifactCache | None,
                   design_digest: str) -> StageContext:
        """Run every enabled stage on a fresh context.

        A disk hit's netlist that does not load (corrupt bytes, a class
        that moved) drops its entry, and the chain runs again, so the
        dropped entry's producer re-creates it.  Each retry drops one
        entry, so a chain needs at most one retry per stage.
        """
        retries = 0
        while True:
            ctx = StageContext(
                design=design,
                module=design,
                options=options,
                library=options.library,
                cache=cache,
                design_digest=design_digest,
                module_digest=design_digest,
            )
            try:
                for stage in self.stages:
                    if stage.enabled(options):
                        self._run_stage(stage, ctx)
                # under the pause: unpickling with the collector on would
                # trigger collections that rescan every cached netlist
                if isinstance(ctx.module, PickledNetlist):
                    ctx.module = ctx.module.load()
                return ctx
            except _UnloadableNetlist as exc:
                if retries == len(self.stages):
                    raise
                retries += 1
                cache.drop(exc.netlist.key)

    def _run_stage(self, stage: Stage, ctx: StageContext) -> None:
        t0 = time.monotonic()
        module_in = ctx.module
        input_digest = (ctx.module_digest if ctx.module_digest is not None
                        else module_digest(module_in))

        def handed_on() -> tuple[Module | None, str]:
            """The stage's new netlist (None if it handed on its input,
            which it never mutates) and the output digest."""
            if ctx.module is module_in:
                return None, input_digest
            return ctx.module, module_digest(ctx.module)

        def timed_run() -> tuple[dict[str, object], float]:
            nonlocal module_in
            if isinstance(module_in, PickledNetlist):
                # a disk hit handed it on pickled: no stage sees that
                ctx.module = module_in = module_in.load()
            p0 = time.monotonic()
            summary = stage.run(ctx)
            return summary, time.monotonic() - p0

        output_digest: str | None = None
        hit = False
        lock_wait: float | None = None
        okey = stage.options_key(ctx.options)
        with obs.span(f"stage.{stage.name}", stage=stage.name,
                      style=ctx.options.style, design=ctx.design.name) as sp:
            # Resource accounting rides the span: None unless a
            # ResourceMonitor is attached to this thread's tracer, in
            # which case close() yields peak_rss_bytes/cpu_util/gc
            # entries that land in the summary -- and through the
            # scalar sp.set() below, in the span attrs and exporters.
            window = obs.resource_window()
            if ctx.cache is not None and okey is not None:
                key = (stage.name, ctx.library.name, ctx.design_digest,
                       clocks_key(ctx.clocks), input_digest, okey)

                def produce() -> object:
                    # run_s rides in the payload: a cache hit must still
                    # report the stage's *productive* cost, or the Sec. V
                    # runtime ratios collapse to noise on a warm run.
                    summary, run_s = timed_run()
                    arts = {k: ctx.artifacts.get(k) for k in stage.produces}
                    return (*handed_on(), ctx.clocks, arts, dict(summary),
                            run_s)

                payload, hit, lock_wait = ctx.cache.get_or_run(key, produce)
                module, output_digest, clocks, arts, summary, run_s = payload
                # Install by reference: a hit costs no copy and no hash.
                if module is not None:
                    ctx.module = module
                if clocks is not None:
                    ctx.clocks = clocks
                ctx.artifacts.update(arts)
                summary = dict(summary)
            else:
                summary, run_s = timed_run()
            wall = time.monotonic() - t0
            if window is not None:
                summary = {**summary, **window.close()}
            if lock_wait is not None:
                # Single-flight lock wait is not productive stage time;
                # report it on its own so a cached stage that blocked on
                # another thread's producer doesn't look slow (a cache
                # hit's wall_time is otherwise dominated by the wait).
                summary = {**summary, "lock_wait_s": round(lock_wait, 6)}
            sp.set(
                wall_s=round(wall, 6),
                cache_hit=hit,
                **{k: v for k, v in summary.items()
                   if isinstance(v, (int, float, str, bool))},
            )
            if output_digest is None:
                output_digest = handed_on()[1]
            ctx.module_digest = output_digest
            ctx.records.append(StageRecord(
                stage=stage.name,
                wall_time=wall,
                input_digest=input_digest,
                output_digest=output_digest,
                cache_hit=hit,
                run_s=run_s,
                summary=summary,
            ))


# ---------------------------------------------------------------------------
# the concrete stages of the paper's flow


class SynthStage(Stage):
    """Clock-gating inference + technology mapping (shared by all styles).

    Cacheable: the result depends only on the source netlist, the
    library, and the gating style — which is exactly the cache key — so
    the three style runs of ``compare_styles`` synthesize once.
    """

    name = "synth"
    produces = ("ff_reference",)

    def options_key(self, options: "FlowOptions") -> Hashable:
        return (options.clock_gating_style,)

    def run(self, ctx: StageContext) -> dict[str, object]:
        from repro.synth import synthesize

        synth = synthesize(
            ctx.module, ctx.library,
            clock_gating_style=ctx.options.clock_gating_style,
        )
        ctx.module = synth.module
        # the verify gate miters the converted netlist against this one;
        # it is the very object handed on, so the payload stores it once
        ctx.artifacts["ff_reference"] = synth.module
        return {
            "cells": len(synth.module.instances),
            "icgs_inferred": synth.gating.icgs_added,
        }


class SingleClockStage(Stage):
    """The FF baseline keeps the source's single clock."""

    name = "clocks"
    produces = ("clocks",)

    def options_key(self, options: "FlowOptions") -> Hashable:
        return (options.period,)

    def run(self, ctx: StageContext) -> dict[str, object]:
        ctx.clocks = ClockSpec.single(ctx.options.period)
        ctx.artifacts["clocks"] = ctx.clocks
        return {"phases": ctx.clocks.phase_names}


class PhaseIlpStage(Stage):
    """Sec. IV-A phase assignment (exact whole-graph MIS, or greedy)."""

    name = "ilp"
    produces = ("assignment",)

    def options_key(self, options: "FlowOptions") -> Hashable:
        return (options.assign_method,)

    def run(self, ctx: StageContext) -> dict[str, object]:
        from repro.convert.phase_ilp import assign_phases

        assignment = assign_phases(ctx.module,
                                   method=ctx.options.assign_method)
        ctx.artifacts["assignment"] = assignment
        return {
            "solver": assignment.solver,
            "ffs": assignment.num_ffs,
            "latches": assignment.total_latches,
        }


class ConvertThreePhaseStage(Stage):
    """Rewrite FFs into p1/p3 latches with p2 insertion (Sec. IV-B)."""

    name = "convert"
    inputs = ("assignment",)
    produces = ("clocks",)

    def options_key(self, options: "FlowOptions") -> Hashable:
        return ("3p", options.period)

    def run(self, ctx: StageContext) -> dict[str, object]:
        from repro.convert import convert_to_three_phase

        converted = convert_to_three_phase(
            ctx.module, ctx.library,
            assignment=ctx.artifacts["assignment"],
            period=ctx.options.period,
        )
        ctx.module, ctx.clocks = converted.module, converted.clocks
        ctx.artifacts["clocks"] = ctx.clocks
        return {"phases": ctx.clocks.phase_names}


class ConvertMasterSlaveStage(Stage):
    """Baseline 2: split each FF into master + slave latches."""

    name = "convert"
    produces = ("clocks",)

    def options_key(self, options: "FlowOptions") -> Hashable:
        return ("ms", options.period)

    def run(self, ctx: StageContext) -> dict[str, object]:
        from repro.convert import convert_to_master_slave

        ms = convert_to_master_slave(
            ctx.module, ctx.library, ctx.options.period)
        ctx.module, ctx.clocks = ms.module, ms.clocks
        ctx.artifacts["clocks"] = ctx.clocks
        return {"phases": ctx.clocks.phase_names}


class ConvertPulsedStage(Stage):
    """The Sec. I pulsed-latch alternative (hold-cost ablation)."""

    name = "convert"
    produces = ("clocks",)

    def options_key(self, options: "FlowOptions") -> Hashable:
        return ("pulsed", options.period)

    def run(self, ctx: StageContext) -> dict[str, object]:
        from repro.convert.pulsed import convert_to_pulsed_latch

        pulsed = convert_to_pulsed_latch(
            ctx.module, ctx.library, ctx.options.period)
        ctx.module, ctx.clocks = pulsed.module, pulsed.clocks
        ctx.artifacts["clocks"] = ctx.clocks
        return {"phases": ctx.clocks.phase_names}


class RetimeStage(Stage):
    """Sec. IV-C modified retiming of the movable latch rank."""

    name = "retime"
    inputs = ("clocks",)
    produces = ("retime",)

    def __init__(self, movable_phase: str | None = None):
        self.movable_phase = movable_phase

    def enabled(self, options: "FlowOptions") -> bool:
        if options.style == "ms":
            return options.retime_ms
        return options.retime

    def options_key(self, options: "FlowOptions") -> Hashable:
        return (self.movable_phase,)

    def run(self, ctx: StageContext) -> dict[str, object]:
        from repro.retime import retime_forward

        ctx.module = ctx.module.copy()
        kwargs = {}
        if self.movable_phase is not None:
            kwargs["movable_phase"] = self.movable_phase
        result = retime_forward(ctx.module, ctx.clocks, ctx.library, **kwargs)
        ctx.artifacts["retime"] = result
        return {"moves": result.moves, "latch_delta": result.latch_delta}


class ClockGatingStage(Stage):
    """Sec. IV-D p2 clock gating (common-enable M1 + DDCG + M2)."""

    name = "cg"
    inputs = ("clocks",)
    produces = ("cg", "cg_activity")

    def options_key(self, options: "FlowOptions") -> Hashable:
        return (options.profile, options.profile_cycles, options.seed,
                options.sim_lanes, options.cg)

    def run(self, ctx: StageContext) -> dict[str, object]:
        from repro.cg import apply_p2_clock_gating

        ctx.module = ctx.module.copy()
        activity, cycles, stats = _profile_activity(
            ctx.module, ctx.clocks, ctx.options)
        report = apply_p2_clock_gating(
            ctx.module, ctx.library, activity=activity, cycles=cycles,
            options=ctx.options.cg,
        )
        ctx.artifacts["cg"] = report
        # the lint gate re-checks DDCG decisions against the same profile
        ctx.artifacts["cg_activity"] = (activity, cycles)
        return {"profile_cycles": cycles, **stats}


class LintStage(Stage):
    """Static-analysis gate run right after a rewriting stage.

    Read-only over the working netlist: runs the :mod:`repro.lint` rules
    applicable at the gated stage and fails the flow fast (naming the
    offending stage) when findings reach ``options.lint_fail_on``.  For
    non-3p styles only the structural family applies; the 3p chain gets
    the full phase/cg/retime families.  Cacheable like any other stage,
    so a warm run stays all-hit; a gate that *raised* is never cached
    (the producer exception propagates before anything is stored).
    """

    def __init__(self, after: str, when=None):
        self.after = after
        self.name = f"lint_{after}"
        self.produces = (self.name,)
        self.when = when

    def enabled(self, options: "FlowOptions") -> bool:
        return options.lint and (self.when is None or self.when(options))

    def options_key(self, options: "FlowOptions") -> Hashable:
        key: tuple = (self.after, options.style, options.lint_fail_on,
                      options.cg.ddcg_threshold, options.cg.max_fanout)
        if self.after in ("cg", "final"):
            # the DDCG re-check consumes the activity profile
            key += (options.profile, options.profile_cycles, options.seed,
                    options.sim_lanes)
        return key

    def run(self, ctx: StageContext) -> dict[str, object]:
        from repro.lint import LintGateError, run_lint

        options = ctx.options
        categories = None if options.style == "3p" else ("structural",)
        extra: dict[str, object] = {
            "max_fanout": options.cg.max_fanout,
            "ddcg_threshold": options.cg.ddcg_threshold,
        }
        if self.after == "retime":
            extra["retime"] = ctx.artifacts.get("retime")
        if self.after in ("cg", "final"):
            profiled = ctx.artifacts.get("cg_activity")
            if profiled is not None:
                extra["activity"], extra["cycles"] = profiled
        result = run_lint(
            ctx.module, ctx.clocks,
            stage=self.after, categories=categories, extra=extra,
            design=ctx.design.name, style=options.style,
        )
        ctx.artifacts[self.name] = result
        fail_on = options.lint_fail_on
        if fail_on is not None and result.count_at_least(fail_on) > 0:
            raise LintGateError(self.after, result, fail_on)
        return {
            "findings": len(result.findings),
            "lint_errors": result.errors,
            "lint_warnings": result.warnings,
            "rules": result.rules_run,
        }


class ResizeStage(Stage):
    """Post-retiming gate downsizing (Sec. IV-C 'further optimization')."""

    name = "resize"
    inputs = ("clocks",)

    def enabled(self, options: "FlowOptions") -> bool:
        return options.resize

    def options_key(self, options: "FlowOptions") -> Hashable:
        return ()

    def run(self, ctx: StageContext) -> dict[str, object]:
        from repro.synth.sizing import downsize_gates

        ctx.module = ctx.module.copy()
        report = downsize_gates(ctx.module, ctx.clocks, ctx.library)
        return {"downsized": report.downsized}


class HoldFixStage(Stage):
    """Min-delay buffering against clock uncertainty."""

    name = "hold_fix"
    inputs = ("clocks",)
    produces = ("hold",)

    def enabled(self, options: "FlowOptions") -> bool:
        return options.clock_uncertainty > 0

    def options_key(self, options: "FlowOptions") -> Hashable:
        return (options.clock_uncertainty,)

    def run(self, ctx: StageContext) -> dict[str, object]:
        from repro.timing.hold_fix import fix_holds

        ctx.module = ctx.module.copy()
        report = fix_holds(
            ctx.module, ctx.clocks, ctx.library,
            clock_uncertainty=ctx.options.clock_uncertainty,
        )
        ctx.artifacts["hold"] = report
        return {"buffers": report.buffers_added}


class PnrStage(Stage):
    """Placement, per-phase CTS, and routing estimation.

    The per-step times (``place``/``cts``/``route``) live in the cached
    ``physical`` artifact's ``runtime``, which is where the Sec. V CTS
    and routing ratios read them.
    """

    name = "pnr"
    inputs = ("clocks",)
    produces = ("physical",)

    def options_key(self, options: "FlowOptions") -> Hashable:
        return ()

    def run(self, ctx: StageContext) -> dict[str, object]:
        from repro.pnr import place_and_route

        ctx.module = ctx.module.copy()
        physical = place_and_route(ctx.module, ctx.library)
        ctx.artifacts["physical"] = physical
        return {"steps": sorted(physical.runtime)}


class StaStage(Stage):
    """Borrowing-aware static timing analysis."""

    name = "sta"
    inputs = ("clocks", "physical")
    produces = ("timing",)

    def options_key(self, options: "FlowOptions") -> Hashable:
        return ()

    def run(self, ctx: StageContext) -> dict[str, object]:
        from repro.timing import analyze

        physical = ctx.artifacts["physical"]
        timing = analyze(
            ctx.module, ctx.clocks, wire_caps=physical.wire_caps)
        ctx.artifacts["timing"] = timing
        return {"ok": timing.ok}


class VerifyStage(Stage):
    """Formal equivalence gate: per-cone SAT miters vs the FF reference.

    Read-only over the working netlist, placed right after the style's
    conversion/retiming stages (before clock gating, whose DDCG enables
    are justified by activity rather than by structure): every register
    and output cone of the converted design is compared against the
    post-synthesis FF module stashed by the synthesis stage
    (``ff_reference``), per :mod:`repro.verify`.  SAT counterexamples
    are replayed through the reference simulator before they count as
    errors; the flow aborts when findings reach
    ``options.verify_fail_on``.  Cone verdicts are memoized in the
    shared disk cache tier (content-addressed on the cone's CNF), so a
    warm rerun -- or a structurally repeated cone anywhere -- discharges
    with zero solver invocations even when this stage's own cache entry
    misses.  Like the lint gates, a gate that *raised* is never cached.
    """

    name = "verify"
    inputs = ("clocks", "ff_reference")
    produces = ("verify",)

    def enabled(self, options: "FlowOptions") -> bool:
        return options.verify

    def options_key(self, options: "FlowOptions") -> Hashable:
        return (options.style, options.period, options.verify_fail_on,
                options.verify_conflict_budget)

    def run(self, ctx: StageContext) -> dict[str, object]:
        from repro.verify import EquivalenceChecker, VerifyGateError

        options = ctx.options
        checker = EquivalenceChecker(
            ctx.artifacts["ff_reference"], ctx.module, options.style, ctx.clocks,
            design=ctx.design.name,
            cone_cache=ctx.cache.disk if ctx.cache is not None else None,
            conflict_budget=options.verify_conflict_budget,
        )
        result = checker.check()
        ctx.artifacts["verify"] = result
        fail_on = options.verify_fail_on
        if fail_on is not None and result.count_at_least(fail_on) > 0:
            raise VerifyGateError(self.name, result, fail_on)
        return {
            "equivalent": result.equivalent,
            "cones": len(result.cones),
            "proven": result.proven,
            "refuted": result.refuted,
            "cone_violations": result.violations,
            "undecided": result.unknown,
            "solver_runs": result.solver_runs,
            "cone_cache_hits": result.cache_hits,
            "solver_conflicts": result.conflicts,
        }


class SimulateStage(Stage):
    """Workload simulation collecting switching activity.

    Hands on only the per-net toggle counts (``activity``), the one
    thing ``power`` reads; the simulator dies with the stage.
    """

    name = "sim"
    inputs = ("clocks",)
    produces = ("activity",)

    def options_key(self, options: "FlowOptions") -> Hashable:
        return (options.sim_cycles, options.warmup_cycles, options.profile,
                options.seed, options.sim_delay_model, options.sim_lanes)

    def run(self, ctx: StageContext) -> dict[str, object]:
        options = ctx.options
        toggles, stats = _simulate(
            ctx.design, ctx.module, ctx.clocks, options, options.sim_cycles,
            delay_model=options.sim_delay_model,
            warmup=options.warmup_cycles,
        )
        ctx.artifacts["activity"] = toggles
        return {"cycles": options.sim_cycles, **stats}


class PowerStage(Stage):
    """Activity-based power with the Clock/Seq/Comb decomposition."""

    name = "power"
    inputs = ("activity", "physical")
    produces = ("power",)

    def options_key(self, options: "FlowOptions") -> Hashable:
        return (options.sim_cycles, options.warmup_cycles, options.period)

    def run(self, ctx: StageContext) -> dict[str, object]:
        from repro.power import measure_power

        options = ctx.options
        physical = ctx.artifacts["physical"]
        measured_cycles = options.sim_cycles - options.warmup_cycles
        power = measure_power(
            ctx.module, ctx.library, ctx.artifacts["activity"],
            cycles=measured_cycles, period=options.period,
            wire_caps=physical.wire_caps,
            design_name=f"{ctx.design.name}/{options.style}",
        )
        ctx.artifacts["power"] = power
        return {"total_mw": power.total}


def _simulate(
    source: Module, module: Module, clocks: ClockSpec, options: "FlowOptions",
    cycles: int, delay_model: str, warmup: int,
) -> tuple[dict[str, int], dict[str, object]]:
    """Simulate ``module`` on ``cycles`` cycles of stimulus generated from
    ``source``'s ports, collecting toggle activity after ``warmup``.

    With ``options.sim_lanes > 1`` this is one word-packed batch pass
    whose simulator exposes lane-averaged toggles through the same
    contract.  Returns the per-net toggle counts and the kernel
    throughput stats for the stage's :class:`StageRecord` summary.
    """
    from repro.sim import (
        generate_batch_stimulus,
        generate_vectors,
        run_batch_testbench,
        run_testbench,
    )

    lanes = options.sim_lanes
    if lanes > 1:
        stimulus = generate_batch_stimulus(
            source, cycles, profile=options.profile, seed=options.seed,
            lanes=lanes,
        )
        testbench = run_batch_testbench(module, clocks, stimulus,
                                        delay_model=delay_model,
                                        activity_warmup=warmup)
    else:
        vectors = generate_vectors(
            source, cycles, profile=options.profile, seed=options.seed)
        testbench = run_testbench(module, clocks, vectors,
                                  delay_model=delay_model,
                                  activity_warmup=warmup)
    sim = testbench.simulator
    stats = {
        "sim_events": sim.events_processed,
        "sim_compile_s": round(sim.compile_seconds, 6),
        "sim_events_per_s": round(sim.events_per_second, 1),
    }
    if lanes > 1:
        stats["sim_lanes"] = lanes
    return sim.toggles, stats


def _profile_activity(
    module: Module, clocks: ClockSpec, options: "FlowOptions"
) -> tuple[dict[str, int], int, dict[str, object]]:
    """Short functional run collecting toggle activity for DDCG decisions.

    The paper: "these gate-level simulations were also used to determine
    signal activity that drove data-driven clock gating".  Also returns
    kernel throughput stats for the stage's :class:`StageRecord` summary.
    """
    warmup = min(8, options.profile_cycles // 4)
    toggles, stats = _simulate(module, module, clocks, options,
                               options.profile_cycles, delay_model="unit",
                               warmup=warmup)
    return toggles, options.profile_cycles - warmup, stats


# ---------------------------------------------------------------------------
# per-style chains


def build_stages(style: str) -> list[Stage]:
    """The stage chain implementing one design style (Sec. IV-B order).

    Every netlist-rewriting stage is followed by a :class:`LintStage`
    gate so a broken rewrite fails fast with the offending stage named,
    instead of surfacing hours later as a simulation mismatch.
    """
    if style == "ff":
        front: list[Stage] = [
            SynthStage(),
            LintStage("synth"),
            SingleClockStage(),
            VerifyStage(),  # trivial: the FF baseline is its own reference
        ]
    elif style == "ms":
        front = [
            SynthStage(),
            LintStage("synth"),
            ConvertMasterSlaveStage(),
            LintStage("convert"),
            RetimeStage(movable_phase="clk"),
            LintStage("retime", when=lambda o: o.retime_ms),
            VerifyStage(),
        ]
    elif style == "pulsed":
        front = [
            SynthStage(),
            LintStage("synth"),
            ConvertPulsedStage(),
            LintStage("convert"),
            VerifyStage(),
        ]
    elif style == "3p":
        front = [
            SynthStage(),
            LintStage("synth"),
            PhaseIlpStage(),
            ConvertThreePhaseStage(),
            LintStage("convert"),
            RetimeStage(),
            LintStage("retime", when=lambda o: o.retime),
            VerifyStage(),
            ClockGatingStage(),
            LintStage("cg"),
        ]
    else:
        raise ValueError(f"unknown style {style!r}")
    return front + [
        ResizeStage(),
        HoldFixStage(),
        PnrStage(),
        StaStage(),
        SimulateStage(),
        PowerStage(),
    ]


def build_pipeline(style: str) -> Pipeline:
    return Pipeline(build_stages(style))


#: back-end stages a lint-only run can skip: they do not rewrite the
#: netlist the rules inspect (resize/hold-fix do, so they stay).
_LINT_SKIP = frozenset({"pnr", "sta", "verify", "sim", "power"})


def build_lint_stages(style: str) -> list[Stage]:
    """The ``repro lint`` chain: the rewriting front plus a final gate.

    Reuses the style's normal stage chain (minus the physical/simulation
    back-end) so lint sees exactly the netlists the real flow produces,
    then appends a whole-netlist ``final`` gate.
    """
    stages = [s for s in build_stages(style) if s.name not in _LINT_SKIP]
    return stages + [LintStage("final")]


def build_verify_stages(style: str) -> list[Stage]:
    """The ``repro verify`` chain: the front truncated at the gate.

    The style's normal chain up to and including its :class:`VerifyStage`
    -- everything after the gate (clock gating, physical, simulation)
    neither feeds the miters nor is checked by them.
    """
    stages = build_stages(style)
    cut = next(i for i, s in enumerate(stages) if s.name == "verify")
    return stages[:cut + 1]
