"""The end-to-end design flow (Sec. IV-B) for all three design styles.

``run_flow`` takes a generic FF-based module and produces a placed,
clock-gated, power-measured implementation in one of four styles:

* ``"ff"``     -- synthesize and implement as-is (baseline 1);
* ``"ms"``     -- convert to master-slave latches (baseline 2);
* ``"3p"``     -- the paper's flow: ILP phase assignment, 3-phase
  conversion, modified retiming, p2 clock gating (common-enable M1 +
  DDCG + M2), then P&R;
* ``"pulsed"`` -- the Sec. I alternative, for the hold-cost ablation.

The heavy lifting lives in :mod:`repro.flow.pipeline`: each style is a
chain of :class:`~repro.flow.pipeline.Stage` objects run by a
:class:`~repro.flow.pipeline.Pipeline`, which records a
:class:`~repro.flow.pipeline.StageRecord` (wall time, artifact digests,
cache hit/miss, ``stage.run`` seconds) per step — the source of the
Sec. V runtime comparison (ILP share, CTS ratio, ...).  ``run_flow``
assembles the pipeline's artifacts into a :class:`DesignResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cg import CgOptions, CgReport
from repro.convert import ClockSpec, PhaseAssignment
from repro.flow.pipeline import ArtifactCache, StageRecord, build_pipeline
from repro.library.cell import Library
from repro.library.fdsoi28 import FDSOI28
from repro.netlist.core import Module
from repro.netlist.stats import NetlistStats, collect_stats
from repro.pnr import PhysicalDesign
from repro.power import PowerReport
from repro.retime import RetimeResult
from repro.timing import TimingReport
from repro.timing.hold_fix import HoldFixReport

STYLES = ("ff", "ms", "3p", "pulsed")


@dataclass
class FlowOptions:
    """Configuration of one flow run."""

    period: float = 1000.0  # ps (1 GHz, the paper's ISCAS rate)
    style: str = "3p"
    clock_gating_style: str = "gated"
    #: phase-assignment solver: ``"mis"`` (exact, one whole-graph MIS) or
    #: ``"greedy"`` (the ablation baseline).
    assign_method: str = "mis"
    retime: bool = True
    #: also retime the master-slave baseline's slave latches (the paper
    #: notes M-S designs have "more slave latches that can be moved
    #: around"); off by default to keep the M-S baseline at exactly 2
    #: latches per FF.
    retime_ms: bool = False
    cg: CgOptions = field(default_factory=CgOptions)
    sim_cycles: int = 200
    warmup_cycles: int = 8
    profile: str = "random"
    profile_cycles: int = 64  # activity-profiling run for DDCG
    seed: int = 1
    sim_delay_model: str = "cell"
    #: stimulus vectors simulated per kernel pass in the activity-collecting
    #: stages (sim + cg profiling); 1 = single-vector engines (exact legacy
    #: behavior), >1 = bit-parallel batch engine averaging per-lane toggles.
    sim_lanes: int = 1
    #: clock skew charged to zero-gap launch/capture edge pairs during hold
    #: fixing; 0 disables the hold-fix pass.
    clock_uncertainty: float = 80.0
    #: run the post-retiming gate downsizing pass (Sec. IV-C's "further
    #: optimization"); applied to every style for fairness.
    resize: bool = False
    #: formally check the converted netlist against the FF reference
    #: (per-cone SAT miters, :mod:`repro.verify`) right after
    #: conversion/retiming; ``verify_fail_on`` aborts the flow when the
    #: gate collects findings at/above that severity (None: report
    #: only), and ``verify_conflict_budget`` bounds the CDCL effort per
    #: cone (exhaustion reports the cone as undecided).
    verify: bool = False
    verify_fail_on: str | None = "error"
    verify_conflict_budget: int = 200_000
    #: run the static-analysis gates (:mod:`repro.lint`) after each
    #: rewriting stage; ``lint_fail_on`` aborts the flow when a gate
    #: collects findings at/above that severity (None: report only).
    lint: bool = True
    lint_fail_on: str | None = "error"
    library: Library = field(default_factory=lambda: FDSOI28)

    def __post_init__(self) -> None:
        # power is measured over sim_cycles - warmup_cycles: reject an
        # empty window here rather than after the whole flow has run
        if self.sim_cycles <= self.warmup_cycles:
            raise ValueError(
                f"sim_cycles ({self.sim_cycles}) must exceed "
                f"warmup_cycles ({self.warmup_cycles})")


@dataclass
class DesignResult:
    """Everything the reports need about one implemented design."""

    name: str
    style: str
    #: the final netlist, shared with the flow's cache and possibly with
    #: other results: copy it before editing it.  The cache holds it
    #: weakly, so this result keeps it alive; once every holder drops
    #: it, a rerun of the flow against the same cache rebuilds it.
    module: Module
    clocks: ClockSpec
    stats: NetlistStats
    area: float
    power: PowerReport
    timing: TimingReport
    assignment: PhaseAssignment | None = None
    retime: RetimeResult | None = None
    cg: CgReport | None = None
    #: formal gate result (``repro.verify.VerifyResult``).
    verify: "object | None" = None
    hold: "HoldFixReport | None" = None
    physical: PhysicalDesign | None = None
    #: per-stage pipeline telemetry (empty for hand-built results).
    stages: list[StageRecord] = field(default_factory=list)
    #: lint gate results, in stage order (``repro.lint.LintResult``).
    lint: list = field(default_factory=list)

    @property
    def registers(self) -> int:
        return self.stats.registers

    def stage_record(self, name: str) -> StageRecord | None:
        """The telemetry record of stage ``name``, if it ran."""
        for record in self.stages:
            if record.stage == name:
                return record
        return None


def run_flow(
    design: Module,
    options: FlowOptions | None = None,
    cache: ArtifactCache | None = None,
    parent_span: int | None = None,
    design_digest: str | None = None,
) -> DesignResult:
    """Implement ``design`` per ``options`` and measure area/power/timing.

    Builds the style's stage chain, runs it (against ``cache`` if given,
    so repeated runs share e.g. the synthesis artifact), and packs the
    context into a :class:`DesignResult`.  ``design_digest`` is
    ``module_digest(design)`` if the caller has it; else it is computed.
    """
    if options is None:
        options = FlowOptions()
    if options.style not in STYLES:
        raise ValueError(f"unknown style {options.style!r}")

    ctx = build_pipeline(options.style).run(
        design, options, cache=cache, parent_span=parent_span,
        design_digest=design_digest)

    module = ctx.module
    physical = ctx.artifacts["physical"]
    return DesignResult(
        name=design.name,
        style=options.style,
        module=module,
        clocks=ctx.clocks,
        stats=collect_stats(module),
        area=module.total_area(),
        power=ctx.artifacts["power"],
        timing=ctx.artifacts["timing"],
        assignment=ctx.artifacts.get("assignment"),
        retime=ctx.artifacts.get("retime"),
        cg=ctx.artifacts.get("cg"),
        verify=ctx.artifacts.get("verify"),
        hold=ctx.artifacts.get("hold"),
        physical=physical,
        stages=ctx.records,
        lint=[value for key, value in ctx.artifacts.items()
              if key.startswith("lint_") and value is not None],
    )
