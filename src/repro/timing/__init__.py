"""Timing: SMO multi-phase model, delay graph, borrowing-aware STA, C1-C3."""

from repro.timing.constraints import ConstraintReport, check_conversion_constraints
from repro.timing.delay import cell_delay, output_load
from repro.timing.graph import (
    PI_SOURCE,
    PO_SINK,
    SeqEdge,
    TimingGraph,
    extract_timing_graph,
)
from repro.timing.smo import (
    RegisterTiming,
    capture_gap,
    forward_shift,
    register_timing_for,
)
from repro.timing.hold_fix import HoldFixReport, fix_holds
from repro.timing.schedule_opt import ScheduleResult, optimize_schedule
from repro.timing.sta import (
    TimingReport,
    TimingViolation,
    analyze,
    minimum_period,
)

__all__ = [
    "ConstraintReport",
    "check_conversion_constraints",
    "cell_delay",
    "output_load",
    "PI_SOURCE",
    "PO_SINK",
    "SeqEdge",
    "TimingGraph",
    "extract_timing_graph",
    "RegisterTiming",
    "capture_gap",
    "forward_shift",
    "register_timing_for",
    "TimingReport",
    "TimingViolation",
    "analyze",
    "minimum_period",
    "HoldFixReport",
    "fix_holds",
    "ScheduleResult",
    "optimize_schedule",
]
