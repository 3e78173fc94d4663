"""Clock gating of the inserted p2 latches (Sec. IV-D).

Order matters and follows the paper: common-enable gating first (with the
M1 p2-CG cell), then multi-bit DDCG on whatever p2 latches remain ungated,
then the M2 latch-removal pass over the conventional ICGs on p1/p3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.convert.clocks import ClockSpec
from repro.library.cell import Library
from repro.netlist.core import Module
from repro.cg.common_enable import (
    CommonEnableReport,
    apply_common_enable_gating,
    enable_of,
)
from repro.cg.ddcg import DdcgReport, apply_ddcg, toggle_rate
from repro.cg.m2 import M2Report, apply_m2, cg_phase, enable_source_phases


@dataclass(frozen=True)
class CgOptions:
    """Knobs for the p2 clock-gating strategy (ablation surface)."""

    common_enable: bool = True
    use_m1: bool = True
    use_m2: bool = True
    ddcg: bool = True
    ddcg_threshold: float = 0.01
    max_fanout: int = 32


@dataclass
class CgReport:
    common_enable: CommonEnableReport | None = None
    ddcg: DdcgReport | None = None
    m2: M2Report | None = None

    @property
    def gated_p2_latches(self) -> int:
        total = 0
        if self.common_enable:
            total += self.common_enable.gated_latches
        if self.ddcg:
            total += self.ddcg.gated_latches
        return total


def apply_p2_clock_gating(
    module: Module,
    library: Library,
    activity: dict[str, int] | None = None,
    cycles: int = 0,
    options: CgOptions = CgOptions(),
) -> CgReport:
    """Apply the paper's p2 clock-gating strategies in place.

    ``activity``/``cycles`` (from a profiling simulation) are required for
    DDCG; without them only common-enable gating and M2 run.
    """
    report = CgReport()
    if options.common_enable:
        report.common_enable = apply_common_enable_gating(
            module,
            library,
            use_m1=options.use_m1,
            max_fanout=options.max_fanout,
        )
    if options.ddcg and activity is not None and cycles > 0:
        report.ddcg = apply_ddcg(
            module,
            library,
            activity,
            cycles,
            threshold=options.ddcg_threshold,
            max_fanout=options.max_fanout,
        )
    if options.use_m2:
        report.m2 = apply_m2(module, library)
    return report


__all__ = [
    "CgOptions",
    "CgReport",
    "apply_p2_clock_gating",
    "CommonEnableReport",
    "apply_common_enable_gating",
    "enable_of",
    "DdcgReport",
    "apply_ddcg",
    "toggle_rate",
    "M2Report",
    "apply_m2",
    "cg_phase",
    "enable_source_phases",
]
