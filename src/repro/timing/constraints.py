"""Verification of the paper's conversion constraints C1-C3 (Sec. III-A).

* **C1** -- the original position of all FFs must be latched: every FF of
  the source design must survive as a latch in the converted design.
* **C2** -- neighbouring latches connected by combinational logic must not
  be simultaneously transparent: for every sequential edge, the two
  registers' phase windows must not overlap.
* **C3** -- same throughput: the converted design must meet setup (with
  borrowing) at the same clock period as the FF design.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.convert.clocks import ClockSpec
from repro.netlist.core import Module
from repro.netlist.traversal import register_phases
from repro.timing.graph import extract_timing_graph
from repro.timing.sta import TimingReport, analyze


@dataclass
class ConstraintReport:
    c1_ok: bool
    c2_ok: bool
    c3_ok: bool
    c1_missing: list[str] = field(default_factory=list)
    c2_overlaps: list[tuple[str, str]] = field(default_factory=list)
    c3_timing: TimingReport | None = None

    @property
    def ok(self) -> bool:
        return self.c1_ok and self.c2_ok and self.c3_ok

    def __str__(self) -> str:
        flags = [
            f"C1={'ok' if self.c1_ok else self.c1_missing}",
            f"C2={'ok' if self.c2_ok else self.c2_overlaps[:3]}",
            f"C3={'ok' if self.c3_ok else str(self.c3_timing)}",
        ]
        return "constraints: " + ", ".join(flags)


def check_conversion_constraints(
    original: Module,
    converted: Module,
    clocks: ClockSpec,
    wire_caps: dict[str, float] | None = None,
) -> ConstraintReport:
    """Check C1-C3 for a converted latch design against its FF source."""
    # C1: every original FF position is still a register (now a latch).
    missing = [
        ff.name
        for ff in original.flip_flops()
        if ff.name not in converted.instances
        or converted.instances[ff.name].cell.op != "DLATCH"
    ]

    # C2: no comb-connected pair of latches has overlapping transparency.
    graph = extract_timing_graph(converted, wire_caps)
    overlaps: list[tuple[str, str]] = []
    phases = register_phases(converted, clocks)  # PI/PO map to None
    for edge in graph.edges:
        src_phase, dst_phase = phases.get(edge.src), phases.get(edge.dst)
        if src_phase is None or dst_phase is None:
            continue
        if clocks.overlaps(src_phase, dst_phase):
            overlaps.append((edge.src, edge.dst))

    # C3: setup met (borrowing allowed) at the same period.
    timing = analyze(converted, clocks, graph=graph, wire_caps=wire_caps)

    return ConstraintReport(
        c1_ok=not missing,
        c2_ok=not overlaps,
        c3_ok=timing.setup_ok,
        c1_missing=missing,
        c2_overlaps=overlaps,
        c3_timing=timing,
    )
