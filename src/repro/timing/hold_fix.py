"""Hold fixing: delay-buffer insertion on short paths.

With clock skew/uncertainty, a register pair whose launch and capture
edges coincide in time (``gap == 0``) needs every min path padded to
``hold + uncertainty``.  In an FF design *every* edge has gap 0 (same
rising edge); in a master-slave design both hop types also have gap 0
(complementary 50% clocks); in the derived 3-phase schedule only the
p1->p3 hop is gap-free -- every other hop enjoys a T/8..3T/8 guard band.
This is exactly the paper's observation that latch-based designs carry
"fewer hold buffers than their FF-based counterparts", and it is where a
chunk of the combinational-power saving comes from.

The pass computes per-edge hold slack (min path delay + phase gap -
hold - uncertainty-at-zero-gap) and pads the capture register's D input
with buffer chains until the worst violating edge is clean.  It does not
re-time setup: the flow's verdict is the post-P&R analysis, which times
this same netlist with wire loads added.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.convert.clocks import ClockSpec
from repro.library.cell import Library
from repro.netlist.core import Module
from repro.timing.graph import PI_SOURCE, PO_SINK, extract_timing_graph
from repro.timing.smo import effective_hold_gap
from repro.timing.sta import _register_timings


@dataclass
class HoldFixReport:
    buffers_added: int = 0
    edges_fixed: int = 0
    worst_violation: float = 0.0
    area_added: float = 0.0
    #: capture register -> number of buffers inserted in front of D
    per_register: dict[str, int] = field(default_factory=dict)


def fix_holds(
    module: Module,
    clocks: ClockSpec,
    library: Library,
    clock_uncertainty: float = 80.0,
    buffer_name: str | None = None,
) -> HoldFixReport:
    """Insert hold buffers in place until no edge violates.

    ``clock_uncertainty`` (ps) models skew between any two clock arrival
    points; an edge's phase gap absorbs it, so well-separated phases never
    violate.  Abutted pairs derived from one FF (master/slave,
    leading/follower) share a clock point and are exempt.
    """
    report = HoldFixReport()
    buffer_cell = (library[buffer_name] if buffer_name
                   else library.cell_for_op("BUF", drive=1))
    graph = extract_timing_graph(module)
    timings = _register_timings(module, clocks)
    period = clocks.period

    # Worst extra delay needed per capture register over its fanin edges.
    need: dict[str, float] = {}
    for edge in graph.edges:
        if edge.src in (PI_SOURCE,) or edge.dst in (PO_SINK,):
            continue
        src_t, dst_t = timings[edge.src], timings[edge.dst]
        gap = effective_hold_gap(period, src_t, dst_t)
        # The phase gap absorbs skew: slack = min + gap - hold - skew, so a
        # hop whose previous capture edge sits >= skew before the launch
        # opening (all 3-phase hops except p1->p3) never needs padding.
        uncertainty = clock_uncertainty
        # A master-slave or leading-follower pair derived from the same FF
        # is placed as one unit and shares its local clock point: no skew.
        src_owner = module.instances[edge.src].attrs.get("orig_ff")
        dst_owner = module.instances[edge.dst].attrs.get("orig_ff")
        if src_owner is not None and src_owner == dst_owner:
            uncertainty = 0.0
        slack = edge.min_delay + gap - dst_t.hold - uncertainty
        if slack < -1e-9:
            report.edges_fixed += 1
            report.worst_violation = min(report.worst_violation, slack)
            need[edge.dst] = max(need.get(edge.dst, 0.0), -slack)

    for reg_name, extra in sorted(need.items()):
        reg = module.instances[reg_name]
        d_net = reg.net_of("D")
        # Buffer delay once inserted (drives only the register's D pin).
        unit = (buffer_cell.intrinsic_delay
                + buffer_cell.delay_per_ff * reg.cell.pin_capacitance("D"))
        count = max(1, math.ceil(extra / unit))
        current = d_net
        for _ in range(count):
            buf_name = module.fresh_name(f"hold_{reg_name}_")
            new_net = module.add_net(module.fresh_name(f"{reg_name}_hd"))
            module.disconnect(reg_name, "D")
            module.add_instance(
                buf_name, buffer_cell,
                {"A": current, "Y": new_net.name},
                attrs={"hold_buffer": True},
            )
            module.connect(reg_name, "D", new_net.name)
            current = new_net.name
            report.buffers_added += 1
            report.area_added += buffer_cell.area
        report.per_register[reg_name] = count
    return report
