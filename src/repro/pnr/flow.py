"""Physical design flow: place -> clock-tree synthesis -> route estimate."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import obs
from repro.library.cell import Library
from repro.netlist.core import Module
from repro.pnr.cts import CtsResult, synthesize_clock_trees
from repro.pnr.placement import Placement, place
from repro.pnr.routing import RoutingEstimate, estimate_routing


@dataclass
class PhysicalDesign:
    """What P&R found out about the netlist it edited in place; the
    netlist itself stays with the caller."""

    placement: Placement
    routing: RoutingEstimate
    cts: CtsResult
    #: wall-clock seconds per step, for the Sec. V runtime comparison.
    runtime: dict[str, float] = field(default_factory=dict)

    @property
    def wire_caps(self) -> dict[str, float]:
        return self.routing.wire_caps


def place_and_route(
    module: Module,
    library: Library,
    clock_buffer_fanout: int = 24,
) -> PhysicalDesign:
    """Run the P&R-lite flow in place on ``module``.

    CTS inserts real clock buffers, so run this *after* all netlist
    transformations (conversion, retiming, clock gating).
    """
    t0 = time.monotonic()
    with obs.span("pnr.place", cells=len(module.instances)) as sp:
        placement = place(module)
        sp.set(width=round(placement.width, 1),
               height=round(placement.height, 1))
    t1 = time.monotonic()
    with obs.span("pnr.cts") as sp:
        cts = synthesize_clock_trees(
            module, library, placement, max_fanout=clock_buffer_fanout
        )
        sp.set(trees=len(cts.trees), buffers=cts.total_buffers)
    t2 = time.monotonic()
    with obs.span("pnr.route", nets=len(module.nets)):
        routing = estimate_routing(module, placement, library)
    t3 = time.monotonic()
    return PhysicalDesign(
        placement=placement,
        routing=routing,
        cts=cts,
        runtime={
            "place": t1 - t0,
            "cts": t2 - t1,
            "route": t3 - t2,
        },
    )
