"""Gated-clock handling during conversion (Sec. IV-B).

A flip-flop's clock pin may be driven through a chain of integrated
clock-gating (ICG) cells and clock buffers rather than directly by the
clock port.  When the FF is converted to a latch on phase ``pX``, the same
gating must apply to ``pX``: "for each latch that is clock gated, we trace
the clock signal back through the clock gating logic and replace the clock
with p1 or p3.  In the case of latches belonging to the same clock gating
logic but assigned to different phases, the clock gating logic is
duplicated and connected to the two clock phases separately."

:class:`GatedClockRebuilder` implements exactly that: it traces each FF's
clock to its root, then re-creates the ICG chain rooted at the requested
phase port, caching per (chain, phase) so latches that shared a gate and
share a phase keep sharing one duplicated gate.
"""

from __future__ import annotations

from repro.library.cell import CellKind, Library
from repro.netlist.core import Module
from repro.netlist.traversal import trace_clock_root


class GatedClockRebuilder:
    """Duplicates ICG chains onto new clock phases with sharing."""

    def __init__(self, module: Module, library: Library):
        self.module = module
        self.library = library
        #: (chain instance names, phase port) -> net name of the rebuilt clock
        self._cache: dict[tuple[tuple[str, ...], str], str] = {}

    def clock_net_for(self, original_clock_net: str, phase_port: str) -> str:
        """The net carrying ``phase_port``'s clock gated the same way
        ``original_clock_net`` was gated.

        Clock buffers in the original chain are dropped (clock-tree
        synthesis re-buffers); ICGs are duplicated with their enable nets
        shared with the originals.
        """
        chain, _ = trace_clock_root(self.module, original_clock_net)
        icgs = [
            name
            for name in chain
            if self.module.instances[name].cell.kind is CellKind.ICG
        ]
        if not icgs:
            return phase_port

        key = (tuple(icgs), phase_port)
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        # Rebuild from the root (last element) toward the sink (first).
        current = phase_port
        for index in range(len(icgs) - 1, -1, -1):
            original = self.module.instances[icgs[index]]
            sub_key = (tuple(icgs[index:]), phase_port)
            sub_cached = self._cache.get(sub_key)
            if sub_cached is not None:
                current = sub_cached
                continue
            new_net = self.module.add_net(
                self.module.fresh_name(f"{phase_port}_g")
            )
            self.module.add_instance(
                self.module.fresh_name(f"icg_{phase_port}_"),
                original.cell,
                {
                    "CK": current,
                    "EN": original.net_of("EN"),
                    "GCK": new_net.name,
                },
                attrs={"phase": phase_port, "cloned_from": original.name},
            )
            current = new_net.name
            self._cache[sub_key] = current
        return current
