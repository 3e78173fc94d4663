"""Shared analysis context for lint rules.

Running N rules must not mean N netlist traversals.  The
:class:`AnalysisContext` computes each expensive view of the design at
most once — the phase map, the latch/FF connectivity graph, the
clock-tree back-trace, the per-ICG gated-sink sets — and memoises it so
every rule in a pass shares the result.  Rules only read from the
context; it never mutates the module.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.library.cell import CellKind
from repro.netlist.core import Module, Pin
from repro.netlist.traversal import FFGraph, seq_fanout_map, trace_clock_root


class AnalysisContext:
    """One-pass shared state for a lint run over ``module``.

    ``clocks`` is the flow's ``ClockSpec`` when available; without it
    the declared phases default to the module's clock ports.  ``extra``
    carries optional stage byproducts (activity profiles, retime
    results, clock-gating options) that individual rules may consume.
    """

    def __init__(
        self,
        module: Module,
        clocks: Any = None,
        *,
        extra: Mapping[str, Any] | None = None,
        allow_dangling: bool = True,
    ) -> None:
        self.module = module
        self.clocks = clocks
        self.extra: Mapping[str, Any] = extra or {}
        self.allow_dangling = allow_dangling
        self._seq_graph: FFGraph | None = None
        self._seq_graph_done = False
        self._roots: dict[str | None, str | None] = {None: None}
        self._gated_sinks: dict[str, tuple[str, ...]] = {}
        self._icgs: tuple[str, ...] | None = None

    # -- phase map ----------------------------------------------------

    @property
    def phase_names(self) -> tuple[str, ...]:
        """Declared clock phases (from the spec, else the clock ports)."""
        if self.clocks is not None:
            return tuple(self.clocks.phase_names)
        return tuple(self.module.clock_ports)

    @property
    def is_three_phase(self) -> bool:
        """True when the design declares the paper's p1/p2/p3 phases."""
        return {"p1", "p2", "p3"} <= set(self.phase_names)

    @property
    def seq_phase(self) -> dict[str, str | None]:
        """Instance name -> declared ``phase`` attr for sequential cells."""
        return {
            inst.name: inst.attrs.get("phase")
            for inst in self.module.sequential_instances()
        }

    # -- connectivity graph -------------------------------------------

    @property
    def seq_graph(self) -> FFGraph | None:
        """Sequential-to-sequential fanout graph, or None on a comb cycle.

        A combinational cycle makes the reverse-topo sweep impossible;
        the structural ``comb-cycle`` rule reports it, and path rules
        that need the graph silently skip.
        """
        if not self._seq_graph_done:
            self._seq_graph_done = True
            try:
                self._seq_graph = seq_fanout_map(self.module)
            except ValueError:
                self._seq_graph = None
        return self._seq_graph

    # -- clock-tree back-trace ----------------------------------------

    def clock_root(self, net_name: str | None) -> str | None:
        """Root clock port feeding ``net_name``, through buffers and ICGs
        (:func:`~repro.netlist.traversal.trace_clock_root`), or None when
        the trace dead-ends anywhere else or loops."""
        if net_name not in self._roots:
            try:
                _, root = trace_clock_root(self.module, net_name)
            except ValueError:
                root = None
            self._roots[net_name] = (
                root if root in self.module.clock_ports else None)
        return self._roots[net_name]

    # -- gated-clock sink sets ----------------------------------------

    @property
    def icgs(self) -> tuple[str, ...]:
        """Names of clock-gate instances, in insertion order."""
        if self._icgs is None:
            self._icgs = tuple(
                inst.name for inst in self.module.instances.values()
                if inst.cell.kind is CellKind.ICG
            )
        return self._icgs

    def gated_sinks(self, icg_name: str) -> tuple[str, ...]:
        """Sequential instances clocked from ``icg_name``'s gated output.

        Follows the GCK net forward through buffers/inverters only (a
        chained ICG starts its own gating domain) and collects every
        sequential cell whose clock/gate pin loads the tree.
        """
        if icg_name in self._gated_sinks:
            return self._gated_sinks[icg_name]
        icg = self.module.instances[icg_name]
        sinks: dict[str, None] = {}
        start = icg.conns.get("GCK")
        stack = [start] if start is not None else []
        visited: set[str] = set()
        while stack:
            net_name = stack.pop()
            if net_name in visited:
                continue
            visited.add(net_name)
            net = self.module.nets.get(net_name)
            if net is None:
                continue
            for load in net.loads:
                if not isinstance(load, Pin):
                    continue
                inst = self.module.instances.get(load.instance)
                if inst is None:
                    continue
                if inst.cell.is_sequential:
                    clock_pin = inst.cell.clock_pin
                    if clock_pin is not None and load.pin == clock_pin:
                        sinks[inst.name] = None
                elif inst.cell.op in ("BUF", "INV") and load.pin == "A":
                    out = inst.conns.get("Y")
                    if out is not None:
                        stack.append(out)
        result = tuple(sinks)
        self._gated_sinks[icg_name] = result
        return result
