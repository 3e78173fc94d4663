"""Sequential timing graph: min/max combinational delays between registers.

For multi-phase STA we need, for every pair of registers connected through
combinational logic, the shortest and longest path delay.  Primary inputs
act as pseudo-sources (the paper treats them "as if clocked by p1") and
primary outputs as pseudo-sinks.

Extraction is one pass over the combinational gates in topological
order.  Every net carries the arrival window ``{source: (min, max)}`` of
each source that reaches it; a gate merges its inputs' windows and adds
its delay, a window is turned into edges where it reaches a register's
data pin or a primary output, and it is dropped after the net's last
gate reader.  The work is the number of (gate, source) pairs in reach,
with no per-source traversal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.netlist.core import Module, PortRef
from repro.netlist.traversal import comb_topo_order
from repro.timing.delay import cell_delay

#: name used for the merged primary-input pseudo-source.
PI_SOURCE = "<PI>"
#: name used for the merged primary-output pseudo-sink.
PO_SINK = "<PO>"

#: arrival window of one net: source -> (min, max) arrival time.
_Window = dict[str, tuple[float, float]]


@dataclass(frozen=True)
class SeqEdge:
    """Combinational connection between two sequential endpoints."""

    src: str  # register instance name or PI_SOURCE
    dst: str  # register instance name or PO_SINK
    min_delay: float
    max_delay: float


@dataclass
class TimingGraph:
    registers: list[str]
    edges: list[SeqEdge] = field(default_factory=list)


def extract_timing_graph(
    module: Module,
    wire_caps: dict[str, float] | None = None,
    include_ports: bool = True,
) -> TimingGraph:
    """Build the register-to-register delay graph.

    Delays include the source register's clock-to-q (or data-to-q) delay
    and every combinational cell delay on the path; the capture register's
    setup is applied by the STA, not here.  Paths stop at sequential data
    pins and at ICG enable pins (enables are checked by the clock-gating
    legality analysis, not the data STA).
    """
    with obs.span("sta.graph") as sp:
        graph = _extract(module, wire_caps, include_ports)
        sp.set(registers=len(graph.registers), edges=len(graph.edges))
    return graph


def _extract(
    module: Module,
    wire_caps: dict[str, float] | None,
    include_ports: bool,
) -> TimingGraph:
    topo = comb_topo_order(module)
    instances = module.instances

    # Input nets of each gate, and the gate after which a net is dead.
    gate_inputs = []
    last_reader: dict[str, int] = {}
    for i, name in enumerate(topo):
        inst = instances[name]
        ins = [n for n in map(inst.conns.get, inst.cell.input_pins)
               if n is not None]
        gate_inputs.append(ins)
        for net in ins:
            last_reader[net] = i

    # Endpoints of each net: registers whose D pin it feeds, and PO_SINK.
    sinks: dict[str, list[str]] = {}
    for net in module.nets.values():
        for ref in net.loads:
            if isinstance(ref, PortRef):
                if include_ports:
                    sinks.setdefault(net.name, []).append(PO_SINK)
            elif ref.pin == "D" and instances[ref.instance].is_sequential:
                sinks.setdefault(net.name, []).append(ref.instance)

    arrivals: dict[str, _Window] = {}  # live windows, keyed by net
    edges: dict[tuple[str, str], tuple[float, float]] = {}

    def publish(net: str, window: _Window) -> None:
        if net in last_reader:
            arrivals[net] = window
        for dst in sinks.get(net, ()):
            for src, (lo, hi) in window.items():
                _widen(edges, (src, dst), lo, hi)

    registers = []
    for inst in module.sequential_instances():
        registers.append(inst.name)
        q_net = inst.conns.get("Q")
        if q_net is not None:
            launch = cell_delay(module, inst, wire_caps)
            publish(q_net, {inst.name: (launch, launch)})
    if include_ports:
        for port in module.data_input_ports():
            publish(port, {PI_SOURCE: (0.0, 0.0)})

    for i, name in enumerate(topo):
        ins = gate_inputs[i]
        windows = [arrivals[n] for n in ins if n in arrivals]
        inst = instances[name]
        out_net = inst.conns.get(inst.cell.output_pin)
        if windows and out_net is not None:
            merged = windows[0]
            if len(windows) > 1:
                merged = dict(merged)
                for window in windows[1:]:
                    for src, (lo, hi) in window.items():
                        _widen(merged, src, lo, hi)
            delay = cell_delay(module, inst, wire_caps)
            publish(out_net, {src: (lo + delay, hi + delay)
                              for src, (lo, hi) in merged.items()})
        for net in ins:
            if last_reader[net] == i:
                arrivals.pop(net, None)

    return TimingGraph(
        registers=registers,
        edges=[
            SeqEdge(src, dst, lo, hi)
            for (src, dst), (lo, hi) in sorted(edges.items())
        ],
    )


def _widen(windows: dict, key, lo: float, hi: float) -> None:
    """Widen ``windows[key]`` to cover ``(lo, hi)``; min and max are exact,
    so the result does not depend on the order windows are merged in."""
    old = windows.get(key)
    if old is None:
        windows[key] = (lo, hi)
    else:
        windows[key] = (lo if lo < old[0] else old[0],
                        hi if hi > old[1] else old[1])
