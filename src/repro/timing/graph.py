"""Sequential timing graph: min/max combinational delays between registers.

For multi-phase STA we need, for every pair of registers connected through
combinational logic, the shortest and longest path delay.  Primary inputs
act as pseudo-sources (the paper treats them "as if clocked by p1") and
primary outputs as pseudo-sinks.

Extraction runs one cone-restricted dynamic program per source, which is
near-linear for pipelined circuits where cones are local.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netlist.core import Module, Pin, PortRef
from repro.netlist.traversal import comb_topo_order
from repro.timing.delay import cell_delay

#: name used for the merged primary-input pseudo-source.
PI_SOURCE = "<PI>"
#: name used for the merged primary-output pseudo-sink.
PO_SINK = "<PO>"


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
    import heapq

    topo = comb_topo_order(module)
    topo_index = {name: i for i, name in enumerate(topo)}
    delays = {
        name: cell_delay(module, module.instances[name], wire_caps)
        for name in module.instances
    }

    registers = [i.name for i in module.sequential_instances()]
    sources: list[tuple[str, str, float]] = []  # (name, start net, launch delay)
    for name in registers:
        inst = module.instances[name]
        q_net = inst.conns.get("Q")
        if q_net is not None:
            sources.append((name, q_net, delays[name]))
    if include_ports:
        for port in module.data_input_ports():
            sources.append((PI_SOURCE, port, 0.0))

    # Gate fanout of each net, precomputed once.
    net_gates: dict[str, list[str]] = {net: [] for net in module.nets}
    for name in topo:
        inst = module.instances[name]
        for pin in inst.cell.input_pins:
            net = inst.conns.get(pin)
            if net is not None:
                net_gates[net].append(name)

    edges: dict[tuple[str, str], tuple[float, float]] = {}

    for src_name, start_net, launch in sources:
        min_arr: dict[str, float] = {start_net: launch}
        max_arr: dict[str, float] = {start_net: launch}
        # Cone-restricted sweep: visit only gates reachable from the start
        # net, in topological order (heap keyed by topo index), each once.
        heap = [(topo_index[g], g) for g in net_gates[start_net]]
        heapq.heapify(heap)
        queued = {g for _, g in heap}
        while heap:
            _, gate_name = heapq.heappop(heap)
            inst = module.instances[gate_name]
            in_nets = [inst.conns.get(p) for p in inst.cell.input_pins]
            out_net = inst.conns.get(inst.cell.output_pin)
            if out_net is None:
                continue
            delay = delays[gate_name]
            lo = min(min_arr[n] for n in in_nets if n in min_arr) + delay
            hi = max(max_arr[n] for n in in_nets if n in max_arr) + delay
            min_arr[out_net] = min(min_arr.get(out_net, lo), lo)
            max_arr[out_net] = max(max_arr.get(out_net, hi), hi)
            for nxt in net_gates[out_net]:
                if nxt not in queued:
                    queued.add(nxt)
                    heapq.heappush(heap, (topo_index[nxt], nxt))

        # Harvest sinks.
        sinks: dict[str, tuple[float, float]] = {}
        for net_name, hi in max_arr.items():
            lo = min_arr[net_name]
            for ref in module.nets[net_name].loads:
                if isinstance(ref, PortRef):
                    if include_ports:
                        _accumulate(sinks, PO_SINK, lo, hi)
                    continue
                sink = module.instances[ref.instance]
                if sink.is_sequential and ref.pin == "D":
                    _accumulate(sinks, sink.name, lo, hi)
        for dst, (lo, hi) in sinks.items():
            key = (src_name, dst)
            if key in edges:
                old_lo, old_hi = edges[key]
                edges[key] = (min(old_lo, lo), max(old_hi, hi))
            else:
                edges[key] = (lo, hi)

    return TimingGraph(
        registers=registers,
        edges=[
            SeqEdge(src, dst, lo, hi)
            for (src, dst), (lo, hi) in sorted(edges.items())
        ],
    )


def _accumulate(
    sinks: dict[str, tuple[float, float]], name: str, lo: float, hi: float
) -> None:
    if name in sinks:
        old_lo, old_hi = sinks[name]
        sinks[name] = (min(old_lo, lo), max(old_hi, hi))
    else:
        sinks[name] = (lo, hi)
