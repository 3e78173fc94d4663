"""Netlist traversals: topological order, FF-to-FF connectivity, clock network.

The central product here is :func:`ff_fanout_map`: for every flip-flop ``u``
the set ``FO(u)`` of flip-flops whose data input is reachable from ``u``'s
output through combinational logic only -- the relation the paper's ILP
(Sec. IV-A) is written over -- plus the analogous set for primary inputs.

Reachability is computed with one reverse-topological sweep propagating
per-net bitmasks (Python ints), so it is near-linear even for the
multi-thousand-FF CPU benchmarks.

The clock network's shape is known only here: :func:`trace_clock_root`
walks a clock net back to its root, :func:`register_phases` maps every
register to its phase, and :func:`is_clock_cell` names the cells that
distribute a clock.  Consumers add only their own policy on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.library.cell import CellKind
from repro.netlist.core import Instance, Module, Pin

#: Pin names that terminate a combinational path at a sequential cell.
_SEQ_DATA_PINS = {"D"}


def comb_topo_order(module: Module) -> list[str]:
    """Combinational instances in topological (input-to-output) order.

    Raises ``ValueError`` on a combinational cycle; run
    :func:`repro.netlist.validate.check` for a diagnostic report.
    """
    comb = {
        name: inst
        for name, inst in module.instances.items()
        if inst.cell.kind is CellKind.COMB
    }
    indegree = dict.fromkeys(comb, 0)
    successors: dict[str, list[str]] = {name: [] for name in comb}
    for name, inst in comb.items():
        for pin in inst.cell.input_pins:
            net_name = inst.conns.get(pin)
            if net_name is None:
                continue
            driver = module.nets[net_name].driver
            if isinstance(driver, Pin) and driver.instance in comb:
                successors[driver.instance].append(name)
                indegree[name] += 1
    ready = [name for name, deg in indegree.items() if deg == 0]
    order: list[str] = []
    while ready:
        node = ready.pop()
        order.append(node)
        for nxt in successors[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    if len(order) != len(comb):
        raise ValueError("combinational cycle detected")
    return order


@dataclass
class FFGraph:
    """FF-level connectivity extracted from a netlist.

    ``ffs`` lists flip-flop instance names in index order; ``fanout[u]`` is
    the set of FF names reachable from FF ``u`` through combinational logic;
    ``pi_fanout`` is the set of FF names reachable from any data primary
    input.  ``self_loop(u)`` tests combinational feedback around ``u``.
    """

    ffs: list[str]
    fanout: dict[str, set[str]] = field(default_factory=dict)
    pi_fanout: set[str] = field(default_factory=set)

    def self_loop(self, name: str) -> bool:
        return name in self.fanout.get(name, ())

    def fanin(self) -> dict[str, set[str]]:
        result: dict[str, set[str]] = {name: set() for name in self.ffs}
        for src, dsts in self.fanout.items():
            for dst in dsts:
                result[dst].add(src)
        return result

    def undirected_adjacency(self) -> dict[str, set[str]]:
        """Symmetric adjacency (excluding self) used by the MIS reduction."""
        adj: dict[str, set[str]] = {name: set() for name in self.ffs}
        for src, dsts in self.fanout.items():
            for dst in dsts:
                if src != dst:
                    adj[src].add(dst)
                    adj[dst].add(src)
        return adj


def _net_to_ff_masks(module: Module, seq_names: list[str]) -> dict[str, int]:
    """For each net, a bitmask of sequential cells whose data pin the net
    reaches through combinational logic (including directly)."""
    index = {name: i for i, name in enumerate(seq_names)}
    mask: dict[str, int] = dict.fromkeys(module.nets, 0)

    # Direct loads: a net feeding a sequential D pin reaches that cell.
    for net in module.nets.values():
        bits = 0
        for load in net.loads:
            if not isinstance(load, Pin):
                continue
            inst = module.instances[load.instance]
            if inst.is_sequential and load.pin in _SEQ_DATA_PINS:
                bits |= 1 << index[inst.name]
        mask[net.name] = bits

    # Propagate through combinational cells in reverse topological order:
    # a gate's input nets reach whatever its output net reaches.
    for name in reversed(comb_topo_order(module)):
        inst = module.instances[name]
        out_net = inst.conns.get(inst.cell.output_pin)
        if out_net is None:
            continue
        out_mask = mask[out_net]
        if not out_mask:
            continue
        for pin in inst.cell.input_pins:
            net_name = inst.conns.get(pin)
            if net_name is not None:
                mask[net_name] |= out_mask
    return mask


def _fanout_graph(module: Module, regs: list[str]) -> FFGraph:
    """The combinational reachability graph over the registers ``regs``."""
    masks = _net_to_ff_masks(module, regs)
    graph = FFGraph(ffs=regs)
    for name in regs:
        q_net = module.instances[name].conns.get("Q")
        bits = masks[q_net] if q_net is not None else 0
        graph.fanout[name] = {regs[i] for i in _bit_indices(bits)}

    pi_bits = 0
    for port in module.data_input_ports():
        pi_bits |= masks[port]
    graph.pi_fanout = {regs[i] for i in _bit_indices(pi_bits)}
    return graph


def ff_fanout_map(module: Module) -> FFGraph:
    """Extract the FF graph the conversion ILP is formulated over.

    Only flip-flops participate; paths end at any sequential data pin and at
    ICG enable pins (an enable path is not a data path).  Primary-input
    reachability covers all non-clock input ports.
    """
    return _fanout_graph(module, [inst.name for inst in module.flip_flops()])


def seq_fanout_map(module: Module) -> FFGraph:
    """Like :func:`ff_fanout_map`, but over *all* sequential cells.

    After conversion the state elements are latches, so the phase-legality
    lint rules need latch-to-latch (and mixed FF/latch) combinational
    reachability.
    """
    return _fanout_graph(
        module, [inst.name for inst in module.sequential_instances()])


def _bit_indices(bits: int) -> list[int]:
    """Indices of the set bits of ``bits``, ascending, in O(popcount)."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def trace_clock_root(
    module: Module, net_name: str | None,
) -> tuple[list[str], str | None]:
    """Follow a clock net backward through ICGs and buffers to its root.

    This is the one model of the clock network's shape: an ICG is
    crossed via its ``CK`` pin, a buffer or inverter via its ``A`` pin.
    Returns ``(chain, root)``: ``chain`` lists the crossed instances from
    the sink side back (the first drives ``net_name``); ``root`` is the
    net the trace stopped at -- a clock port, an undriven or missing
    net, or a net driven by any other cell -- or None when a crossed
    pin is unconnected.  Raises ``ValueError`` on a clock-tree cycle.
    """
    chain: list[str] = []
    current = net_name
    seen: set[str] = set()
    while current is not None:
        if current in seen:
            raise ValueError(f"clock net cycle at {current!r}")
        seen.add(current)
        net = module.nets.get(current)
        if net is None or not isinstance(net.driver, Pin):
            break
        inst = module.instances[net.driver.instance]
        if inst.cell.kind is CellKind.ICG:
            pin = "CK"
        elif inst.cell.op in ("BUF", "INV"):
            pin = "A"
        else:
            break
        chain.append(inst.name)
        current = inst.conns.get(pin)
    return chain, current


def register_phases(module: Module, clocks) -> dict[str, str]:
    """Sequential instance name -> the phase its clock traces back to.

    ``clocks`` is a ``ClockSpec``.  Raises ``ValueError`` when a
    register's clock root is not one of its ``phase_names``.
    """
    phases: dict[str, str] = {}
    for inst in module.sequential_instances():
        _, root = trace_clock_root(module, inst.conns.get(inst.cell.clock_pin))
        if root not in clocks.phase_names:
            raise ValueError(
                f"register {inst.name!r} clock root {root!r} is not a phase "
                f"of the clock spec {clocks.phase_names}"
            )
        phases[inst.name] = root
    return phases


def is_clock_cell(inst: Instance) -> bool:
    """Clock-distribution cells: ICGs and the buffers CTS inserted."""
    return inst.cell.kind is CellKind.ICG or bool(inst.attrs.get("clock_buffer"))
