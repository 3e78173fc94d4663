"""Cell delay calculation (linear delay model, optional wire loads).

The same model the simulator uses: ``delay = intrinsic + slope * load``,
where load is the sum of sink pin capacitances on the output net plus any
wire capacitance the placement estimate assigns to the net.

:func:`upstream_delay` / :func:`downstream_delay` are the two linear
sweeps over the combinational order that gate sizing and forward
retiming use to rank paths without a full STA.
"""

from __future__ import annotations

from repro.netlist.core import Instance, Module, Pin
from repro.netlist.traversal import comb_topo_order


def output_load(
    module: Module,
    inst: Instance,
    wire_caps: dict[str, float] | None = None,
) -> float:
    outs = inst.cell.output_pins
    if not outs:
        return 0.0
    net_name = inst.conns.get(outs[0])
    if net_name is None:
        return 0.0
    load = (wire_caps or {}).get(net_name, 0.0)
    for ref in module.nets[net_name].loads:
        if isinstance(ref, Pin):
            sink = module.instances[ref.instance]
            load += sink.cell.pin_capacitance(ref.pin)
    return load


def cell_delay(
    module: Module,
    inst: Instance,
    wire_caps: dict[str, float] | None = None,
) -> float:
    """Input-to-output (or clock-to-q) delay of one instance."""
    load = output_load(module, inst, wire_caps)
    return inst.cell.intrinsic_delay + inst.cell.delay_per_ff * load


def upstream_delay(
    module: Module, order: list[str] | None = None
) -> dict[str, float]:
    """Per-net max combinational delay from any register output.

    ``order`` is the module's ``comb_topo_order``; a caller that also
    needs :func:`downstream_delay` computes it once and passes it to both.
    """
    up: dict[str, float] = dict.fromkeys(module.nets, 0.0)
    for inst in module.sequential_instances():
        q = inst.conns.get("Q")
        if q is not None:
            up[q] = max(up[q], cell_delay(module, inst))
    for name in order if order is not None else comb_topo_order(module):
        inst = module.instances[name]
        out = inst.conns.get(inst.cell.output_pin)
        if out is None:
            continue
        arrivals = [
            up[inst.conns[p]] for p in inst.cell.input_pins
            if inst.conns.get(p) is not None
        ]
        if arrivals:
            up[out] = max(up[out], max(arrivals) + cell_delay(module, inst))
    return up


def downstream_delay(
    module: Module, order: list[str] | None = None
) -> dict[str, float]:
    """Per-net max combinational delay to any sequential data pin
    (``order`` as for :func:`upstream_delay`)."""
    down: dict[str, float] = dict.fromkeys(module.nets, 0.0)
    for name in reversed(order if order is not None
                         else comb_topo_order(module)):
        inst = module.instances[name]
        out = inst.conns.get(inst.cell.output_pin)
        if out is None:
            continue
        total = cell_delay(module, inst) + down[out]
        for pin in inst.cell.input_pins:
            net = inst.conns.get(pin)
            if net is not None:
                down[net] = max(down[net], total)
    return down
