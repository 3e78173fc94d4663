"""Common-enable clock gating of p2 latches (Sec. IV-D, Fig. 3a).

A p2 latch only needs a clock edge when its upstream (fan-in) latches
captured new data.  If every latch feeding a p2 latch is clock-gated by
the same enable ``EN``, the p2 latch can be gated by ``EN`` too, using a
dedicated "p2 CG" cell.

Modification **M1** (Fig. 3c1): the p2 CG's internal inverted clock is
replaced by phase p3 (pin ``PB``), removing the inverter.  This is safe
because the shared EN is stable when the upstream latches open, hence
valid before p1 rises, hence safe to latch with p3 (whose falling edge
coincides with p1's rise in our schedule).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.library.cell import CellKind, Library
from repro.netlist.core import Module
from repro.netlist.traversal import trace_clock_root


@dataclass
class CommonEnableReport:
    gated_latches: int = 0
    cg_cells_added: int = 0
    #: enable net -> latches gated under it
    groups: dict[str, list[str]] = field(default_factory=dict)
    ungated: list[str] = field(default_factory=list)


#: lattice labels for the one-pass gating analysis
_NO_GATE = "<ungated>"
_MIXED = "<mixed>"


def gating_labels(module: Module) -> dict[str, str | None]:
    """One forward pass labelling every net with its gating condition.

    A net's label is the enable net gating *all* sequential sources that
    reach it, or ``None`` (no sequential/PI source: constants), or a
    sentinel: ``<ungated>`` (some fanin register has a free-running
    clock), ``<mixed>`` (different enables, or a primary input -- a PI
    can change while EN is low, so gating on EN would lose updates).
    """
    from repro.netlist.traversal import comb_topo_order

    labels: dict[str, str | None] = dict.fromkeys(module.nets, None)
    for inst in module.instances.values():
        if not inst.is_sequential:
            continue
        q_net = inst.conns.get("Q")
        if q_net is not None:
            enable = enable_of(module, inst.name)
            labels[q_net] = enable if enable is not None else _NO_GATE
    for port in module.data_input_ports():
        labels[module.nets[port].name] = _MIXED

    for name in comb_topo_order(module):
        inst = module.instances[name]
        out = inst.conns.get(inst.cell.output_pin)
        if out is None:
            continue
        joined: str | None = None
        for pin in inst.cell.input_pins:
            net = inst.conns.get(pin)
            if net is None:
                continue
            label = labels[net]
            if label is None:
                continue
            if joined is None:
                joined = label
            elif joined != label:
                joined = _MIXED
        labels[out] = joined
    return labels


def enable_of(module: Module, latch_name: str) -> str | None:
    """The enable net gating a latch's clock, or None if ungated.

    Traces the clock chain; the *nearest* ICG's EN defines the gating
    condition seen by the latch.
    """
    latch = module.instances[latch_name]
    chain, _ = trace_clock_root(module, latch.net_of(latch.cell.clock_pin))
    for inst_name in chain:
        inst = module.instances[inst_name]
        if inst.cell.kind is CellKind.ICG:
            return inst.net_of("EN")
    return None


def apply_common_enable_gating(
    module: Module,
    library: Library,
    p2_net: str = "p2",
    p3_net: str = "p3",
    use_m1: bool = True,
    max_fanout: int = 32,
) -> CommonEnableReport:
    """Gate every eligible p2 latch whose fan-in latches share an enable.

    Returns the report; ineligible p2 latches are listed in ``ungated``
    (candidates for DDCG).
    """
    report = CommonEnableReport()
    p2_latches = [
        inst.name
        for inst in module.latches()
        if inst.attrs.get("phase") == "p2"
        and inst.net_of("G") == p2_net  # not already gated
    ]

    labels = gating_labels(module)
    groups: dict[str, list[str]] = {}
    for name in sorted(p2_latches):
        label = labels[module.instances[name].net_of("D")]
        if label in (None, _NO_GATE, _MIXED):
            report.ungated.append(name)
            continue
        groups.setdefault(label, []).append(name)

    cg_op = "ICG_M1" if use_m1 else "ICG"
    cg_cell = library.cell_for_op(cg_op)
    for enable, members in sorted(groups.items()):
        report.groups[enable] = members
        for start in range(0, len(members), max_fanout):
            chunk = members[start : start + max_fanout]
            gck = module.add_net(module.fresh_name("p2_gck"))
            conns = {"CK": p2_net, "EN": enable, "GCK": gck.name}
            if cg_op == "ICG_M1":
                conns["PB"] = p3_net
            module.add_instance(
                module.fresh_name("p2cg_"),
                cg_cell,
                conns,
                attrs={"phase": "p2", "p2_cg": True, "enable": enable},
            )
            report.cg_cells_added += 1
            for latch in chunk:
                module.reconnect(latch, "G", gck.name)
                module.instances[latch].attrs["enable"] = enable
                report.gated_latches += 1
    return report
