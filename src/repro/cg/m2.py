"""Modification M2: removing the internal latch of hazard-free CG cells.

The latch inside a conventional ICG exists to keep the gated clock
glitch-free while the enable settles.  In a 3-phase design it is redundant
for a CG cell on phase ``p`` whenever no enable path *starts at a latch of
the same phase p*: all other phases have closed before ``p``'s latches
open, so EN is stable during the whole high period of ``p`` and hazards
cannot occur (Sec. IV-D, Fig. 3c2).

Primary inputs do not block the removal: under the testbench/interface
convention they change strictly between phase windows (at 0.27*T, outside
p1/p2/p3 high intervals), like the paper's "PIs as if clocked by p1"
assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.library.cell import CellKind, Library
from repro.netlist.core import Module, Pin
from repro.netlist.traversal import trace_clock_root


@dataclass
class M2Report:
    replaced: list[str] = field(default_factory=list)
    kept: list[str] = field(default_factory=list)


def enable_source_phases(module: Module, en_net: str) -> set[str]:
    """Phases of all latches at the start of paths into ``en_net``."""
    phases: set[str] = set()
    seen: set[str] = set()
    stack = [en_net]
    while stack:
        net = stack.pop()
        if net in seen:
            continue
        seen.add(net)
        driver = module.nets[net].driver
        if not isinstance(driver, Pin):
            continue  # port: PIs are safe by the interface convention
        inst = module.instances[driver.instance]
        if inst.is_sequential:
            phases.add(str(inst.attrs.get("phase", "?")))
        elif inst.cell.kind is CellKind.COMB:
            for pin in inst.cell.input_pins:
                in_net = inst.conns.get(pin)
                if in_net is not None:
                    stack.append(in_net)
        elif inst.cell.kind is CellKind.ICG:
            # An enable derived from a gated clock is not a data path; stop.
            continue
    return phases


def cg_phase(module: Module, icg_name: str, phase_names: tuple[str, ...]) -> str | None:
    """The clock phase an ICG's CK pin traces back to, or None."""
    _, root = trace_clock_root(module, module.instances[icg_name].net_of("CK"))
    return root if root in phase_names else None


def apply_m2(
    module: Module,
    library: Library,
    phases: tuple[str, ...] = ("p1", "p3"),
    all_phases: tuple[str, ...] = ("p1", "p2", "p3"),
) -> M2Report:
    """Replace hazard-free conventional ICGs on p1/p3 with latch-free ANDs.

    Only conventional ``ICG`` cells are considered (the M1 p2 cells keep
    their latch -- it is what makes M1 work).
    """
    report = M2Report()
    and_cell = library.cell_for_op("ICG_AND")
    for name in sorted(module.instances):
        inst = module.instances.get(name)
        if inst is None or inst.cell.op != "ICG":
            continue
        phase = cg_phase(module, name, all_phases)
        if phase not in phases:
            report.kept.append(name)
            continue
        sources = enable_source_phases(module, inst.net_of("EN"))
        if phase in sources:
            report.kept.append(name)  # hazard possible: keep the latch
            continue
        module.replace_cell(name, and_cell)
        module.instances[name].attrs["m2"] = True
        report.replaced.append(name)
    return report
