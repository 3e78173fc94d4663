"""Post-retiming gate sizing (Sec. IV-C: "further optimization is then
triggered to optimize the sizes of gates in the retimed latch-based
design").

A conservative downsizing pass: gates that sit only on comfortably
non-critical paths are swapped to the next weaker drive (smaller area,
lower input capacitance, less internal energy), then one STA confirms the
design still meets timing; on a violation the pass bisects the candidate
batch until the surviving subset is safe.

Path criticality is estimated with a linear up/down sweep (max delay from
any register output to the gate, plus max delay from the gate to any
register input), compared against the tightest phase budget in the clock
spec -- pessimistic, hence safe to act on in bulk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.convert.clocks import ClockSpec
from repro.library.cell import CellKind, Library
from repro.netlist.core import Module
from repro.netlist.traversal import comb_topo_order
from repro.timing.delay import cell_delay, downstream_delay, upstream_delay
from repro.timing.sta import analyze


@dataclass
class SizingReport:
    downsized: int = 0
    reverted: int = 0
    area_before: float = 0.0
    area_after: float = 0.0
    sta_runs: int = 0
    changes: dict[str, tuple[str, str]] = field(default_factory=dict)

    @property
    def area_saved(self) -> float:
        return self.area_before - self.area_after


def _tightest_budget(clocks: ClockSpec) -> float:
    """The smallest open-to-close hop budget any path could face."""
    if len(clocks.phases) == 1:
        return clocks.period
    budgets = []
    for src in clocks.phases:
        for dst in clocks.phases:
            shift = dst.fall - src.rise
            if shift <= 0:
                shift += clocks.period
            budgets.append(shift)
    return min(budgets)


def downsize_gates(
    module: Module,
    clocks: ClockSpec,
    library: Library,
    safety_fraction: float = 0.6,
) -> SizingReport:
    """Downsize non-critical gates in place; keeps timing met.

    Gates whose worst register-to-register path estimate stays below
    ``safety_fraction`` of the tightest phase budget are candidates.
    """
    report = SizingReport(area_before=module.total_area())
    budget = _tightest_budget(clocks) * safety_fraction
    order = comb_topo_order(module)
    up = upstream_delay(module, order)
    down = downstream_delay(module, order)

    candidates: list[str] = []
    for name, inst in module.instances.items():
        if inst.cell.kind is not CellKind.COMB or inst.cell.drive <= 1:
            continue
        if inst.attrs.get("clock_buffer") or inst.attrs.get("hold_buffer"):
            continue
        out = inst.conns.get(inst.cell.output_pin)
        if out is None:
            continue
        worst_in = max(
            (up[inst.conns[p]] for p in inst.cell.input_pins
             if inst.conns.get(p) is not None),
            default=0.0,
        )
        if worst_in + cell_delay(module, inst) + down[out] < budget:
            candidates.append(name)

    def apply(names: list[str]) -> dict[str, str]:
        applied = {}
        for name in names:
            inst = module.instances[name]
            weaker = [
                c for c in library.cells_for_op(
                    inst.cell.op, len(inst.cell.data_pins))
                if c.drive < inst.cell.drive
            ]
            if not weaker:
                continue
            applied[name] = inst.cell.name
            module.replace_cell(name, weaker[-1])
        return applied

    def revert(applied: dict[str, str]) -> None:
        for name, old_cell in applied.items():
            module.replace_cell(name, library[old_cell])

    batch = candidates
    while batch:
        applied = apply(batch)
        if not applied:
            break
        report.sta_runs += 1
        if analyze(module, clocks).ok:
            for name, old in applied.items():
                report.changes[name] = (old, module.instances[name].cell.name)
            report.downsized += len(applied)
            break
        revert(applied)
        if len(batch) == 1:
            report.reverted += 1
            break
        batch = batch[: len(batch) // 2]

    report.area_after = module.total_area()
    return report
