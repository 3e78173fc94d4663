"""Activity-based power model with the paper's Clock/Seq/Comb groups.

Energy sources over a measured window of ``cycles * period``:

* **net switching** -- ``0.5 * C_net * V^2`` per toggle, where ``C_net`` is
  the sum of sink pin capacitances plus the routed wire capacitance from
  the placement estimate;
* **cell internal** -- ``energy_per_toggle`` per output transition;
* **clocked internal** -- ``clock_energy`` per clock cycle *delivered to
  the cell's clock pin* (gated clocks deliver fewer cycles, which is how
  clock gating saves power here, exactly as in sign-off);
* **leakage** -- per-cell leakage power integrated over the window.

Group assignment follows the sign-off convention the paper's Table II
uses (clock network / sequential / combinational):

* Clock: clock-net switching (tree wire + every clock pin), clock buffer
  cells, ICG cells, and the clocked internal energy of registers (this is
  why FF-heavy low-activity designs show Clock >> Seq, as in the paper);
* Seq: register internal data power and register output net switching;
* Comb: everything else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.library.cell import Library
from repro.netlist.core import Module, Pin
from repro.netlist.traversal import is_clock_cell

#: femtojoule * (1/ps) = milliwatt; energies are fJ, times ps.
_FJ_PER_PS_TO_MW = 1.0


@dataclass
class PowerGroup:
    switching: float = 0.0  # net + internal dynamic, mW
    internal: float = 0.0
    leakage: float = 0.0

    @property
    def total(self) -> float:
        return self.switching + self.internal + self.leakage

    def __iadd__(self, other: "PowerGroup") -> "PowerGroup":
        self.switching += other.switching
        self.internal += other.internal
        self.leakage += other.leakage
        return self


@dataclass
class PowerReport:
    """Per-group power in mW for one design/workload."""

    design: str
    clock: PowerGroup = field(default_factory=PowerGroup)
    seq: PowerGroup = field(default_factory=PowerGroup)
    comb: PowerGroup = field(default_factory=PowerGroup)
    cycles: int = 0
    period: float = 0.0

    @property
    def total(self) -> float:
        return self.clock.total + self.seq.total + self.comb.total

    def group(self, name: str) -> PowerGroup:
        return {"clock": self.clock, "seq": self.seq, "comb": self.comb}[name]

    def as_row(self) -> dict[str, float]:
        return {
            "clock": self.clock.total,
            "seq": self.seq.total,
            "comb": self.comb.total,
            "total": self.total,
        }

    def __str__(self) -> str:
        return (
            f"{self.design}: clock {self.clock.total:.4f} + "
            f"seq {self.seq.total:.4f} + comb {self.comb.total:.4f} = "
            f"{self.total:.4f} mW"
        )


def clock_nets_of(module: Module) -> set[str]:
    """Nets belonging to the clock network: the clock ports and the
    output nets of clock cells (clock buffers and ICGs)."""
    nets = set(module.clock_ports)
    for inst in module.instances.values():
        if is_clock_cell(inst) and inst.cell.output_pin in inst.conns:
            nets.add(inst.conns[inst.cell.output_pin])
    return nets


def _net_capacitance(
    module: Module, net: str, wire_caps: dict[str, float]
) -> float:
    cap = wire_caps.get(net, 0.0)
    for ref in module.nets[net].loads:
        if isinstance(ref, Pin):
            cap += module.instances[ref.instance].cell.pin_capacitance(ref.pin)
    return cap


def measure_power(
    module: Module,
    library: Library,
    activity: dict[str, int],
    cycles: int,
    period: float,
    wire_caps: dict[str, float] | None = None,
    design_name: str | None = None,
) -> PowerReport:
    """Compute the group power report from simulation activity.

    ``activity`` maps net name -> toggle count over the measurement window
    of ``cycles`` cycles at ``period`` ps.
    """
    if cycles <= 0 or period <= 0:
        raise ValueError("need a positive measurement window")
    wire = wire_caps or {}
    duration = cycles * period  # ps
    v2 = library.voltage**2
    clock_nets = clock_nets_of(module)

    report = PowerReport(
        design=design_name or module.name, cycles=cycles, period=period
    )

    def group_for_instance(inst) -> PowerGroup:
        if is_clock_cell(inst):
            return report.clock
        if inst.is_sequential:
            return report.seq
        return report.comb

    # Net switching charged to the driving instance's group (sign-off
    # convention); clock nets always charge the clock group.
    for net_name, net in module.nets.items():
        toggles = activity.get(net_name, 0)
        if not toggles:
            continue
        energy = 0.5 * _net_capacitance(module, net_name, wire) * v2 * toggles
        if net_name in clock_nets:
            group = report.clock
        elif isinstance(net.driver, Pin):
            group = group_for_instance(module.instances[net.driver.instance])
        else:
            group = report.comb  # primary-input nets
        group.switching += energy / duration * _FJ_PER_PS_TO_MW

    for inst in module.instances.values():
        group = group_for_instance(inst)
        out_pins = inst.cell.output_pins
        out_toggles = 0
        if out_pins and out_pins[0] in inst.conns:
            out_toggles = activity.get(inst.conns[out_pins[0]], 0)
        internal = inst.cell.energy_per_toggle * out_toggles

        # Clocked internal energy: cycles actually delivered to the clock
        # pin (a gated register sees fewer).
        clocked = 0.0
        clock_pin = inst.cell.clock_pin
        if inst.cell.clock_energy and clock_pin and clock_pin in inst.conns:
            pin_toggles = activity.get(inst.conns[clock_pin], 0)
            clocked = inst.cell.clock_energy * (pin_toggles / 2.0)

        group.internal += internal / duration * _FJ_PER_PS_TO_MW
        # Register/ICG clocked power belongs to the clock network group.
        report.clock.internal += clocked / duration * _FJ_PER_PS_TO_MW
        # leakage: nW -> mW
        group.leakage += inst.cell.leakage * 1e-6
    return report


def savings(base: PowerReport, improved: PowerReport) -> dict[str, float]:
    """Percent savings per group, paper Table II style."""
    result: dict[str, float] = {}
    for name in ("clock", "seq", "comb"):
        b = base.group(name).total
        i = improved.group(name).total
        result[name] = 100.0 * (b - i) / b if b > 0 else 0.0
    result["total"] = 100.0 * (base.total - improved.total) / base.total \
        if base.total > 0 else 0.0
    return result
