"""Cell model shared by the whole tool chain.

A :class:`Cell` couples the *logical* behaviour of a gate (its ``op`` and pin
roles) with the *physical* characterization used by timing, power, and
place-and-route (area, pin capacitances, a linear delay model, and switching
energies).  A technology library (:mod:`repro.library.fdsoi28`) is a
collection of cells; the pre-mapping "generic" library uses the same class
with unit costs.

Units used across the project:

========  =======
quantity  unit
========  =======
time      ps
cap       fF
energy    fJ
area      um^2
leakage   nW
voltage   V
========  =======
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class CellKind(enum.Enum):
    """Broad class of a cell, used to route analysis decisions."""

    COMB = "comb"
    DFF = "dff"
    LATCH = "latch"
    ICG = "icg"
    TIE = "tie"


class PinDirection(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"


#: Combinational operations understood by the simulator and mappers.
#: Multi-input gates (AND/OR/NAND/NOR/XOR/XNOR) accept pins A, B, C, ...
COMB_OPS = frozenset(
    {"BUF", "INV", "AND", "OR", "NAND", "NOR", "XOR", "XNOR", "MUX2"}
)

#: Sequential / clocked operations.  ``DLATCH`` is transparent-high.
#: ICG flavours: ``ICG`` is the conventional cell of Fig. 3(c0) (internal
#: active-low latch + AND); ``ICG_M1`` is the modified p2 gate of Fig. 3(c1)
#: whose inverted clock is supplied externally on pin ``PB`` (tied to p3);
#: ``ICG_AND`` is the latch-free cell of Fig. 3(c2) produced by
#: modification M2.
SEQ_OPS = frozenset({"DFF", "DLATCH"})
ICG_OPS = frozenset({"ICG", "ICG_M1", "ICG_AND"})
TIE_OPS = frozenset({"TIE0", "TIE1"})


@dataclass(frozen=True)
class PinSpec:
    """Interface pin of a cell.

    ``capacitance`` is the input pin cap presented to the driving net;
    output pins carry 0.  ``is_clock`` marks pins toggled by a clock tree so
    their load is charged to the clock power group.
    """

    name: str
    direction: PinDirection
    capacitance: float = 0.0
    is_clock: bool = False


@dataclass(frozen=True)
class Cell:
    """A characterized standard cell.

    The delay model is linear: ``delay = intrinsic_delay + delay_per_ff *
    load_fF`` for every input-to-output arc.  ``energy_per_toggle`` is the
    internal energy dissipated per *output* transition; sequential cells
    additionally dissipate ``clock_energy`` per clock cycle (two clock
    edges) even when the output does not change.
    """

    name: str
    op: str
    pins: tuple[PinSpec, ...]
    area: float = 1.0
    intrinsic_delay: float = 10.0
    delay_per_ff: float = 5.0
    energy_per_toggle: float = 1.0
    clock_energy: float = 0.0
    leakage: float = 1.0
    drive: int = 1
    setup: float = 0.0
    hold: float = 0.0

    def __post_init__(self) -> None:
        if self.op not in COMB_OPS | SEQ_OPS | ICG_OPS | TIE_OPS:
            raise ValueError(f"unknown cell op {self.op!r} for cell {self.name!r}")
        names = [p.name for p in self.pins]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate pin names in cell {self.name!r}")
        # Pin roles are read on every netlist traversal, so derive them once.
        # Eagerly, not lazily: cells are pickled inside cached modules, and
        # a cache filled on first use would change a cell's pickled bytes.
        derive = object.__setattr__
        derive(self, "_is_sequential", self.op in SEQ_OPS)
        derive(self, "_input_pins", tuple(
            p.name for p in self.pins if p.direction is PinDirection.INPUT))
        derive(self, "_output_pins", tuple(
            p.name for p in self.pins if p.direction is PinDirection.OUTPUT))
        derive(self, "_pin_caps", {p.name: p.capacitance for p in self.pins})

    # -- pin role helpers ---------------------------------------------------

    @property
    def kind(self) -> CellKind:
        if self.op in SEQ_OPS:
            return CellKind.DFF if self.op == "DFF" else CellKind.LATCH
        if self.op in ICG_OPS:
            return CellKind.ICG
        if self.op in TIE_OPS:
            return CellKind.TIE
        return CellKind.COMB

    @property
    def is_sequential(self) -> bool:
        """True for state-holding cells (FF or latch, not ICGs)."""
        return self._is_sequential

    @property
    def input_pins(self) -> tuple[str, ...]:
        return self._input_pins

    @property
    def output_pins(self) -> tuple[str, ...]:
        return self._output_pins

    @property
    def output_pin(self) -> str:
        outs = self.output_pins
        if len(outs) != 1:
            raise ValueError(f"cell {self.name!r} has {len(outs)} outputs")
        return outs[0]

    @property
    def clock_pin(self) -> str | None:
        for pin in self.pins:
            if pin.is_clock:
                return pin.name
        return None

    @property
    def data_pins(self) -> tuple[str, ...]:
        """Non-clock input pins."""
        return tuple(
            p.name
            for p in self.pins
            if p.direction is PinDirection.INPUT and not p.is_clock
        )

    def pin(self, name: str) -> PinSpec:
        for pin in self.pins:
            if pin.name == name:
                return pin
        raise KeyError(f"cell {self.name!r} has no pin {name!r}")

    def pin_capacitance(self, name: str) -> float:
        try:
            return self._pin_caps[name]
        except KeyError:
            raise KeyError(f"cell {self.name!r} has no pin {name!r}") from None


def comb_pins(n_inputs: int, input_cap: float = 1.0) -> tuple[PinSpec, ...]:
    """Pin list for an n-input single-output combinational gate (A, B, ...)."""
    letters = "ABCDEFGHJK"
    if n_inputs > len(letters):
        raise ValueError(f"too many inputs: {n_inputs}")
    inputs = tuple(
        PinSpec(letters[i], PinDirection.INPUT, input_cap) for i in range(n_inputs)
    )
    return inputs + (PinSpec("Y", PinDirection.OUTPUT),)


def mux2_pins(input_cap: float = 1.0) -> tuple[PinSpec, ...]:
    """Pins of a 2:1 mux: Y = B if S else A."""
    return (
        PinSpec("A", PinDirection.INPUT, input_cap),
        PinSpec("B", PinDirection.INPUT, input_cap),
        PinSpec("S", PinDirection.INPUT, input_cap),
        PinSpec("Y", PinDirection.OUTPUT),
    )


def dff_pins(data_cap: float, clock_cap: float) -> tuple[PinSpec, ...]:
    return (
        PinSpec("D", PinDirection.INPUT, data_cap),
        PinSpec("CK", PinDirection.INPUT, clock_cap, is_clock=True),
        PinSpec("Q", PinDirection.OUTPUT),
    )


def latch_pins(data_cap: float, clock_cap: float) -> tuple[PinSpec, ...]:
    """Transparent-high latch: Q follows D while G is high."""
    return (
        PinSpec("D", PinDirection.INPUT, data_cap),
        PinSpec("G", PinDirection.INPUT, clock_cap, is_clock=True),
        PinSpec("Q", PinDirection.OUTPUT),
    )


def icg_pins(enable_cap: float, clock_cap: float, with_pb: bool = False) -> tuple[PinSpec, ...]:
    """Pins of an integrated clock gating cell: GCK = gated CK.

    ``with_pb`` adds the external inverted-clock pin of the M1 cell
    (Fig. 3(c1)), which the 3-phase flow ties to phase p3.
    """
    pins = [
        PinSpec("CK", PinDirection.INPUT, clock_cap, is_clock=True),
        PinSpec("EN", PinDirection.INPUT, enable_cap),
    ]
    if with_pb:
        pins.append(PinSpec("PB", PinDirection.INPUT, clock_cap, is_clock=True))
    pins.append(PinSpec("GCK", PinDirection.OUTPUT))
    return tuple(pins)


def tie_pins() -> tuple[PinSpec, ...]:
    return (PinSpec("Y", PinDirection.OUTPUT),)


@dataclass
class Library:
    """A named collection of cells, indexed by cell name and by op.

    ``cells_for_op`` returns drive-strength alternatives sorted by drive so
    the mapper can pick by load.
    """

    name: str
    cells: dict[str, Cell] = field(default_factory=dict)
    #: nominal supply voltage, used by the power model (P = a C V^2 f).
    voltage: float = 1.0
    #: capacitance of one um of routed wire, used by the P&R estimator.
    wire_cap_per_um: float = 0.2

    def add(self, cell: Cell) -> Cell:
        if cell.name in self.cells:
            raise ValueError(f"duplicate cell {cell.name!r} in library {self.name!r}")
        self.cells[cell.name] = cell
        return cell

    def __getitem__(self, name: str) -> Cell:
        return self.cells[name]

    def __contains__(self, name: str) -> bool:
        return name in self.cells

    def cells_for_op(self, op: str, n_inputs: int | None = None) -> list[Cell]:
        """All cells implementing ``op`` (optionally with ``n_inputs`` data
        inputs), weakest drive first."""
        found = [
            c
            for c in self.cells.values()
            if c.op == op
            and (n_inputs is None or len(c.data_pins) == n_inputs)
        ]
        return sorted(found, key=lambda c: c.drive)

    def cell_for_op(self, op: str, n_inputs: int | None = None, drive: int = 1) -> Cell:
        """The cell implementing ``op`` at ``drive``, or the closest drive."""
        options = self.cells_for_op(op, n_inputs)
        if not options:
            raise KeyError(
                f"library {self.name!r} has no cell for op {op!r}"
                + (f" with {n_inputs} inputs" if n_inputs is not None else "")
            )
        best = min(options, key=lambda c: abs(c.drive - drive))
        return best
