"""The netlist lowering both compiled simulation engines are built from.

The scalar kernel (:mod:`repro.sim.kernel`) and the word-packed batch
engine (:mod:`repro.sim.batch`) compile a
:class:`~repro.netlist.core.Module` + :class:`~repro.convert.clocks.ClockSpec`
through one :class:`Lowering`:

* every net is interned to a dense integer id, plus one extra always-``X``
  slot (``x_slot``) standing in for unconnected pins;
* every instance is lowered once into its gate, register or ICG entry,
  with its transport delay computed once;
* the per-net subscriber lists are flattened into ``(action_code,
  *payload)`` tuples whose payloads carry pre-resolved net ids.  Entries
  follow the reference engine's subscriber order (instance order, then
  pin order), which keeps push sequence numbers -- and therefore
  same-time event pop order -- identical across all three engines;
* capture groups (see :meth:`Lowering._capture_groups`), the t = 0 net
  values, the gates of the t = 0 constant sweep and the clock schedule.

What each engine adds is only what really differs: its value
representation, the action codes of its combinational cells (the
``comb_entry`` callback), its dirty-flag type (``new_flags``), its push
and its event loop.  The reference engine (:mod:`repro.sim.reference`)
does not use this module beyond :func:`cell_delay` and the shared
errors, so it stays an independent oracle.
"""

from __future__ import annotations

from repro.library.cell import CellKind
from repro.netlist.core import Module
from repro.netlist.traversal import is_clock_cell
from repro.sim.logic import EVAL
from repro.convert.clocks import ClockSpec
from repro.timing.delay import output_load

# Action codes whose entry layout both engines share.  Each engine numbers
# its own combinational codes below 16, so its range tests over those
# never catch one of these.
MUX2 = 16     # (MUX2, a, b, s, out, delay)
GATE = 17     # (GATE, eval_func, in_ids, out, delay): generic fallback
RISE = 18     # (RISE, data, out, delay): DFF CK / latch G, capture on 0 -> 1
MARK = 19     # (MARK, flags, dirty, pos): D changed, flag the register dirty
LATCH_D = 20  # (LATCH_D, g, data, out, delay): D change of a latch
ICG_CK = 21   # (ICG_CK, icg, en, out)
ICG_EN = 22   # (ICG_EN, icg, trans_id, trans_val, ck, out)
ICG_PB = 23   # (ICG_PB, icg, en, ck, out)
ICG_AND = 24  # (ICG_AND, en, ck, out): latch-free M2 cell

_NO_PINS: dict[str, tuple] = {}


class SimulationError(RuntimeError):
    pass


def event_limit_error(limit: int, time: float) -> SimulationError:
    return SimulationError(
        f"event limit {limit} exceeded at t={time}; the design is likely "
        "oscillating (e.g. racing through simultaneously transparent "
        "latches -- run hold fixing)"
    )


def _unknown_net_message(name: str, known) -> str:
    """Diagnostic for an unknown net name, suggesting the nearest match
    (same convention as the Simulator's ``set_input``/``port_value``)."""
    import difflib

    close = difflib.get_close_matches(name, known, n=1)
    hint = f"; did you mean {close[0]!r}?" if close else ""
    return f"cannot watch {name!r}: not a net of the module{hint}"


def cell_delay(module: Module, inst, delay_model: str) -> float:
    """Transport delay of ``inst`` under ``delay_model``.

    Shared by every simulation engine so all compute the identical
    floats; the load is STA's :func:`~repro.timing.delay.output_load`
    without wire capacitance.  Clock-distribution cells (buffers, ICGs)
    propagate with zero delay, modelling an ideal (balanced) clock
    network exactly as STA assumes.
    """
    if is_clock_cell(inst):
        return 0.0
    if delay_model == "unit":
        return 1.0
    load = output_load(module, inst)
    return max(1.0, inst.cell.intrinsic_delay + inst.cell.delay_per_ff * load)


class ClockSchedule:
    """Edges of the clock phases a module has, generated a cycle at a time."""

    def __init__(self, period: float, phases: list[tuple]):
        self.period = period
        #: ``(net, rise, fall, skip_first)`` per phase present in the module.
        self.phases = phases
        self.horizon = 0.0

    def edges(self, t_end: float, high):
        """Yield ``(time, net, value)`` in push order for every cycle that
        starts at or before ``t_end`` and was not generated before;
        ``high`` is the engine's encoding of a 1."""
        period = self.period
        while self.horizon <= t_end:
            cycle = int(self.horizon / period + 0.5)
            base = cycle * period
            for net, rise, fall, skip_first in self.phases:
                if skip_first and cycle == 0:
                    continue
                yield base + rise, net, high
                yield base + fall, net, 0
            self.horizon = base + period


class Lowering:
    """``module`` under ``clocks`` lowered to integer-indexed tables.

    ``comb_entry(op, in_ids, out, delay)`` returns the engine's entry for
    a combinational cell other than MUX2, or ``None`` for the generic
    :data:`GATE` fallback.  ``new_flags(n)`` returns the dirty flags of an
    ``n``-register capture group, all set.
    """

    def __init__(self, module: Module, clocks: ClockSpec | None,
                 delay_model: str, comb_entry, new_flags):
        names = list(module.nets)
        nid = {name: i for i, name in enumerate(names)}
        x_slot = len(names)
        self.net_names = names
        self.net_id = nid
        self.x_slot = x_slot
        #: ``(net, value)`` pairs to apply in order before t = 0.
        self.initial: list[tuple[int, int]] = []
        #: ``(op, in_ids, out)`` of every driving gate, for the t = 0 sweep
        #: that propagates constants.
        self.sweep: list[tuple[str, tuple[int, ...], int]] = []
        #: number of ICGs with an internal enable latch (ids 0..n_icg-1).
        self.n_icg = 0

        self.clock = None
        if clocks is not None:
            phases = []
            for phase in clocks.phases:
                i = nid.get(phase.name)
                if i is not None:
                    phases.append((i, phase.rise, phase.fall,
                                   phase.skip_first))
                    self.initial.append(
                        (i, 1 if clocks.is_high(phase.name, 0.0) else 0))
            self.clock = ClockSchedule(clocks.period, phases)

        # loads[net] is the net's subscriber list.  Entries whose action
        # could never push (a gate or register without an output net) are
        # dropped, which cannot change behaviour.
        self.loads: list[list[tuple]] = [[] for _ in range(x_slot + 1)]
        for inst in module.instances.values():
            self._lower_instance(module, inst, delay_model, comb_entry)
        self.rise_group = self._capture_groups(new_flags)

    def _net(self, name: str) -> int:
        return self.net_id[name] if name else self.x_slot

    def _lower_instance(self, module, inst, delay_model, comb_entry) -> None:
        """Append ``inst``'s entry to the subscriber list of each net on
        one of its input pins: ``by_pin[pin]``, else ``other``."""
        net = self._net
        cell = inst.cell
        conns = inst.conns
        op = cell.op
        kind = cell.kind
        out_pins = cell.output_pins
        out = net(conns.get(out_pins[0], "")) if out_pins else self.x_slot
        by_pin = _NO_PINS
        if kind is CellKind.COMB or kind is CellKind.TIE:
            if out == self.x_slot:
                return
            in_ids = tuple(net(conns.get(p, "")) for p in cell.input_pins)
            self.sweep.append((op, in_ids, out))
            if kind is CellKind.TIE:
                self.initial.append((out, 1 if op == "TIE1" else 0))
                return
            delay = cell_delay(module, inst, delay_model)
            if op == "MUX2":
                other = (MUX2, *in_ids, out, delay)
            else:
                other = (comb_entry(op, in_ids, out, delay)
                         or (GATE, EVAL[op], in_ids, out, delay))
        elif cell.is_sequential:
            if out == self.x_slot:
                return
            init = inst.attrs.get("init")
            if init is not None:
                self.initial.append((out, int(init)))
            data = net(conns.get("D", ""))
            delay = cell_delay(module, inst, delay_model)
            rise = (RISE, data, out, delay)
            if op == "DFF":
                by_pin, other = {"CK": rise}, None
            else:  # DLATCH
                g = net(conns.get(cell.clock_pin, ""))
                by_pin = {"G": rise}
                other = (LATCH_D, g, data, out, delay)
        else:  # CellKind.ICG
            en = net(conns.get("EN", ""))
            ck = net(conns.get("CK", ""))
            if op == "ICG_AND":
                other = (ICG_AND, en, ck, out)
            else:
                icg = self.n_icg
                self.n_icg += 1
                # Transparency test of the internal enable latch,
                # pre-resolved to "value of trans_id == trans_val": M1 is
                # transparent while its external inverted clock PB is
                # high; the conventional cell while CK is low.  An M1
                # without PB is never transparent.
                if op == "ICG_M1":
                    pb = conns.get("PB")
                    trans = (net(pb), 1) if pb is not None \
                        else (self.x_slot, -2)
                else:
                    trans = (ck, 0)
                by_pin = {"CK": (ICG_CK, icg, en, out),
                          "EN": (ICG_EN, icg, *trans, ck, out)}
                other = (ICG_PB, icg, en, ck, out)
        loads = self.loads
        inputs = cell.input_pins
        for pin, name in conns.items():
            if pin in inputs:
                entry = by_pin.get(pin, other)
                if entry is not None:
                    loads[net(name)].append(entry)

    def _capture_groups(self, new_flags) -> list[tuple | None]:
        """Per net, its capture group or ``None``.

        A net whose every subscriber is a register capture (the typical
        dedicated clock/phase net) becomes a *capture group*
        ``(cap, flags, dirty)``: its rising edge scans only registers whose
        D input changed since their last capture, instead of walking the
        whole fanout.  Each member register gets a :data:`MARK` subscriber
        on its D net that sets its flag; the rising edge drains the dirty
        list in subscriber-position order, so the set and order of pushes
        is identical to a full scan (an unchanged D can never repush: the
        pending value already equals it).
        """
        loads = self.loads
        x_slot = self.x_slot
        groups: dict[int, tuple[list[tuple], object, list[int]]] = {}
        for i, lst in enumerate(loads):
            if lst and all(e[0] == RISE for e in lst):
                cap = [e[1:] for e in lst]  # (data, out, delay)
                groups[i] = (cap, new_flags(len(cap)), list(range(len(cap))))
        marks = [
            (data, gnet, pos)
            for gnet, (cap, _, _) in groups.items()
            for pos, (data, _out, _delay) in enumerate(cap)
            if data != x_slot
        ]
        # A mark landing on a capture-group net would never be scanned on
        # that net's rising edges (the tight path skips the entry list), so
        # demote such nets back to generic scanning.
        for demoted in {data for data, _, _ in marks if data in groups}:
            del groups[demoted]
        for data, gnet, pos in marks:
            if gnet in groups:
                _cap, flags, dirty = groups[gnet]
                loads[data].append((MARK, flags, dirty, pos))
        return [groups.get(i) for i in range(x_slot + 1)]


def non_rising(loads: list[list[tuple]]) -> list[list[tuple]]:
    """``loads`` without :data:`RISE` entries, for events that are not a
    rising edge.  Relative order is kept, so push order is too; a list
    without a RISE entry is shared, not copied.  Pass the finished
    :attr:`Lowering.loads`, so the MARK entries of D nets are kept."""
    return [
        lst if all(e[0] != RISE for e in lst)
        else [e for e in lst if e[0] != RISE]
        for lst in loads
    ]
