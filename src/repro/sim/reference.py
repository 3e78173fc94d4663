"""Reference (pre-compile) simulation engine, string-keyed throughout.

This is the original event-driven engine the compiled kernel
(:mod:`repro.sim.kernel`) was lowered from: connectivity is compiled into
per-net lists of ``(action, instance-name)`` tuples, but the hot loop still
chases name-keyed dicts for values, delays, eval functions, and register
pins.  It is kept for two purposes:

* the **differential oracle** -- ``tests/sim/test_kernel_differential.py``
  checks the compiled kernel bit-for-bit (samples, toggle counts, event
  counts) against this engine on randomized circuits of all three styles;
* the **throughput baseline** -- ``benchmarks/bench_sim.py`` measures the
  compiled kernel's events/second speedup over this engine.

Select it through the public front-end with
``Simulator(module, clocks, engine="reference")``.  Semantics (latch/FF/ICG
behaviour, ideal clock network, value-change coalescing, toggle counting)
are documented in :mod:`repro.sim.simulator` and must stay identical here.
"""

from __future__ import annotations

import heapq
from itertools import count
from time import perf_counter

from repro.library.cell import CellKind, PinDirection
from repro.netlist.core import Module
from repro.sim.lower import SimulationError, cell_delay
from repro.sim.logic import EVAL, X
from repro.convert.clocks import ClockSpec

# Action codes compiled per (instance, input-pin).
_GATE = 0
_DFF_CK = 1
_LATCH_G = 2
_LATCH_D = 3
_ICG_CK = 4
_ICG_EN = 5
_ICG_PB = 6
_ICG_AND = 7


class ReferenceEngine:
    """The original string-keyed event loop (see module docstring)."""

    def __init__(
        self,
        module: Module,
        clocks: ClockSpec | None = None,
        delay_model: str = "cell",
        count_activity: bool = True,
        event_limit: int = 200_000_000,
    ):
        t_compile = perf_counter()
        self.module = module
        self.clocks = clocks
        self.count_activity = count_activity
        self.event_limit = event_limit
        self.events_processed = 0
        self.now = 0.0
        self.run_seconds = 0.0

        self._values: dict[str, int] = dict.fromkeys(module.nets, X)
        self._scheduled: dict[str, int] = {}
        self._queue: list[tuple[float, int, str, int]] = []
        self._seq = count()
        self.toggles: dict[str, int] = dict.fromkeys(module.nets, 0)
        self._watchers: list[tuple[set[str], list]] = []

        self._delay: dict[str, float] = {}
        self._out_net: dict[str, str] = {}
        self._eval = {}
        self._in_nets: dict[str, list[str]] = {}
        self._data_net: dict[str, str] = {}
        self._clock_net: dict[str, str] = {}
        self._en_net: dict[str, str] = {}
        self._latch_state: dict[str, int] = {}  # ICG internal enable latch

        for inst in module.instances.values():
            out_pins = inst.cell.output_pins
            if out_pins:
                self._out_net[inst.name] = inst.conns.get(out_pins[0], "")
            self._delay[inst.name] = cell_delay(module, inst, delay_model)
            kind = inst.cell.kind
            if kind is CellKind.COMB or kind is CellKind.TIE:
                self._eval[inst.name] = EVAL[inst.cell.op]
                self._in_nets[inst.name] = [
                    inst.conns.get(p, "") for p in inst.cell.input_pins
                ]
            elif inst.is_sequential:
                self._data_net[inst.name] = inst.conns.get("D", "")
                clock_pin = inst.cell.clock_pin
                self._clock_net[inst.name] = inst.conns.get(clock_pin, "")
            elif kind is CellKind.ICG:
                self._en_net[inst.name] = inst.conns.get("EN", "")
                self._clock_net[inst.name] = inst.conns.get("CK", "")
                if inst.cell.op != "ICG_AND":
                    self._latch_state[inst.name] = X

        # Compile per-net subscriber lists: (action code, instance name).
        self._loads: dict[str, list[tuple[int, str]]] = {
            net: [] for net in module.nets
        }
        for inst in module.instances.values():
            op = inst.cell.op
            for pin_name, net in inst.conns.items():
                if inst.cell.pin(pin_name).direction is not PinDirection.INPUT:
                    continue
                action = None
                if inst.name in self._eval:
                    action = _GATE
                elif op == "DFF":
                    if pin_name == "CK":
                        action = _DFF_CK
                elif op == "DLATCH":
                    action = _LATCH_G if pin_name == "G" else _LATCH_D
                elif op == "ICG_AND":
                    action = _ICG_AND
                elif op in ("ICG", "ICG_M1"):
                    if pin_name == "CK":
                        action = _ICG_CK
                    elif pin_name == "EN":
                        action = _ICG_EN
                    else:
                        action = _ICG_PB
                if action is not None:
                    self._loads[net].append((action, inst.name))

        self._clock_horizon = 0.0
        if clocks is not None:
            for phase in clocks.phases:
                if phase.name in module.nets:
                    self._values[phase.name] = (
                        1 if clocks.is_high(phase.name, 0.0) else 0
                    )

        # Sequential/tie initialization at t = 0.
        for inst in module.instances.values():
            if inst.is_sequential:
                init = inst.attrs.get("init")
                if init is not None and self._out_net.get(inst.name):
                    self._values[self._out_net[inst.name]] = int(init)
            elif inst.cell.kind is CellKind.TIE:
                value = 1 if inst.cell.op == "TIE1" else 0
                self._values[self._out_net[inst.name]] = value
        # Evaluate all combinational cells once so constants propagate.
        for name in self._eval:
            self._schedule_gate(name, 0.0)
        self.compile_seconds = perf_counter() - t_compile

    # -- engine protocol (consumed by Simulator) -----------------------------

    def net_value(self, net: str) -> int:
        return self._values[net]

    def schedule(self, net: str, value: int, time: float) -> None:
        """Schedule a raw net change (raises KeyError on unknown nets)."""
        self._push(time, self.module.nets[net].name, value)

    def toggles_dict(self) -> dict[str, int]:
        return dict(self.toggles)

    def reset_activity(self) -> None:
        self.toggles = dict.fromkeys(self.toggles, 0)

    def watch(self, nets: list[str]) -> list[tuple[float, str, int]]:
        """Record ``(time, net, value)`` changes on ``nets``; returns the sink."""
        from repro.sim.lower import _unknown_net_message

        for n in nets:
            if n not in self.module.nets:
                raise SimulationError(
                    _unknown_net_message(n, self.module.nets))
        sink: list[tuple[float, str, int]] = []
        self._watchers.append((set(nets), sink))
        return sink

    # -- event loop ----------------------------------------------------------

    def run_until(self, t_end: float) -> None:
        """Advance simulation time to ``t_end`` (inclusive of events at it)."""
        self._extend_clocks(t_end)
        t_run = perf_counter()
        queue = self._queue
        values = self._values
        toggles = self.toggles
        counting = self.count_activity
        loads = self._loads
        watchers = self._watchers or None
        try:
            while queue and queue[0][0] <= t_end:
                time, _, net, value = heapq.heappop(queue)
                self.now = time
                self.events_processed += 1
                if self.events_processed > self.event_limit:
                    raise SimulationError(
                        f"event limit {self.event_limit} exceeded at t={time}; "
                        "the design is likely oscillating (e.g. racing through "
                        "simultaneously transparent latches -- run hold fixing)"
                    )
                old = values[net]
                if old == value:
                    continue
                values[net] = value
                if counting and old != X:
                    toggles[net] += 1
                if watchers is not None:
                    for watched, sink in watchers:
                        if net in watched:
                            sink.append((time, net, value))
                rising = old == 0 and value == 1
                for action, inst_name in loads[net]:
                    if action == _GATE:
                        self._schedule_gate(inst_name, self._delay[inst_name])
                    elif action == _DFF_CK:
                        if rising:
                            self._capture(inst_name)
                    elif action == _LATCH_G:
                        if rising:
                            self._capture(inst_name)
                    elif action == _LATCH_D:
                        if values[self._clock_net[inst_name]] == 1:
                            self._capture(inst_name)
                    elif action == _ICG_CK:
                        if value == 0:
                            self._latch_state[inst_name] = \
                                values[self._en_net[inst_name]]
                        self._update_icg_output(inst_name)
                    elif action == _ICG_EN:
                        if self._icg_transparent(inst_name):
                            self._latch_state[inst_name] = value
                            self._update_icg_output(inst_name)
                    elif action == _ICG_PB:
                        if value == 1:
                            self._latch_state[inst_name] = \
                                values[self._en_net[inst_name]]
                            self._update_icg_output(inst_name)
                    else:  # _ICG_AND
                        self._update_icg_output(inst_name)
            self.now = t_end
        finally:
            self.run_seconds += perf_counter() - t_run

    # -- internals ---------------------------------------------------------------

    def _push(self, time: float, net: str, value: int) -> None:
        if self._scheduled.get(net, self._values[net]) == value:
            return
        self._scheduled[net] = value
        heapq.heappush(self._queue, (time, next(self._seq), net, value))

    def _extend_clocks(self, t_end: float) -> None:
        if self.clocks is None:
            return
        period = self.clocks.period
        while self._clock_horizon <= t_end:
            cycle = int(self._clock_horizon / period + 0.5)
            base = cycle * period
            for phase in self.clocks.phases:
                if phase.name not in self.module.nets:
                    continue
                if phase.skip_first and cycle == 0:
                    continue
                self._push(base + phase.rise, phase.name, 1)
                self._push(base + phase.fall, phase.name, 0)
            self._clock_horizon = base + period

    def _icg_transparent(self, inst_name: str) -> bool:
        """Is the ICG's internal enable latch transparent right now?"""
        inst = self.module.instances[inst_name]
        if inst.cell.op == "ICG_M1":
            pb = inst.conns.get("PB", "")
            return bool(pb) and self._values[pb] == 1
        return self._values[self._clock_net[inst_name]] == 0

    def _capture(self, inst_name: str) -> None:
        value = self._values[self._data_net[inst_name]]
        out = self._out_net.get(inst_name)
        if out:
            self._push(self.now + self._delay[inst_name], out, value)

    def _update_icg_output(self, inst_name: str) -> None:
        ck = self._values[self._clock_net[inst_name]]
        if inst_name in self._latch_state:
            enable = self._latch_state[inst_name]
        else:
            enable = self._values[self._en_net[inst_name]]
        if ck == 0:
            gated = 0
        elif ck == X or enable == X:
            gated = X
        else:
            gated = 1 if enable == 1 else 0
        out = self._out_net.get(inst_name)
        if out:
            self._push(self.now + self._delay[inst_name], out, gated)

    def _schedule_gate(self, inst_name: str, delay: float) -> None:
        values = self._values
        inputs = [values[n] if n else X for n in self._in_nets[inst_name]]
        out = self._out_net.get(inst_name)
        if out:
            self._push(self.now + delay, out, self._eval[inst_name](inputs))
