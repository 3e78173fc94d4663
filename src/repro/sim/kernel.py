"""Compiled integer-indexed event kernel for gate-level simulation.

The public :class:`~repro.sim.simulator.Simulator` front-end builds this
kernel from the shared :class:`~repro.sim.lower.Lowering` of a
:class:`~repro.netlist.core.Module` + :class:`~repro.convert.clocks.ClockSpec`
(net interning, subscriber lists, capture groups, clock schedule).  What
this engine adds: scalar values, pending-schedule targets and toggle
counters in flat lists indexed by net id; one- and two-input
combinational cells lowered to dense three-valued truth tables; a byte
dirty flag per capture-group member; and the event loop, which performs
zero dict lookups and zero attribute chasing per event.

The kernel is bit-for-bit equivalent to the string-keyed reference engine
(:mod:`repro.sim.reference`): identical event ordering (the monotonically
increasing sequence numbers are assigned by the same push order), identical
value-change coalescing, identical toggle counts.  The differential tests in
``tests/sim/test_kernel_differential.py`` enforce this on randomized
circuits across all three design styles.

Conventions shared with the reference engine (see its module docstring for
the rationale): transport delays come from
:func:`~repro.sim.lower.cell_delay`, with an ideal (zero-delay) clock
network exactly as STA assumes.
"""

from __future__ import annotations

import heapq
from time import perf_counter

from repro import obs
from repro.netlist.core import Module
from repro.sim.logic import EVAL, X
from repro.sim.lower import (
    GATE,
    ICG_CK,
    ICG_EN,
    ICG_PB,
    LATCH_D,
    MARK,
    MUX2,
    RISE,
    Lowering,
    SimulationError,
    _unknown_net_message,
    event_limit_error,
    non_rising,
)
from repro.convert.clocks import ClockSpec

# Combinational action codes of this engine (the shared codes of
# repro.sim.lower are all >= 16).  All one- and two-input cells collapse
# into two table-lookup codes (semantically identical to
# repro.sim.logic.EVAL -- the tables are built from it -- minus the call,
# argument-list, and branching overhead); wider cells of the standard
# families keep inlined short-circuiting loops; any other op takes the
# shared generic eval-function fallback.
_LUT2 = 0  # 2-input comb: truth table indexed by values[a]*3 + values[b]
_LUT1 = 1  # 1-input comb (INV/BUF): truth table indexed by values[a]
_NAND = 2
_NOR = 3
_AND = 4
_OR = 5
_XOR = 6
_XNOR = 7

#: comb op -> N-input (3+) loop code; 1- and 2-input cells of these
#: families use the table codes instead.
_OP_CODES = {
    "NAND": _NAND, "NOR": _NOR, "AND": _AND, "OR": _OR,
    "XOR": _XOR, "XNOR": _XNOR,
}

#: op -> dense three-valued truth tables, generated from the reference
#: eval functions so the semantics cannot drift.
_TABLE1 = {
    op: tuple(EVAL[op]([a]) for a in (0, 1, 2)) for op in ("INV", "BUF")
}
_TABLE2 = {
    op: tuple(EVAL[op]([a, b]) for a in (0, 1, 2) for b in (0, 1, 2))
    for op in _OP_CODES
}


def _comb_entry(op: str, in_ids: tuple[int, ...], out: int, delay: float):
    """This engine's subscriber entry for a combinational cell, or None
    for the shared generic fallback."""
    if op in _TABLE1:
        return (_LUT1, in_ids[0], out, delay, _TABLE1[op])
    code = _OP_CODES.get(op)
    if code is None:
        return None
    if len(in_ids) == 2:
        return (_LUT2, in_ids[0], in_ids[1], out, delay, _TABLE2[op])
    return (code, in_ids, out, delay)


class CompiledKernel:
    """Dense integer-indexed simulation engine (compiled from a Module)."""

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

        low = Lowering(module, clocks, delay_model, _comb_entry,
                       lambda n: bytearray(b"\x01" * n))
        self._net_names = low.net_names
        self._net_id = low.net_id
        self._x_slot = low.x_slot
        self._loads = low.loads
        # Non-rising events can never fire a RISE capture, so the event
        # loop scans a pre-filtered list instead of skipping entry by entry
        # -- a falling clock edge no longer walks the whole register fanout.
        self._loads_nonrise = non_rising(low.loads)
        self._rise_group = low.rise_group
        self._clock = low.clock
        self._icg_state: list[int] = [X] * low.n_icg
        self._values = [X] * (low.x_slot + 1)
        self._toggles = [0] * (low.x_slot + 1)
        # Calendar queue: pending events live in per-time FIFO buckets; a
        # small heap of the distinct bucket times yields the next time.
        # Within one time, FIFO order IS schedule order, which reproduces
        # the reference engine's (time, sequence-number) heap order without
        # paying a heap sift per event.
        self._buckets: dict[float, list[tuple[int, int]]] = {}
        self._times: list[float] = []
        self._watchers: list[tuple[set[int], list]] = []

        values = self._values
        for net, value in low.initial:
            values[net] = value
        # pending[n] is the last value scheduled for net n, or the current
        # value if nothing is in flight -- exactly the reference engine's
        # "last-scheduled-or-current" coalescing test, collapsed into one
        # array read.  (After an event pops, values[n] == pending[n], so the
        # invariant self-maintains without any reset on pop.)
        self._pending = list(values)
        # Evaluate all combinational cells once so constants propagate.
        for op, in_ids, out in low.sweep:
            self._push(0.0, out, EVAL[op]([values[i] for i in in_ids]))
        self.compile_seconds = perf_counter() - t_compile
        obs.add("sim.compiles")

    # -- engine protocol (consumed by Simulator) -----------------------------

    def net_value(self, net: str) -> int:
        return self._values[self._net_id[net]]

    def schedule(self, net: str, value: int, time: float) -> None:
        """Schedule a raw net change (raises KeyError on unknown nets)."""
        self._push(time, self._net_id[net], value)

    def toggles_dict(self) -> dict[str, int]:
        toggles = self._toggles
        return {name: toggles[i] for i, name in enumerate(self._net_names)}

    def reset_activity(self) -> None:
        self._toggles = [0] * len(self._toggles)

    def watch(self, nets: list[str]) -> list[tuple[float, str, int]]:
        """Record ``(time, net, value)`` changes on ``nets``; returns the sink."""
        ids = set()
        for n in nets:
            i = self._net_id.get(n)
            if i is None:
                raise SimulationError(_unknown_net_message(n, self._net_id))
            ids.add(i)
        sink: list[tuple[float, str, int]] = []
        self._watchers.append((ids, sink))
        return sink

    # -- event loop ----------------------------------------------------------

    def run_until(self, t_end: float) -> None:
        """Advance simulation time to ``t_end`` (inclusive of events at it)."""
        self._extend_clocks(t_end)
        t_run = perf_counter()
        buckets = self._buckets
        bucket_of = buckets.get
        times = self._times
        values = self._values
        toggles = self._toggles
        pending = self._pending
        loads = self._loads
        loads_nonrise = self._loads_nonrise
        rise_group = self._rise_group
        counting = self.count_activity
        watchers = self._watchers or None
        names = self._net_names
        icg_state = self._icg_state
        x_slot = self._x_slot
        heappop = heapq.heappop
        heappush = heapq.heappush
        events = self.events_processed
        limit = self.event_limit
        while times and times[0] <= t_end:
            time = times[0]
            bucket = buckets[time]
            # The bucket may grow while it drains (zero-delay fanout at the
            # same instant appends to it), so re-check len each iteration.
            idx = 0
            while idx < len(bucket):
                net, value = bucket[idx]
                idx += 1
                events += 1
                if events > limit:
                    del bucket[:idx]
                    obs.add("sim.events", events - self.events_processed)
                    self.events_processed = events
                    self.now = time
                    self.run_seconds += perf_counter() - t_run
                    raise event_limit_error(limit, time)
                old = values[net]
                if old == value:
                    continue
                values[net] = value
                if counting and old != X:
                    toggles[net] += 1
                if watchers is not None:
                    for watched, sink in watchers:
                        if net in watched:
                            sink.append((time, names[net], value))
                if old == 0 and value == 1:  # rising
                    group = rise_group[net]
                    if group is not None:  # capture group: dirty regs only
                        cap, flags, dirty = group
                        if dirty:
                            if len(dirty) > 1:
                                dirty.sort()
                            for pos in dirty:
                                flags[pos] = 0
                                data, out, delay = cap[pos]
                                new = values[data]
                                if pending[out] != new:
                                    pending[out] = new
                                    when = time + delay
                                    b = bucket_of(when)
                                    if b is None:
                                        buckets[when] = [(out, new)]
                                        heappush(times, when)
                                    else:
                                        b.append((out, new))
                            del dirty[:]
                        continue
                    entries = loads[net]
                else:
                    entries = loads_nonrise[net]
                for entry in entries:
                    # Every branch either computes (new, out, delay) and falls
                    # through to the shared coalesce-and-push tail, or continues.
                    code = entry[0]
                    if code == _LUT2:
                        _, a, b, out, delay, lut = entry
                        new = lut[values[a] * 3 + values[b]]
                    elif code == RISE:
                        # only reachable via the full list, i.e. on rising edges
                        _, data, out, delay = entry
                        new = values[data]
                    elif code == _LUT1:
                        _, a, out, delay, lut = entry
                        new = lut[values[a]]
                    elif code == MARK:
                        _, flags, dirty, pos = entry
                        if not flags[pos]:
                            flags[pos] = 1
                            dirty.append(pos)
                        continue
                    elif code == MUX2:
                        _, a, b, s, out, delay = entry
                        sv = values[s]
                        if sv == 0:
                            new = values[a]
                        elif sv == 1:
                            new = values[b]
                        else:
                            av = values[a]
                            new = av if av == values[b] and av != 2 else 2
                    elif code < GATE:  # N-input (3+) short-circuiting loops
                        if code == _NAND:
                            _, in_ids, out, delay = entry
                            new = 1
                            for i in in_ids:
                                v = values[i]
                                if v == 0:
                                    new = 0
                                    break
                                if v == 2:
                                    new = 2
                            new = 2 if new == 2 else 1 - new
                        elif code == _NOR:
                            _, in_ids, out, delay = entry
                            new = 0
                            for i in in_ids:
                                v = values[i]
                                if v == 1:
                                    new = 1
                                    break
                                if v == 2:
                                    new = 2
                            new = 2 if new == 2 else 1 - new
                        elif code == _AND:
                            _, in_ids, out, delay = entry
                            new = 1
                            for i in in_ids:
                                v = values[i]
                                if v == 0:
                                    new = 0
                                    break
                                if v == 2:
                                    new = 2
                        elif code == _OR:
                            _, in_ids, out, delay = entry
                            new = 0
                            for i in in_ids:
                                v = values[i]
                                if v == 1:
                                    new = 1
                                    break
                                if v == 2:
                                    new = 2
                        elif code == _XOR:
                            _, in_ids, out, delay = entry
                            new = 0
                            for i in in_ids:
                                v = values[i]
                                if v == 2:
                                    new = 2
                                    break
                                new ^= v
                        else:  # _XNOR
                            _, in_ids, out, delay = entry
                            new = 0
                            for i in in_ids:
                                v = values[i]
                                if v == 2:
                                    new = 2
                                    break
                                new ^= v
                            new = 2 if new == 2 else 1 - new
                    elif code == GATE:
                        _, func, in_ids, out, delay = entry
                        new = func([values[i] for i in in_ids])
                    elif code == LATCH_D:
                        _, ck, data, out, delay = entry
                        if values[ck] != 1:
                            continue
                        new = values[data]
                    elif code == ICG_CK:
                        _, icg_idx, en, out = entry
                        if value == 0:
                            icg_state[icg_idx] = values[en]
                        if out == x_slot:
                            continue
                        enable = icg_state[icg_idx]
                        if value == 0:
                            new = 0
                        elif value == 2 or enable == 2:
                            new = 2
                        else:
                            new = 1 if enable == 1 else 0
                        delay = 0.0
                    elif code == ICG_EN:
                        _, icg_idx, trans_id, trans_val, ck, out = entry
                        if values[trans_id] != trans_val:
                            continue
                        icg_state[icg_idx] = value
                        if out == x_slot:
                            continue
                        cv = values[ck]
                        if cv == 0:
                            new = 0
                        elif cv == 2 or value == 2:
                            new = 2
                        else:
                            new = 1 if value == 1 else 0
                        delay = 0.0
                    elif code == ICG_PB:
                        if value != 1:
                            continue
                        _, icg_idx, en, ck, out = entry
                        enable = values[en]
                        icg_state[icg_idx] = enable
                        if out == x_slot:
                            continue
                        cv = values[ck]
                        if cv == 0:
                            new = 0
                        elif cv == 2 or enable == 2:
                            new = 2
                        else:
                            new = 1 if enable == 1 else 0
                        delay = 0.0
                    else:  # ICG_AND
                        _, en, ck, out = entry
                        if out == x_slot:
                            continue
                        cv = values[ck]
                        enable = values[en]
                        if cv == 0:
                            new = 0
                        elif cv == 2 or enable == 2:
                            new = 2
                        else:
                            new = 1 if enable == 1 else 0
                        delay = 0.0
                    if pending[out] != new:
                        pending[out] = new
                        when = time + delay
                        b = bucket_of(when)
                        if b is None:
                            buckets[when] = [(out, new)]
                            heappush(times, when)
                        else:
                            b.append((out, new))
            heappop(times)
            del buckets[time]
        # One counter update per run_until call (never per event): the
        # disabled-tracer path must stay within the <2% throughput bound
        # enforced by ``benchmarks/bench_sim.py --obs``.
        obs.add("sim.events", events - self.events_processed)
        self.events_processed = events
        self.now = t_end
        self.run_seconds += perf_counter() - t_run

    # -- internals -----------------------------------------------------------

    def _push(self, time: float, net: int, value: int) -> None:
        if self._pending[net] == value:
            return
        self._pending[net] = value
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(net, value)]
            heapq.heappush(self._times, time)
        else:
            bucket.append((net, value))

    def _extend_clocks(self, t_end: float) -> None:
        if self._clock is not None:
            for time, net, value in self._clock.edges(t_end, 1):
                self._push(time, net, value)
