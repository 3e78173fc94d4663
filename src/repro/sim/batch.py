"""Bit-parallel batch engine: up to 64 stimulus vectors per kernel pass.

The compiled kernel (:mod:`repro.sim.kernel`) simulates one stimulus
vector at a time; activity profiling for the power model and for DDCG
therefore pays the whole event loop once per Monte-Carlo sample.  This
engine packs ``lanes`` (<= 64) *independent* testbench runs into machine
words:

* every net holds two ints used as ``lanes``-wide bitmasks -- ``v`` (the
  value bit per lane) and ``x`` (the unknown bit per lane), canonical
  form ``v & x == 0``.  Lane ``i`` reads ``X`` if bit ``i`` of ``x`` is
  set, else bit ``i`` of ``v``;
* gate evaluation is whole-word bitwise AND/OR/XOR/NOT (with a fast path
  when no input carries an X lane), so one event pass evaluates a gate
  for every lane at once;
* per-lane toggle and event counters are **bit-sliced**: counter plane
  ``k`` holds bit ``k`` of every lane's count in one word, and
  ``int.bit_count()`` of the planes yields the cross-lane totals the
  lane-averaged activity profile needs without ever walking lanes.  The
  event loop itself only *logs* the masks (two list appends per event);
  the ripple-carry fold into the planes is deferred to the first
  activity read (or a size threshold), where one tight loop amortizes
  it across the whole run.

Bit-for-bit contract (enforced by ``tests/sim/test_batch_differential.py``
and the CI batched smoke): lane ``i`` of a batch run is *identical* --
sampled output streams, per-net toggle counts, per-lane event counts --
to a single-vector :class:`~repro.sim.kernel.CompiledKernel` run driven
with that lane's stimulus stream.  The mechanism:

* a push is coalesced at word level but records an **active-lane mask**
  (the lanes whose pending value actually changed); only those lanes
  would have pushed in their solo runs;
* a popped event is applied only on its mask, so an interleaved
  later-scheduled push for another lane cannot leak values across time;
* per-lane event counts accumulate the pop's mask (solo engines count a
  pop even when it turns out to be a no-op change, so the mask -- not
  the change set -- is what is counted);
* registers capture on the per-lane rising-edge mask, latches are
  transparent on the per-lane ``G == 1`` mask, and ICG enable-latch
  state is itself word-packed.

The netlist tables -- net ids, subscriber lists, capture groups, t = 0
values, clock schedule -- come from the lowering the solo kernel uses
(:class:`~repro.sim.lower.Lowering`); this engine adds its word codes
for combinational cells, a lane-mask dirty flag per capture-group
member, and the word-level event loop.

What stays single-lane: ``watch()``/VCD recording (waveforms are a
debugging path; use the compiled or reference engine) -- see
``docs/sim_kernel.md``.
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
    event_limit_error,
)
from repro.convert.clocks import ClockSpec

#: widest batch one machine word carries (CPython ints stay "medium"
#: sized up to 64 bits, so word ops are O(1) at or below this).
MAX_LANES = 64

# Combinational action codes of this engine (the shared codes of
# repro.sim.lower are all >= 16), ordered for the dispatch chain's range
# tests.  Two-input AND/OR/NAND/NOR and XOR/XNOR get dedicated codes with
# the operand net ids pre-unpacked into the entry tuple -- they are the
# bulk of every netlist here and skipping the inner input loop (and its
# iterator allocation) is worth ~15% of the event loop.
_AND2 = 0
_OR2 = 1
_NAND2 = 2
_NOR2 = 3
_XOR2 = 4
_XNOR2 = 5
_AND = 6
_NAND = 7
_OR = 8
_NOR = 9
_XOR = 10
_XNOR = 11
_NOT = 12
_BUF = 13

_OP_CODES = {
    "AND": _AND, "NAND": _NAND, "OR": _OR, "NOR": _NOR,
    "XOR": _XOR, "XNOR": _XNOR, "INV": _NOT, "BUF": _BUF,
}
_OP_CODES_2IN = {
    "AND": _AND2, "NAND": _NAND2, "OR": _OR2, "NOR": _NOR2,
    "XOR": _XOR2, "XNOR": _XNOR2,
}


def _comb_entry(op: str, in_ids: tuple[int, ...], out: int, delay: float):
    """This engine's subscriber entry for a combinational cell, or None
    for the shared generic fallback."""
    code = _OP_CODES.get(op)
    if code is None:
        return None
    if code == _NOT or code == _BUF:
        return (code, in_ids[0], out, delay)
    if len(in_ids) == 2 and op in _OP_CODES_2IN:
        return (_OP_CODES_2IN[op], in_ids[0], in_ids[1], out, delay)
    return (code, in_ids, out, delay)


def _plane_total(planes: list[int]) -> int:
    """Sum of all lane counters (popcount-weighted plane sum)."""
    return sum(p.bit_count() << k for k, p in enumerate(planes))


def _plane_lane(planes: list[int], lane: int) -> int:
    """One lane's counter value."""
    return sum(((p >> lane) & 1) << k for k, p in enumerate(planes))


class BatchKernel:
    """Word-packed multi-lane simulation engine (compiled from a Module).

    Exposes the same engine protocol the single-lane engines implement
    (``net_value``/``schedule``/``run_until``/``toggles_dict``/
    ``reset_activity`` plus the counters), extended with the lane-aware
    calls the batch testbench uses: ``schedule_lanes``, ``net_values``,
    ``lane_toggles``, ``lane_events``.  ``toggles_dict`` returns the
    **lane-averaged** activity (round-half-up), which is what the power
    model and DDCG consume; the per-lane exact counts are always
    recoverable from the planes.
    """

    def __init__(
        self,
        module: Module,
        clocks: ClockSpec | None = None,
        delay_model: str = "cell",
        count_activity: bool = True,
        event_limit: int = 200_000_000,
        lanes: int = MAX_LANES,
    ):
        if not 1 <= lanes <= MAX_LANES:
            raise ValueError(
                f"lanes must be in 1..{MAX_LANES}, got {lanes}")
        t_compile = perf_counter()
        self.module = module
        self.clocks = clocks
        self.count_activity = count_activity
        self.event_limit = event_limit
        self.lanes = lanes
        self.word_events = 0  # word-level pops actually executed
        self.now = 0.0
        self.run_seconds = 0.0

        full = (1 << lanes) - 1
        self._full = full

        # The dirty flag of a capture-group member is a lane mask: a
        # rising edge in lanes R scans only registers whose D changed in
        # some lane of R since that lane's last scan, and clears exactly
        # those bits.
        low = Lowering(module, clocks, delay_model, _comb_entry,
                       lambda n: [full] * n)
        n_nets = low.x_slot
        self._net_names = low.net_names
        self._net_id = low.net_id
        self._x_slot = low.x_slot
        self._loads = low.loads
        self._rise_group = low.rise_group
        self._clock = low.clock
        self._icg_v: list[int] = [0] * low.n_icg
        self._icg_x: list[int] = [full] * low.n_icg
        # canonical all-X start: v = 0, x = full
        self._vals_v = [0] * (n_nets + 1)
        self._vals_x = [full] * (n_nets + 1)
        self._toggle_planes: list[list[int]] = [[] for _ in range(n_nets + 1)]
        self._event_planes: list[int] = []
        # Unfolded counter logs: (net, mask) pairs for toggles, masks for
        # events, appended by the hot loop and folded into the planes on
        # demand (see _fold_toggles/_fold_events).
        self._tog_nets: list[int] = []
        self._tog_masks: list[int] = []
        self._ev_masks: list[int] = []
        self._buckets: dict[float, list[tuple[int, int, int, int]]] = {}
        self._times: list[float] = []

        for net, value in low.initial:
            self._vals_v[net] = full if value else 0
            self._vals_x[net] = 0
        self._pend_v = list(self._vals_v)
        self._pend_x = list(self._vals_x)
        # Evaluate all combinational cells once so constants propagate.
        # Every lane holds the same value before t = 0, so each cell is
        # evaluated on lane 0 and the result broadcast.
        vals_v = self._vals_v
        vals_x = self._vals_x
        for op, in_ids, out in low.sweep:
            r = EVAL[op]([X if vals_x[i] & 1 else vals_v[i] & 1
                          for i in in_ids])
            self._push(0.0, out, full if r == 1 else 0,
                       full if r == X else 0)
        self.compile_seconds = perf_counter() - t_compile
        obs.add("sim.compiles")

    # -- engine protocol -----------------------------------------------------

    def net_value(self, net: str, lane: int = 0) -> int:
        i = self._net_id[net]
        if (self._vals_x[i] >> lane) & 1:
            return X
        return (self._vals_v[i] >> lane) & 1

    def net_values(self, net: str) -> list[int]:
        """Per-lane values of ``net`` (0/1/X per lane)."""
        i = self._net_id[net]
        v, x = self._vals_v[i], self._vals_x[i]
        return [X if (x >> k) & 1 else (v >> k) & 1
                for k in range(self.lanes)]

    def schedule(self, net: str, value: int, time: float) -> None:
        """Broadcast a raw net change to every lane."""
        full = self._full
        if value == X:
            self._push(time, self._net_id[net], 0, full)
        else:
            self._push(time, self._net_id[net], full if value else 0, 0)

    def schedule_lanes(self, net: str, vw: int, xw: int, time: float) -> None:
        """Schedule per-lane values packed as (value word, X word)."""
        full = self._full
        self._push(time, self._net_id[net], vw & full & ~xw, xw & full)

    def toggles_dict(self) -> dict[str, int]:
        """Lane-averaged per-net toggle counts (round-half-up).

        With ``lanes == 1`` this is exact and identical to the solo
        engines, preserving the existing ``activity: dict[str, int]``
        contract; with more lanes it is the Monte-Carlo average the
        power model and DDCG consume.
        """
        self._fold_toggles()
        lanes = self.lanes
        planes = self._toggle_planes
        return {
            name: (2 * _plane_total(planes[i]) + lanes) // (2 * lanes)
            for i, name in enumerate(self._net_names)
        }

    def _check_lane(self, lane: int) -> None:
        if not 0 <= lane < self.lanes:
            raise SimulationError(
                f"lane {lane} is out of range: this batch runs lanes "
                f"0..{self.lanes - 1}")

    def lane_toggles(self, lane: int) -> dict[str, int]:
        """Exact per-net toggle counts of one lane."""
        self._check_lane(lane)
        self._fold_toggles()
        planes = self._toggle_planes
        return {name: _plane_lane(planes[i], lane)
                for i, name in enumerate(self._net_names)}

    @property
    def events_processed(self) -> int:
        """Total per-lane events (sum over lanes of each solo count)."""
        self._fold_events()
        return _plane_total(self._event_planes)

    def lane_events(self, lane: int) -> int:
        """Events lane ``lane`` would have processed running solo."""
        self._check_lane(lane)
        self._fold_events()
        return _plane_lane(self._event_planes, lane)

    def reset_activity(self) -> None:
        self._toggle_planes = [[] for _ in self._toggle_planes]
        self._tog_nets.clear()
        self._tog_masks.clear()

    def _fold_toggles(self) -> None:
        """Ripple the logged (net, mask) toggles into the bit-sliced
        planes (one tight loop; the hot path only appends)."""
        nets = self._tog_nets
        if not nets:
            return
        planes_list = self._toggle_planes
        for net, mask in zip(nets, self._tog_masks):
            planes = planes_list[net]
            i = 0
            n = len(planes)
            while mask:
                if i == n:
                    planes.append(mask)
                    break
                t = planes[i]
                planes[i] = t ^ mask
                mask = t & mask
                i += 1
        nets.clear()
        self._tog_masks.clear()

    def _fold_events(self) -> None:
        """Ripple the logged per-pop lane masks into the event planes."""
        buf = self._ev_masks
        if not buf:
            return
        planes = self._event_planes
        for mask in buf:
            i = 0
            n = len(planes)
            while mask:
                if i == n:
                    planes.append(mask)
                    break
                t = planes[i]
                planes[i] = t ^ mask
                mask = t & mask
                i += 1
        buf.clear()

    def watch(self, nets: list[str]) -> list[tuple[float, str, int]]:
        raise SimulationError(
            "the batch engine does not record per-net waveforms; "
            "use engine='compiled' or 'reference' (single-lane) for "
            "watch()/VCD recording"
        )

    # -- event loop ----------------------------------------------------------

    def run_until(self, t_end: float) -> None:
        """Advance simulation time to ``t_end`` (inclusive of events at it)."""
        self._extend_clocks(t_end)
        t_run = perf_counter()
        full = self._full
        buckets = self._buckets
        bucket_of = buckets.get
        times = self._times
        vals_v = self._vals_v
        vals_x = self._vals_x
        pend_v = self._pend_v
        pend_x = self._pend_x
        loads = self._loads
        rise_group = self._rise_group
        counting = self.count_activity
        tog_nets_append = self._tog_nets.append
        tog_masks_append = self._tog_masks.append
        ev_masks = self._ev_masks
        ev_append = ev_masks.append
        icg_v = self._icg_v
        icg_x = self._icg_x
        x_slot = self._x_slot
        heappop = heapq.heappop
        heappush = heapq.heappush
        word_events = self.word_events
        limit = self.event_limit
        while times and times[0] <= t_end:
            if len(ev_masks) > 1048576:
                # bound the unfolded logs on very long uninterrupted runs
                self._fold_events()
                self._fold_toggles()
            time = times[0]
            bucket = buckets[time]
            idx = 0
            while idx < len(bucket):
                net, vw, xw, emask = bucket[idx]
                idx += 1
                word_events += 1
                if word_events > limit:
                    del bucket[:idx]
                    self.word_events = word_events
                    self.now = time
                    self.run_seconds += perf_counter() - t_run
                    raise event_limit_error(limit, time)
                # Solo engines count a pop before the no-change test, so
                # the *scheduled* mask is what accrues per-lane events.
                ev_append(emask)
                ov = vals_v[net]
                ox = vals_x[net]
                dv = (ov ^ vw) & emask
                dx = (ox ^ xw) & emask
                change = dv | dx
                if not change:
                    continue
                nv = ov ^ dv
                vals_v[net] = nv
                vals_x[net] = ox ^ dx
                if counting:
                    toggled = change & ~ox
                    if toggled:
                        tog_nets_append(net)
                        tog_masks_append(toggled)
                # per-lane rising edges: known 0 -> known 1
                rise = (full ^ (ov | ox)) & nv
                if rise:
                    group = rise_group[net]
                    if group is not None:  # capture group: dirty regs only
                        cap, dmasks, dirty = group
                        if dirty:
                            if len(dirty) > 1:
                                dirty.sort()
                            survivors = []
                            for pos in dirty:
                                dm = dmasks[pos]
                                if dm & rise:
                                    rem = dm & ~rise
                                    dmasks[pos] = rem
                                    if rem:
                                        survivors.append(pos)
                                    data, out, delay = cap[pos]
                                    pv = pend_v[out]
                                    px = pend_x[out]
                                    cv = (pv & ~rise) | (vals_v[data] & rise)
                                    cx = (px & ~rise) | (vals_x[data] & rise)
                                    if pv != cv or px != cx:
                                        m2 = (pv ^ cv) | (px ^ cx)
                                        pend_v[out] = cv
                                        pend_x[out] = cx
                                        when = time + delay
                                        b = bucket_of(when)
                                        if b is None:
                                            buckets[when] = [
                                                (out, cv, cx, m2)]
                                            heappush(times, when)
                                        else:
                                            b.append((out, cv, cx, m2))
                                else:
                                    survivors.append(pos)
                            dirty[:] = survivors
                        continue
                for entry in loads[net]:
                    # Every branch computes (nv2, nx2, out, delay) over the
                    # affected lanes and falls through to the shared
                    # coalesce-and-push tail, or continues.
                    code = entry[0]
                    if code <= _NOR2:  # 2-input AND/OR/NAND/NOR
                        _, a, b, out, delay = entry
                        xa = vals_x[a] | vals_x[b]
                        if not xa:  # fast path: no X lane on either input
                            if code == _AND2:
                                nv2 = vals_v[a] & vals_v[b]
                            elif code == _OR2:
                                nv2 = vals_v[a] | vals_v[b]
                            elif code == _NAND2:
                                nv2 = full ^ (vals_v[a] & vals_v[b])
                            else:  # _NOR2
                                nv2 = full ^ (vals_v[a] | vals_v[b])
                            nx2 = 0
                        else:
                            va = vals_v[a]
                            vb = vals_v[b]
                            k0a = full ^ (va | vals_x[a])
                            k0b = full ^ (vb | vals_x[b])
                            if code == _AND2:
                                k1w, k0w = va & vb, k0a | k0b
                            elif code == _OR2:
                                k1w, k0w = va | vb, k0a & k0b
                            elif code == _NAND2:
                                k1w, k0w = k0a | k0b, va & vb
                            else:  # _NOR2
                                k1w, k0w = k0a & k0b, va | vb
                            nv2 = k1w
                            nx2 = full ^ (k1w | k0w)
                    elif code <= _XNOR2:  # 2-input XOR/XNOR
                        _, a, b, out, delay = entry
                        nx2 = vals_x[a] | vals_x[b]
                        acc = vals_v[a] ^ vals_v[b]
                        if code == _XNOR2:
                            acc ^= full
                        nv2 = acc & ~nx2
                    elif code <= _NOR:  # n-ary AND/NAND/OR/NOR
                        _, in_ids, out, delay = entry
                        xa = 0
                        for i in in_ids:
                            xa |= vals_x[i]
                        if not xa:  # fast path: no X lane anywhere
                            if code <= _NAND:  # AND / NAND
                                acc = full
                                for i in in_ids:
                                    acc &= vals_v[i]
                                nv2 = acc if code == _AND else acc ^ full
                            else:  # OR / NOR
                                acc = 0
                                for i in in_ids:
                                    acc |= vals_v[i]
                                nv2 = acc if code == _OR else acc ^ full
                            nx2 = 0
                        else:
                            # three-valued: a lane is known iff a
                            # controlling input is known (0 for AND,
                            # 1 for OR) or every input is known
                            all1 = full
                            any1 = 0
                            all0 = full
                            any0 = 0
                            for i in in_ids:
                                v = vals_v[i]
                                k0 = full ^ (v | vals_x[i])
                                all1 &= v
                                any1 |= v
                                all0 &= k0
                                any0 |= k0
                            if code == _AND:
                                k1w, k0w = all1, any0
                            elif code == _NAND:
                                k1w, k0w = any0, all1
                            elif code == _OR:
                                k1w, k0w = any1, all0
                            else:  # _NOR
                                k1w, k0w = all0, any1
                            nv2 = k1w
                            nx2 = full ^ (k1w | k0w)
                    elif code <= _BUF:  # n-ary XOR/XNOR, NOT, BUF
                        if code == _NOT:
                            _, a, out, delay = entry
                            nx2 = vals_x[a]
                            nv2 = (full ^ vals_v[a]) & ~nx2
                        elif code == _BUF:
                            _, a, out, delay = entry
                            nv2 = vals_v[a]
                            nx2 = vals_x[a]
                        else:
                            _, in_ids, out, delay = entry
                            nx2 = 0
                            acc = 0
                            for i in in_ids:
                                nx2 |= vals_x[i]
                                acc ^= vals_v[i]
                            if code == _XNOR:
                                acc ^= full
                            nv2 = acc & ~nx2
                    elif code == RISE:
                        if not rise:
                            continue
                        _, data, out, delay = entry
                        pv = pend_v[out]
                        px = pend_x[out]
                        nv2 = (pv & ~rise) | (vals_v[data] & rise)
                        nx2 = (px & ~rise) | (vals_x[data] & rise)
                    elif code == MARK:
                        _, dmasks, dirty, pos = entry
                        if not dmasks[pos]:
                            dirty.append(pos)
                        dmasks[pos] |= change
                        continue
                    elif code == MUX2:
                        _, a, b, s, out, delay = entry
                        sv = vals_v[s]
                        sx = vals_x[s]
                        av, ax = vals_v[a], vals_x[a]
                        bv, bx = vals_v[b], vals_x[b]
                        s0 = full ^ (sv | sx)
                        agree = (full ^ (av ^ bv)) & ~ax & ~bx
                        known = (s0 & ~ax) | (sv & ~bx) | (sx & agree)
                        nv2 = ((s0 & av) | (sv & bv) | (sx & agree & av)) \
                            & known
                        nx2 = full ^ known
                    elif code == GATE:
                        _, func, in_ids, out, delay = entry
                        nv2 = 0
                        nx2 = 0
                        for lane_bit in range(self.lanes):
                            vals = []
                            for i in in_ids:
                                if (vals_x[i] >> lane_bit) & 1:
                                    vals.append(X)
                                else:
                                    vals.append((vals_v[i] >> lane_bit) & 1)
                            r = func(vals)
                            if r == X:
                                nx2 |= 1 << lane_bit
                            elif r:
                                nv2 |= 1 << lane_bit
                    elif code == LATCH_D:
                        _, ck, data, out, delay = entry
                        m = change & vals_v[ck]  # lanes with G known-1
                        if not m:
                            continue
                        pv = pend_v[out]
                        px = pend_x[out]
                        nv2 = (pv & ~m) | (vals_v[data] & m)
                        nx2 = (px & ~m) | (vals_x[data] & m)
                    elif code == ICG_CK:
                        _, icg_idx, en, out = entry
                        nvn = vals_v[net]
                        nxn = vals_x[net]
                        m0 = change & (full ^ (nvn | nxn))  # CK known-0
                        if m0:
                            sv = icg_v[icg_idx]
                            sx = icg_x[icg_idx]
                            icg_v[icg_idx] = sv = \
                                (sv & ~m0) | (vals_v[en] & m0)
                            icg_x[icg_idx] = sx = \
                                (sx & ~m0) | (vals_x[en] & m0)
                        else:
                            sv = icg_v[icg_idx]
                            sx = icg_x[icg_idx]
                        if out == x_slot:
                            continue
                        ck0 = full ^ (nvn | nxn)
                        known = ck0 | (nvn & ~sx)
                        gv = nvn & sv
                        pv = pend_v[out]
                        px = pend_x[out]
                        nv2 = (pv & ~change) | (gv & change & known)
                        nx2 = (px & ~change) | ((full ^ known) & change)
                        delay = 0.0
                    elif code == ICG_EN:
                        _, icg_idx, trans_id, trans_val, ck, out = entry
                        if trans_val == 1:
                            tm = vals_v[trans_id]
                        elif trans_val == 0:
                            tm = full ^ (vals_v[trans_id] | vals_x[trans_id])
                        else:
                            tm = 0
                        m = change & tm
                        if not m:
                            continue
                        ev = vals_v[net]
                        ex = vals_x[net]
                        icg_v[icg_idx] = (icg_v[icg_idx] & ~m) | (ev & m)
                        icg_x[icg_idx] = (icg_x[icg_idx] & ~m) | (ex & m)
                        if out == x_slot:
                            continue
                        cv = vals_v[ck]
                        cx = vals_x[ck]
                        ck0 = full ^ (cv | cx)
                        known = ck0 | (cv & ~ex)
                        gv = cv & ev
                        pv = pend_v[out]
                        px = pend_x[out]
                        nv2 = (pv & ~m) | (gv & m & known)
                        nx2 = (px & ~m) | ((full ^ known) & m)
                        delay = 0.0
                    elif code == ICG_PB:
                        _, icg_idx, en, ck, out = entry
                        m = change & vals_v[net]  # PB known-1 lanes
                        if not m:
                            continue
                        ev = vals_v[en]
                        ex = vals_x[en]
                        icg_v[icg_idx] = (icg_v[icg_idx] & ~m) | (ev & m)
                        icg_x[icg_idx] = (icg_x[icg_idx] & ~m) | (ex & m)
                        if out == x_slot:
                            continue
                        cv = vals_v[ck]
                        cx = vals_x[ck]
                        ck0 = full ^ (cv | cx)
                        known = ck0 | (cv & ~ex)
                        gv = cv & ev
                        pv = pend_v[out]
                        px = pend_x[out]
                        nv2 = (pv & ~m) | (gv & m & known)
                        nx2 = (px & ~m) | ((full ^ known) & m)
                        delay = 0.0
                    else:  # ICG_AND
                        _, en, ck, out = entry
                        if out == x_slot:
                            continue
                        cv = vals_v[ck]
                        cx = vals_x[ck]
                        ev = vals_v[en]
                        ex = vals_x[en]
                        ck0 = full ^ (cv | cx)
                        known = ck0 | (cv & ~ex)
                        gv = cv & ev
                        pv = pend_v[out]
                        px = pend_x[out]
                        nv2 = (pv & ~change) | (gv & change & known)
                        nx2 = (px & ~change) | ((full ^ known) & change)
                        delay = 0.0
                    pv = pend_v[out]
                    px = pend_x[out]
                    if pv != nv2 or px != nx2:
                        m2 = (pv ^ nv2) | (px ^ nx2)
                        pend_v[out] = nv2
                        pend_x[out] = nx2
                        when = time + delay
                        b = bucket_of(when)
                        if b is None:
                            buckets[when] = [(out, nv2, nx2, m2)]
                            heappush(times, when)
                        else:
                            b.append((out, nv2, nx2, m2))
            heappop(times)
            del buckets[time]
        obs.add("sim.events", word_events - self.word_events)
        self.word_events = word_events
        self.now = t_end
        self.run_seconds += perf_counter() - t_run

    # -- internals -----------------------------------------------------------

    def _push(self, time: float, net: int, vw: int, xw: int) -> None:
        pv = self._pend_v[net]
        px = self._pend_x[net]
        if pv == vw and px == xw:
            return
        mask = (pv ^ vw) | (px ^ xw)
        self._pend_v[net] = vw
        self._pend_x[net] = xw
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(net, vw, xw, mask)]
            heapq.heappush(self._times, time)
        else:
            bucket.append((net, vw, xw, mask))

    def _extend_clocks(self, t_end: float) -> None:
        if self._clock is not None:
            for time, net, vw in self._clock.edges(t_end, self._full):
                self._push(time, net, vw, 0)
