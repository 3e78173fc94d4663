"""Timing-driven forward retiming of inserted latches (Sec. IV-C).

The paper works around limited commercial-tool latch retiming by mapping
the 3-phase design onto back-to-back FFs (p1/p3 -> clk, p2 -> clkbar) and
retiming with "only FFs tied to clkbar allowed to move", then mapping
back.  Our substrate retimes latches natively but enforces the identical
restriction: **only latches of the movable phase (p2) change position**,
so each back-to-back stage's logic is split into two halves that each fit
their phase budget.

Mechanics (classic forward retiming, with initial-state recomputation):

* a movable latch set can cross a combinational gate ``g`` when *every*
  input of ``g`` is driven by a movable latch on the same clock net;
* the move reconnects ``g`` to the latches' D-side nets, inserts one new
  latch at ``g``'s output whose initial value is ``g`` evaluated on the
  consumed latches' initial values, and deletes consumed latches that
  have no remaining fanout;
* moves are chosen greedily on the most critical downstream path until
  setup (with borrowing) is met at the target clocks, then optional
  area moves merge multi-input gates' latches (1 new for N consumed).

Forward retiming with computed initial values preserves the output stream
from cycle 0 -- checked by the equivalence property tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.convert.clocks import ClockSpec
from repro.library.cell import CellKind, Library
from repro.netlist.core import Instance, Module, Pin
from repro.netlist.traversal import comb_topo_order
from repro.sim.logic import eval_op
from repro.timing.delay import cell_delay
from repro.timing.delay import downstream_delay as _downstream_delay
from repro.timing.delay import upstream_delay as _upstream_delay
from repro.timing.sta import TimingReport, analyze


@dataclass
class RetimeResult:
    moves: int = 0
    latches_added: int = 0
    latches_removed: int = 0
    timing_before: TimingReport | None = None
    timing_after: TimingReport | None = None
    area_moves: int = 0
    movable_phase: str | None = None
    latch_counts_before: dict[str, int] | None = None
    latch_counts_after: dict[str, int] | None = None

    @property
    def latch_delta(self) -> int:
        return self.latches_added - self.latches_removed


def phase_latch_counts(module: Module) -> dict[str, int]:
    """Latch census keyed by declared phase (lint conservation check)."""
    counts: dict[str, int] = {}
    for inst in module.latches():
        phase = str(inst.attrs.get("phase", "?"))
        counts[phase] = counts.get(phase, 0) + 1
    return dict(sorted(counts.items()))


def _movable_latches(module: Module, movable_phase: str) -> set[str]:
    return {
        inst.name
        for inst in module.latches()
        if inst.attrs.get("phase") == movable_phase
    }


def _movable_drivers(
    module: Module, gate: Instance, movable: set[str]
) -> dict[str, Instance] | None:
    """If every input of ``gate`` is driven by a movable latch (all on the
    same clock net), return pin -> latch; else None."""
    drivers: dict[str, Instance] = {}
    clock_nets = set()
    for pin in gate.cell.input_pins:
        net = gate.conns.get(pin)
        if net is None:
            return None
        driver = module.nets[net].driver
        if not isinstance(driver, Pin):
            return None
        latch = module.instances[driver.instance]
        if latch.name not in movable or driver.pin != "Q":
            return None
        drivers[pin] = latch
        clock_nets.add(latch.net_of("G"))
    if len(clock_nets) != 1:
        return None
    return drivers


def _move_forward(
    module: Module,
    gate: Instance,
    drivers: dict[str, Instance],
    movable_phase: str,
    library: Library,
) -> tuple[int, int, str]:
    """Execute one forward move; returns (added, removed, new latch name)."""
    clock_net = next(iter(drivers.values())).net_of("G")
    init_inputs = [int(drivers[pin].attrs.get("init", 0))
                   for pin in gate.cell.input_pins]
    new_init = eval_op(gate.cell.op, init_inputs)

    # Reconnect the gate to the latches' D-side nets.
    for pin in gate.cell.input_pins:
        latch = drivers[pin]
        module.reconnect(gate.name, pin, latch.net_of("D"))

    # Insert the new latch at the gate output.
    latch_cell = library.cell_for_op("DLATCH", drive=gate.cell.drive)
    out_net = gate.net_of(gate.cell.output_pin)
    new_latch = module.insert_cell_after(
        out_net,
        latch_cell,
        in_pin="D",
        out_pin="Q",
        name_prefix=f"rt_{gate.name}_",
        extra_conns={"G": clock_net},
        attrs={"phase": movable_phase, "role": "retimed", "init": new_init},
    )

    # Remove consumed latches with no remaining fanout.
    removed = 0
    for latch in {d.name for d in drivers.values()}:
        q_net = module.instances[latch].net_of("Q")
        if not module.nets[q_net].loads:
            module.remove_instance(latch)
            if (module.nets[q_net].driver is None
                    and not module.nets[q_net].loads):
                module.remove_net(q_net)
            removed += 1
    return 1, removed, new_latch.name


def retime_forward(
    module: Module,
    clocks: ClockSpec,
    library: Library,
    movable_phase: str = "p2",
    max_moves: int = 20_000,
    area_pass: bool = True,
    balance: bool = False,
) -> RetimeResult:
    """Retime ``module`` in place until setup is met at ``clocks``.

    Greedy: while setup fails, take the movable latch on the worst path
    and push it across its most timing-critical fanout gate; afterwards an
    optional area pass performs moves that reduce the latch count without
    breaking timing.  ``balance`` additionally equalizes each movable
    latch's upstream/downstream path delays even when timing is already
    met -- the slack headroom this creates is what lets the latch design
    absorb PVT variation (the paper's robustness motivation).
    """
    result = RetimeResult(movable_phase=movable_phase)
    result.latch_counts_before = phase_latch_counts(module)
    result.timing_before = analyze(module, clocks)
    report = result.timing_before

    # Batched greedy: per STA round, push every movable latch that is the
    # launch side of a violating edge one gate forward, then re-analyze.
    round_index = 0
    while not report.setup_ok and result.moves < max_moves:
        round_index += 1
        with obs.span("retime.round", round=round_index,
                      phase=movable_phase) as sp:
            moves_before = result.moves
            sources = {
                v.src
                for v in report.violations
                if v.kind == "setup" and v.src in module.instances
            }
            moved_any = False
            for latch_name in sorted(sources):
                if _move_latch_once(module, latch_name, library,
                                    movable_phase, result):
                    moved_any = True
            if not moved_any:
                # No violating edge launches from a latch that can move
                # forward: fall back to the pressure-ranked single move.
                if not _timing_move(module, clocks, library, movable_phase,
                                    result):
                    sp.set(moves=0, stuck=True)
                    break
            report = analyze(module, clocks)
            round_moves = result.moves - moves_before
            sp.set(moves=round_moves, violations=len(report.violations))
            obs.record("retime.round_moves", round_moves)

    # A pass that accepted no move left the module as it was (rejected
    # trials are restored from their checkpoint), so ``report`` still
    # describes it and needs no re-analysis.
    if balance and report.setup_ok:
        with obs.span("retime.balance", phase=movable_phase) as sp:
            moves_before = result.moves
            _balance_moves(module, clocks, library, movable_phase, result)
            sp.set(moves=result.moves - moves_before)
        if result.moves > moves_before:
            report = analyze(module, clocks)

    if area_pass and report.setup_ok:
        with obs.span("retime.area_pass", phase=movable_phase) as sp:
            moves_before = result.moves
            _area_moves(module, clocks, library, movable_phase, result)
            sp.set(moves=result.moves - moves_before,
                   area_moves=result.area_moves)
        if result.moves > moves_before:
            report = analyze(module, clocks)

    result.timing_after = report
    result.latch_counts_after = phase_latch_counts(module)
    obs.add("retime.moves", result.moves)
    obs.annotate(timing_rounds=round_index)
    return result


def _balance_moves(
    module: Module,
    clocks: ClockSpec,
    library: Library,
    movable_phase: str,
    result: RetimeResult,
    max_rounds: int = 200,
) -> None:
    """Push movable latches forward while the downstream path is much
    longer than the upstream one, keeping setup met."""
    for _ in range(max_rounds):
        movable = _movable_latches(module, movable_phase)
        if not movable:
            return
        order = comb_topo_order(module)
        up = _upstream_delay(module, order)
        down = _downstream_delay(module, order)
        moved = False
        for latch_name in sorted(movable):
            latch = module.instances[latch_name]
            q_net = latch.net_of("Q")
            d_net = latch.net_of("D")
            gates = [
                module.instances[ref.instance]
                for ref in module.nets[q_net].loads
                if isinstance(ref, Pin)
                and module.instances[ref.instance].cell.kind is CellKind.COMB
            ]
            if not gates:
                continue
            gate = max(
                gates,
                key=lambda g: cell_delay(module, g)
                + down[g.conns.get(g.cell.output_pin, q_net)],
            )
            step = cell_delay(module, gate)
            if down[q_net] - up[d_net] <= 2 * step:
                continue
            drivers = _movable_drivers(module, gate, movable)
            if drivers is None:
                continue
            checkpoint = module.copy()
            added, removed, _ = _move_forward(
                module, gate, drivers, movable_phase, library
            )
            if not analyze(module, clocks).setup_ok:
                _restore(module, checkpoint)
                continue
            result.moves += 1
            result.latches_added += added
            result.latches_removed += removed
            moved = True
            break  # recompute delay maps after each accepted move
        if not moved:
            return


def _move_latch_once(
    module: Module,
    latch_name: str,
    library: Library,
    movable_phase: str,
    result: RetimeResult,
) -> bool:
    """Push ``latch_name`` across its most critical legal fanout gate."""
    latch = module.instances.get(latch_name)
    if latch is None or latch.attrs.get("phase") != movable_phase:
        return False
    movable = _movable_latches(module, movable_phase)
    down = _downstream_delay(module)
    q_net = latch.net_of("Q")
    gates = [
        module.instances[ref.instance]
        for ref in module.nets[q_net].loads
        if isinstance(ref, Pin)
        and module.instances[ref.instance].cell.kind is CellKind.COMB
    ]
    gates.sort(
        key=lambda g: -(cell_delay(module, g)
                        + down[g.conns.get(g.cell.output_pin, q_net)]),
    )
    for gate in gates:
        drivers = _movable_drivers(module, gate, movable)
        if drivers is None:
            continue
        added, removed, _ = _move_forward(
            module, gate, drivers, movable_phase, library
        )
        result.moves += 1
        result.latches_added += added
        result.latches_removed += removed
        return True
    return False


def _timing_move(
    module: Module,
    clocks: ClockSpec,
    library: Library,
    movable_phase: str,
    result: RetimeResult,
) -> bool:
    """One greedy timing move; returns False when stuck."""
    movable = _movable_latches(module, movable_phase)
    if not movable:
        return False
    down = _downstream_delay(module)

    # Rank movable latches by the downstream slack pressure of their output.
    candidates = sorted(
        movable,
        key=lambda name: -down[module.instances[name].net_of("Q")],
    )
    for latch_name in candidates:
        latch = module.instances[latch_name]
        q_net = latch.net_of("Q")
        if down[q_net] <= 0:
            break  # nothing downstream anywhere; no move helps
        # Most critical fanout gate of this latch.
        gates = [
            module.instances[ref.instance]
            for ref in module.nets[q_net].loads
            if isinstance(ref, Pin)
            and module.instances[ref.instance].cell.kind is CellKind.COMB
        ]
        gates.sort(
            key=lambda g: -(cell_delay(module, g)
                            + down[g.conns.get(g.cell.output_pin, q_net)]),
        )
        for gate in gates:
            drivers = _movable_drivers(module, gate, movable)
            if drivers is None:
                continue
            added, removed, _ = _move_forward(
                module, gate, drivers, movable_phase, library
            )
            result.moves += 1
            result.latches_added += added
            result.latches_removed += removed
            return True
    return False


def _area_moves(
    module: Module,
    clocks: ClockSpec,
    library: Library,
    movable_phase: str,
    result: RetimeResult,
) -> None:
    """Merge moves: crossing an N-input gate whose latches die consumes N
    latches and creates 1.  Keep only moves that leave setup met."""
    improved = True
    while improved:
        improved = False
        movable = _movable_latches(module, movable_phase)
        for gate_name in list(module.instances):
            gate = module.instances.get(gate_name)
            if gate is None or gate.cell.kind is not CellKind.COMB:
                continue
            if len(gate.cell.input_pins) < 2:
                continue
            drivers = _movable_drivers(module, gate, movable)
            if drivers is None:
                continue
            # Profitable only if every consumed latch would actually die.
            dying = sum(
                1
                for latch in {d.name for d in drivers.values()}
                if len(module.nets[module.instances[latch].net_of("Q")].loads) == 1
            )
            if dying < 2:
                continue
            checkpoint = module.copy()
            added, removed, _ = _move_forward(
                module, gate, drivers, movable_phase, library
            )
            if not analyze(module, clocks).setup_ok:
                # Roll back by restoring the checkpoint's state.
                _restore(module, checkpoint)
                continue
            result.moves += 1
            result.area_moves += 1
            result.latches_added += added
            result.latches_removed += removed
            movable = _movable_latches(module, movable_phase)
            improved = True


def _restore(module: Module, checkpoint: Module) -> None:
    module.ports = checkpoint.ports
    module.clock_ports = checkpoint.clock_ports
    module.nets = checkpoint.nets
    module.instances = checkpoint.instances
