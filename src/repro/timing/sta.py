"""Multi-phase static timing analysis with time borrowing.

One analysis covers all three design styles:

* FF designs -- every register has zero transparency, so the iteration
  terminates after one pass and reduces to classic period checking;
* master-slave and 3-phase latch designs -- departures can precede the
  closing edge (time borrowing), so latest arrivals are computed by a
  Szymanski-style fixed-point iteration over the sequential timing graph.

Coordinates: every quantity for register ``i`` is measured relative to its
own capture edge.  ``departure[i]`` in ``[-width_i, -setup_i]`` is when
the register's token leaves; an edge ``i -> j`` transfers
``departure_i + delay - E_ij`` into j's frame, where ``E_ij`` is the SMO
forward phase shift.

Primary inputs are a pseudo-register on p1 (the paper's interface
convention); primary outputs are a pseudo-register capturing at the cycle
boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.convert.clocks import ClockSpec
from repro.netlist.core import Module
from repro.netlist.traversal import register_phases
from repro.timing.graph import PI_SOURCE, PO_SINK, TimingGraph, extract_timing_graph
from repro.timing.smo import (
    RegisterTiming,
    effective_hold_gap,
    forward_shift,
    register_timing_for,
)


@dataclass(frozen=True)
class TimingViolation:
    kind: str  # "setup" | "hold"
    src: str
    dst: str
    slack: float

    def __str__(self) -> str:
        return f"{self.kind}: {self.src} -> {self.dst} slack {self.slack:.1f}"


@dataclass
class TimingReport:
    period: float
    worst_setup_slack: float = float("inf")
    worst_hold_slack: float = float("inf")
    total_borrowed: float = 0.0
    max_borrowed: float = 0.0
    iterations: int = 0
    violations: list[TimingViolation] = field(default_factory=list)
    departures: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def setup_ok(self) -> bool:
        """The setup verdict: no edge arrives after its setup time.  Hold
        is period-independent, so period searches judge setup alone."""
        return all(v.kind != "setup" for v in self.violations)

    def __str__(self) -> str:
        status = "MET" if self.ok else f"{len(self.violations)} VIOLATIONS"
        return (
            f"timing {status} @ period {self.period}: "
            f"setup slack {self.worst_setup_slack:.1f}, "
            f"hold slack {self.worst_hold_slack:.1f}, "
            f"max borrow {self.max_borrowed:.1f}"
        )


def _register_timings(
    module: Module,
    clocks: ClockSpec,
    phases: dict[str, str] | None = None,
) -> dict[str, RegisterTiming]:
    """Per-register timing windows.  ``phases`` (from
    :func:`register_phases`) is period-independent, so callers probing
    many periods (:func:`minimum_period`) trace it once and pass it in.
    """
    if phases is None:
        phases = register_phases(module, clocks)
    timings: dict[str, RegisterTiming] = {}
    for inst in module.sequential_instances():
        timings[inst.name] = register_timing_for(
            inst.name, inst.cell.op, phases[inst.name], clocks,
            setup=inst.cell.setup, hold=inst.cell.hold,
        )
    return timings


def analyze(
    module: Module,
    clocks: ClockSpec,
    graph: TimingGraph | None = None,
    wire_caps: dict[str, float] | None = None,
    timings: dict[str, RegisterTiming] | None = None,
) -> TimingReport:
    """Setup/hold analysis of ``module`` under ``clocks``.

    ``timings`` optionally supplies precomputed per-register timings (see
    :func:`_register_timings`); they must match ``clocks``.  The dict is
    copied, so the caller's mapping is not polluted with the PI/PO
    pseudo-registers added below.
    """
    with obs.span("sta.analyze", period=clocks.period) as sp:
        report = _analyze(module, clocks, graph, wire_caps, timings)
        sp.set(iterations=report.iterations, ok=report.ok,
               violations=len(report.violations),
               worst_setup_slack=report.worst_setup_slack)
    obs.record("sta.sweeps", report.iterations)
    return report


def _sweep_order(
    timings: dict[str, RegisterTiming],
    graph: TimingGraph,
) -> list[str]:
    """Registers in topological order of the sequential graph (Kahn).

    Registers on cycles (their strongly connected remainder) are
    appended in the original deterministic order; the fixed point
    handles them iteratively as before.
    """
    indegree = {name: 0 for name in timings}
    successors: dict[str, list[str]] = {}
    for edge in graph.edges:
        indegree[edge.dst] += 1
        successors.setdefault(edge.src, []).append(edge.dst)
    ready = [name for name in timings if indegree[name] == 0]
    order: list[str] = []
    head = 0
    while head < len(ready):
        name = ready[head]
        head += 1
        order.append(name)
        for succ in successors.get(name, ()):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    if len(order) < len(indegree):
        placed = set(order)
        order.extend(name for name in timings if name not in placed)
    return order


#: sweeps between two searches for a latch cycle still climbing
_SKIP_EVERY = 16


def _skip_turns(order: list[str],
                incoming: dict[str, list[tuple[str, float]]],
                departures: dict[str, float],
                timings: dict[str, RegisterTiming]) -> None:
    """Raise each climbing latch cycle by the turns it would still climb.

    A cycle of critical fanins whose constants sum to ``gain > 0`` rises
    by ``gain`` per turn until a member reaches its clamp: unboundedly
    many sweeps as ``gain`` goes to 0 near a loop-limited period.  The
    least fixed point lies at or above one turn's ``reach`` from a
    member's departure plus ``turns * gain``, as long as that keeps every
    member at or below its ``-setup``.  Raising the members there skips
    sweeps and changes no fixed point.
    """
    critical = {name: max(incoming[name],
                          key=lambda fanin: departures[fanin[0]] + fanin[1])
                for name in order}
    seen: set[str] = set()
    for name in order:
        path = []  # follows critical fanins, against the data
        while name in critical and name not in seen:
            seen.add(name)
            path.append(name)
            name = critical[name][0]
        if name not in path:
            continue
        cycle = path[path.index(name):]
        gain = sum(critical[member][1] for member in cycle)
        if gain <= 1e-9:
            continue
        value = departures[name]
        reach = {name: value}
        for member in reversed(cycle[1:]):  # with the data, from name
            value += critical[member][1]
            reach[member] = value
        turns = min((-timings[member].setup - value) // gain
                    for member, value in reach.items())
        if turns < 1:
            continue
        for member, value in reach.items():
            departures[member] = max(departures[member], min(
                -timings[member].setup, value + turns * gain))


def _analyze(
    module: Module,
    clocks: ClockSpec,
    graph: TimingGraph | None,
    wire_caps: dict[str, float] | None,
    timings: dict[str, RegisterTiming] | None,
) -> TimingReport:
    """Setup by a fixed point on departures, then per-edge slacks.

    A departure is the arrival clamped to the register's window,
    ``max(-width, min(arrival, -setup))``: a later arrival is a setup
    violation on its edge and does not launch late downstream, so an FF
    always departs at its edge.  Departures start at ``-width`` and only
    rise, and the update is monotone, so every iterate lies below the
    least fixed point; they are bounded by ``-setup``, so the iteration
    converges (:func:`_skip_turns` keeps the sweeps few when a latch
    loop is barely over budget).  A design that meets setup has every
    arrival at or below ``-setup`` at its fixed point, hence at every
    iterate: it never reaches the clamp, and reports what the unclamped
    analysis reports (bar a slack inside the ``1e-9`` tolerance, which
    may move by less than that).  Only failing designs' numbers depend
    on the clamp.
    """
    period = clocks.period
    if graph is None:
        graph = extract_timing_graph(module, wire_caps)
    if timings is None:
        timings = _register_timings(module, clocks)
    else:
        timings = dict(timings)

    # Pseudo-registers for the interface.
    p1_like = clocks.phases[0].name
    timings[PI_SOURCE] = RegisterTiming(
        PI_SOURCE, p1_like, clocks.phase(p1_like).fall,
        0.0, 0.0, 0.0,
    )
    timings[PO_SINK] = RegisterTiming(PO_SINK, "", period, 0.0, 0.0, 0.0)

    report = TimingReport(period=period)

    # -- setup: fixed-point on departures ------------------------------------
    # The phase shift of an edge depends only on the two registers'
    # capture edges, not on the iteration, so fold it into a per-edge
    # constant (``max_delay - shift``) once instead of re-deriving it
    # every sweep for every edge (it dominated analysis time).
    departures = {name: -t.width for name, t in timings.items()}
    incoming: dict[str, list[tuple[str, float]]] = {}
    edge_shifts: list[float] = []
    for edge in graph.edges:
        shift = forward_shift(
            period, timings[edge.src].capture, timings[edge.dst].capture)
        edge_shifts.append(shift)
        incoming.setdefault(edge.dst, []).append(
            (edge.src, edge.max_delay - shift))

    # Sweeping in topological order propagates a whole acyclic path per
    # sweep, so the fixed point converges in sweeps proportional to the
    # number of cycles crossed, not to the graph diameter (an acyclic
    # graph finishes in one sweep plus the confirming one).
    order = [name for name in _sweep_order(timings, graph)
             if name in incoming]

    changed = True
    while changed:
        report.iterations += 1
        if report.iterations % _SKIP_EVERY == 0:
            _skip_turns(order, incoming, departures, timings)
        changed = False
        for name in order:
            arrival = max(
                departures[src] + constant
                for src, constant in incoming[name]
            )
            timing = timings[name]
            new_departure = max(-timing.width, min(arrival, -timing.setup))
            if new_departure > departures[name] + 1e-9:
                departures[name] = new_departure
                changed = True

    report.departures = dict(departures)

    for edge, shift in zip(graph.edges, edge_shifts):
        src_t, dst_t = timings[edge.src], timings[edge.dst]
        arrival = departures[edge.src] + edge.max_delay - shift
        slack = -arrival - dst_t.setup  # must arrive setup before capture (0)
        report.worst_setup_slack = min(report.worst_setup_slack, slack)
        if slack < -1e-9:
            report.violations.append(
                TimingViolation("setup", edge.src, edge.dst, slack)
            )
        borrowed = max(0.0, (arrival + shift) - (shift - dst_t.width))
        report.total_borrowed += borrowed
        report.max_borrowed = max(report.max_borrowed, borrowed)

        # -- hold: earliest launch vs previous capture ------------------------
        if edge.dst == PO_SINK or edge.src == PI_SOURCE:
            continue
        gap = effective_hold_gap(period, src_t, dst_t)
        hold_slack = edge.min_delay + gap - dst_t.hold
        report.worst_hold_slack = min(report.worst_hold_slack, hold_slack)
        if hold_slack < -1e-9:
            report.violations.append(
                TimingViolation("hold", edge.src, edge.dst, hold_slack)
            )

    return report


def minimum_period(
    module: Module,
    clocks_builder,
    lo: float,
    hi: float,
    tolerance: float = 1.0,
    graph: TimingGraph | None = None,
) -> float:
    """Bisect for the smallest period where setup is met.

    ``clocks_builder(period)`` returns the ClockSpec at that period (e.g.
    ``ClockSpec.single`` or ``ClockSpec.default_three_phase``); hold
    violations are ignored here since they are period-independent.

    ``graph`` is the delay graph to time; by default it is extracted from
    ``module`` (:mod:`repro.timing.corners` passes derated copies).  It
    and the register -> phase map are built once and shared across all
    candidate periods; only the cheap per-register edge arithmetic is
    redone at each.  Setup feasibility is monotone in the period, so
    halving ``(lo, hi]`` (``hi`` must pass) ends within ``tolerance``
    above the answer.
    """
    if graph is None:
        graph = extract_timing_graph(module)
    phases = register_phases(module, clocks_builder(hi))

    def setup_ok(period: float) -> bool:
        clocks = clocks_builder(period)
        return analyze(
            module, clocks, graph=graph,
            timings=_register_timings(module, clocks, phases=phases),
        ).setup_ok

    if not setup_ok(hi):
        raise ValueError(f"setup fails even at period {hi}")
    while hi - lo > tolerance:
        mid = lo + (hi - lo) / 2
        if setup_ok(mid):
            hi = mid
        else:
            lo = mid
    return hi
