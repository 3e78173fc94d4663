"""Optimal phase scheduling via linear programming (the SMO problem).

The paper builds on Sakallah-Mudge-Olukotun's "optimal clocking of
synchronous systems" [15]: for a fixed latch-to-phase assignment, the
cycle time and the phase edges that achieve it are the solution of a
linear program over the General System Timing Constraints.  This module
implements that LP for our designs, which both

* *certifies* the derived default schedule (how close is it to the
  optimum for a given netlist?), and
* provides a per-design tuned schedule for the scheduling ablation.

Formulation: with the phase *order* fixed (p1, p2, p3 -- the wrap sits at
p3's closing edge, pinned to the cycle boundary) every forward phase
shift ``E_ij`` expands linearly in the unknown edge times, so for a
candidate period the constraint system is a pure feasibility LP; the
minimum period is found by bisection around it, the standard approach
for SMO-style programs:

inner LP variables (for a candidate ``Tc``):
  ``e_p`` (closing time of each phase), ``o_p`` (opening time),
  ``d_i`` (departure of latch i relative to its phase's closing edge).

constraints:
  * ordering and bounds: ``0 <= o_p < e_p <= Tc``; phase windows pairwise
    disjoint in the dataflow order (C2);
  * departures: ``d_i >= o_{p(i)} - e_{p(i)}`` (cannot leave before the
    latch opens);
  * propagation: for each edge i->j:
    ``d_j >= d_i + delay_ij - E_ij`` where ``E_ij`` expands linearly in
    the ``e_p`` for the fixed cyclic phase order;
  * setup: ``d_i + 0 <= -setup_i`` is not required (latches borrow);
    instead arrivals must not pass the closing edge:
    ``d_i <= -setup_i`` **after** propagation -- encoded by bounding each
    edge's arrival: ``d_i + delay_ij - E_ij <= -setup_j``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.convert.clocks import ClockSpec, Phase
from repro.netlist.core import Module
from repro.netlist.traversal import register_phases
from repro.timing.graph import PI_SOURCE, PO_SINK, TimingGraph, extract_timing_graph

if TYPE_CHECKING:  # pragma: no cover - numpy loads only when an LP runs
    import numpy as np

#: dataflow-cyclic order of the three phases: the wrap point sits between
#: p3 and p1 (p3 closes at the period boundary in the default schedule).
_PHASE_ORDER = ("p1", "p2", "p3")


@dataclass
class ScheduleResult:
    """Outcome of the schedule optimization."""

    period: float
    clocks: ClockSpec
    feasible: bool
    iterations: int

    def __str__(self) -> str:
        edges = ", ".join(
            f"{p.name}:[{p.rise:.0f},{p.fall:.0f})" for p in self.clocks.phases
        )
        return f"Tc={self.period:.1f} ps  {edges}"


def _feasible_at(
    period: float,
    graph: TimingGraph,
    reg_phase: dict[str, str],
    setups: dict[str, float],
    min_width: float,
    guard: float,
) -> np.ndarray | None:
    """Inner LP: find phase edges + departures feasible at ``period``.

    Variable layout: [e1, e2, e3, o1, o2, o3, d_0..d_{n-1}].
    Returns the solution vector or None.
    """
    # imported here so that numpy and scipy load only when the LP runs
    import numpy as np
    from scipy.optimize import linprog

    # PI/PO join as pseudo-registers: PIs behave like p1 latches with no
    # transparency (departure 0); POs capture at the cycle boundary, i.e.
    # exactly phase p3's pinned closing edge.
    regs = [r for r in graph.registers] + [PI_SOURCE, PO_SINK]
    index = {r: 6 + i for i, r in enumerate(regs)}
    n = 6 + len(regs)
    ph = {name: i for i, name in enumerate(_PHASE_ORDER)}
    reg_phase = dict(reg_phase)
    reg_phase[PI_SOURCE] = "p1"
    reg_phase[PO_SINK] = "p3"

    a_ub: list[list[float]] = []
    b_ub: list[float] = []

    def row(coeffs: dict[int, float], rhs: float) -> None:
        line = [0.0] * n
        for i, c in coeffs.items():
            line[i] += c
        a_ub.append(line)
        b_ub.append(rhs)

    # Ordering within the cycle: o_p < e_p, e1 <= o2, e2 <= o3, e3 == Tc.
    for p in range(3):
        row({3 + p: 1.0, p: -1.0}, -min_width)  # o_p - e_p <= -min_width
    row({0: 1.0, 4: -1.0}, -guard)  # e1 <= o2 - guard
    row({1: 1.0, 5: -1.0}, -guard)  # e2 <= o3 - guard
    # e3 == Tc and o1 >= 0 handled via bounds below.

    def shift_terms(src_phase: str, dst_phase: str) -> tuple[dict[int, float], float]:
        """E_ij as linear terms over e-variables plus a constant."""
        i, j = ph[src_phase], ph[dst_phase]
        if i < j:
            return ({j: 1.0, i: -1.0}, 0.0)
        return ({j: 1.0, i: -1.0}, period)

    for edge in graph.edges:
        src_p, dst_p = reg_phase[edge.src], reg_phase[edge.dst]
        shift, const = shift_terms(src_p, dst_p)
        di, dj = index[edge.src], index[edge.dst]
        setup = setups.get(edge.dst, 0.0)
        # propagation: d_j >= d_i + delay - E  ->  d_i - d_j - E <= -delay
        coeffs = {di: 1.0, dj: -1.0}
        for k, c in shift.items():
            coeffs[k] = coeffs.get(k, 0.0) - c
        row(coeffs, const - edge.max_delay)
        # setup: d_i + delay - E <= -setup_j
        coeffs = {di: 1.0}
        for k, c in shift.items():
            coeffs[k] = coeffs.get(k, 0.0) - c
        row(coeffs, const - edge.max_delay - setup)

    # departures cannot precede the opening edge: d_i >= o_p - e_p
    for reg in regs:
        if reg in (PI_SOURCE, PO_SINK):
            continue
        p = ph[reg_phase[reg]]
        row({3 + p: 1.0, p: -1.0, index[reg]: -1.0}, 0.0)

    bounds = [(0.0, period)] * 6 + [(-period, 0.0)] * len(regs)
    bounds[2] = (period, period)  # e3 pinned to the cycle boundary
    bounds[index[PI_SOURCE]] = (0.0, 0.0)   # PIs depart at p1's close
    bounds[index[PO_SINK]] = (-period, 0.0)
    result = linprog(
        c=np.zeros(n),
        A_ub=np.array(a_ub),
        b_ub=np.array(b_ub),
        bounds=bounds,
        method="highs",
    )
    return result.x if result.success else None


def optimize_schedule(
    module: Module,
    clocks_hint: ClockSpec,
    lo: float = 50.0,
    hi: float = 10_000.0,
    tolerance: float = 2.0,
    min_width_fraction: float = 0.05,
    guard_fraction: float = 0.01,
) -> ScheduleResult:
    """Minimum-period phase schedule for a converted 3-phase design.

    ``clocks_hint`` is only used to discover each register's phase (any
    valid 3-phase spec for the module, e.g. the one it was converted
    with).  Bisection over the period wraps the inner feasibility LP.
    """
    graph = extract_timing_graph(module)
    reg_phase = register_phases(module, clocks_hint)
    setups = {
        inst.name: inst.cell.setup for inst in module.sequential_instances()
    }

    iterations = 0
    best: tuple[float, np.ndarray] | None = None

    def try_period(period: float) -> np.ndarray | None:
        nonlocal iterations
        iterations += 1
        return _feasible_at(
            period, graph, reg_phase, setups,
            min_width=min_width_fraction * period,
            guard=guard_fraction * period,
        )

    x = try_period(hi)
    if x is None:
        return ScheduleResult(hi, clocks_hint, False, iterations)
    best = (hi, x)
    low, high = lo, hi
    while high - low > tolerance:
        mid = (low + high) / 2
        x = try_period(mid)
        if x is not None:
            best = (mid, x)
            high = mid
        else:
            low = mid

    period, x = best
    phases = []
    for i, name in enumerate(_PHASE_ORDER):
        rise, fall = float(x[3 + i]), float(x[i])
        phases.append(Phase(name, rise, fall,
                            skip_first=(name == "p1")))
    return ScheduleResult(
        period=period,
        clocks=ClockSpec(period, tuple(phases)),
        feasible=True,
        iterations=iterations,
    )
