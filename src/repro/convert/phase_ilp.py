"""The paper's conversion ILP (Sec. IV-A) and its exact MIS reduction.

ILP formulation (verbatim from the paper, Gurobi-compatible form)::

    minimize   sum_u G(u)
    subject to G(u) + K(u) >= 1                   for all u in V
               G(u) >= K(u) + K(v) - 1            for all u in V, v in FO(u)
               G(v) >= K(v)                       for all v in FO(PI)
               G(u), K(u) in {0, 1}

**Reduction to maximum independent set.**  Let ``S = {u : G(u) = 0}`` (the
single-latch group).  The constraints force: (i) ``u in S`` implies
``K(u) = 1`` and ``K(v) = 0`` for every fanout ``v in FO(u)`` -- so no two
members of ``S`` may be adjacent in the *undirected* FF graph (if
``u -> v`` with both in S, v would need K=1 and K=0); (ii) a self-loop FF
can never be in S; (iii) a fanout of a primary input can never be in S.
Conversely any independent set avoiding self-loop and PI-fed FFs extends to
a feasible assignment by setting ``K(u)=1, G(u)=0`` for members and
``K(u)=0 (or 1), G(u)=1`` for the rest.  Hence ``min sum G = |V| - |MIS|``
on the eligible subgraph.

Solvers: :func:`assign_phases` runs one whole-graph branch-and-reduce MIS
(``method="mis"``, exact, the default) or the greedy heuristic
(``"greedy"``, the ablation baseline).  :func:`solve_ilp` solves the ILP
itself with HiGHS (``scipy.optimize.milp``, the Gurobi stand-in); it is
the reference the test suite and ``benchmarks/bench_ilp.py`` check the
MIS path against.
"""

from __future__ import annotations

import time

from repro import obs
from repro.ilp import IlpModel, Sense, SolveStatus
from repro.ilp.mis import max_independent_set
from repro.netlist.core import Module
from repro.netlist.traversal import FFGraph, ff_fanout_map
from repro.convert.assignment import PhaseAssignment

#: ``assign_phases`` methods (``FlowOptions.assign_method``).
ASSIGN_METHODS = ("mis", "greedy")


def build_model(graph: FFGraph) -> tuple[IlpModel, dict[str, int], dict[str, int]]:
    """Build the paper's ILP over an FF graph.

    Returns the model plus the variable-index maps for G and K.
    """
    model = IlpModel("phase-assignment")
    g_var = {ff: model.add_var(f"G[{ff}]") for ff in graph.ffs}
    k_var = {ff: model.add_var(f"K[{ff}]") for ff in graph.ffs}

    for ff in graph.ffs:
        # G(u) + K(u) >= 1: a p3 latch is always back-to-back.
        model.add_constraint({g_var[ff]: 1.0, k_var[ff]: 1.0}, Sense.GE, 1.0)
        # G(u) >= K(u) + K(v) - 1: consecutive p1 latches force insertion.
        # Coefficients are accumulated so a self loop (v == u) correctly
        # yields G(u) >= 2*K(u) - 1.
        for other in graph.fanout.get(ff, ()):
            coeffs = {g_var[ff]: 1.0}
            coeffs[k_var[ff]] = coeffs.get(k_var[ff], 0.0) - 1.0
            coeffs[k_var[other]] = coeffs.get(k_var[other], 0.0) - 1.0
            model.add_constraint(coeffs, Sense.GE, -1.0)
    # G(v) >= K(v) for FFs fed by primary inputs (PIs act as p1 sources).
    for ff in graph.pi_fanout:
        model.add_constraint({g_var[ff]: 1.0, k_var[ff]: -1.0}, Sense.GE, 0.0)

    model.set_objective({index: 1.0 for index in g_var.values()})
    return model, g_var, k_var


def _eligible_adjacency(graph: FFGraph) -> dict[str, set[str]]:
    """Undirected adjacency restricted to FFs that may join the MIS."""
    adjacency = graph.undirected_adjacency()
    ineligible = set(graph.pi_fanout)
    ineligible.update(ff for ff in graph.ffs if graph.self_loop(ff))
    eligible = {
        ff: {n for n in neighbours if n not in ineligible}
        for ff, neighbours in adjacency.items()
        if ff not in ineligible
    }
    return eligible


def assignment_from_single_set(
    graph: FFGraph, single: set[str], solver: str, seconds: float, optimal: bool
) -> PhaseAssignment:
    """Extend a single-latch set to a full (G, K) assignment.

    Members of ``single`` get (G=0, K=1).  Every other FF becomes
    back-to-back; it takes K=0 (p3) unless it is a fanout of a single
    latch... which *requires* K=0 anyway, so all non-members default to p3.
    This matches the ILP's freedom: for G(u)=1 both K values are feasible
    unless constrained; p3 is always feasible for b2b FFs.
    """
    group = {ff: 0 if ff in single else 1 for ff in graph.ffs}
    k = {ff: 1 if ff in single else 0 for ff in graph.ffs}
    assignment = PhaseAssignment(
        group=group,
        k=k,
        objective=sum(group.values()),
        solver=solver,
        solve_seconds=seconds,
        optimal=optimal,
    )
    assignment.validate(graph)
    return assignment


def solve_via_mis(graph: FFGraph, node_limit: int = 500_000) -> PhaseAssignment:
    """Exact solve through the MIS reduction (the flow's solver)."""
    start = time.monotonic()
    with obs.span("ilp.solve", solver="mis", ffs=len(graph.ffs)) as sp:
        result = max_independent_set(_eligible_adjacency(graph), node_limit)
        sp.set(chosen=len(result.chosen), exact=result.exact)
    with obs.span("ilp.extract", solver="mis"):
        return assignment_from_single_set(
            graph,
            set(result.chosen),
            solver="mis",
            seconds=time.monotonic() - start,
            optimal=result.exact,
        )


def solve_greedy(graph: FFGraph) -> PhaseAssignment:
    """Heuristic baseline: greedy min-degree independent set."""
    start = time.monotonic()
    adjacency = _eligible_adjacency(graph)
    degree = {ff: len(n) for ff, n in adjacency.items()}
    remaining = set(adjacency)
    single: set[str] = set()
    while remaining:
        ff = min(remaining, key=lambda f: (degree[f], f))
        single.add(ff)
        removed = {ff} | (adjacency[ff] & remaining)
        remaining -= removed
        for gone in removed:
            for neighbour in adjacency[gone]:
                if neighbour in remaining:
                    degree[neighbour] -= 1
    return assignment_from_single_set(
        graph, single, "greedy", time.monotonic() - start, optimal=False
    )


def solve_ilp(graph: FFGraph, time_limit: float = 120.0) -> PhaseAssignment:
    """Solve the paper's ILP directly with HiGHS (the reference solver)."""
    # imported here so that numpy and scipy load only when HiGHS runs
    from repro.ilp import scipy_backend

    with obs.span("ilp.build", backend="scipy") as sp:
        model, g_var, k_var = build_model(graph)
        sp.set(variables=model.num_vars, constraints=len(model.constraints))
    obs.gauge("ilp.variables", model.num_vars)
    obs.gauge("ilp.constraints", len(model.constraints))
    with obs.span("ilp.solve", solver="scipy",
                  variables=model.num_vars) as sp:
        solution = scipy_backend.solve(model, time_limit=time_limit)
        sp.set(status=solution.status.value)

    if not solution.ok:
        raise RuntimeError(
            f"phase-assignment ILP unsolved: status={solution.status}"
        )
    with obs.span("ilp.extract", solver="scipy"):
        group = {ff: solution.values[g_var[ff]] for ff in graph.ffs}
        k = {ff: solution.values[k_var[ff]] for ff in graph.ffs}
        assignment = PhaseAssignment(
            group=group,
            k=k,
            objective=int(round(solution.objective)),
            solver="scipy",
            solve_seconds=solution.solve_seconds,
            optimal=solution.status is SolveStatus.OPTIMAL,
        )
        assignment.validate(graph)
    return assignment


def check_method(method: str) -> None:
    """Raise ``ValueError`` unless ``method`` is an ``assign_phases`` method."""
    if method not in ASSIGN_METHODS:
        raise ValueError(f"unknown assign method {method!r}; "
                         f"known: {', '.join(ASSIGN_METHODS)}")


def assign_phases(module: Module, method: str = "mis") -> PhaseAssignment:
    """End-to-end phase assignment for a FF-based module.

    ``method="mis"`` solves the ILP exactly through one whole-graph MIS;
    ``"greedy"`` is the heuristic ablation baseline.
    """
    check_method(method)
    with obs.span("ilp.graph", design=module.name):
        graph = ff_fanout_map(module)
    obs.gauge("ilp.ffs", len(graph.ffs))
    solve = solve_via_mis if method == "mis" else solve_greedy
    assignment = solve(graph)
    obs.annotate(solver=assignment.solver,
                 objective=assignment.objective,
                 optimal=assignment.optimal)
    return assignment
