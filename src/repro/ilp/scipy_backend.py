"""``scipy.optimize.milp`` (HiGHS) backend for :class:`IlpModel`.

HiGHS is an exact MILP solver, so it plays the role Gurobi plays in the
paper.  The flow solves the phase ILP through its MIS reduction
(:mod:`repro.ilp.mis`); this backend is the reference the test suite and
``benchmarks/bench_ilp.py`` check that path against.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

from repro.ilp.model import IlpModel, Sense, Solution, SolveStatus


def solve(model: IlpModel, time_limit: float = 120.0) -> Solution:
    start = time.monotonic()
    n = model.num_vars
    if n == 0:
        return Solution(SolveStatus.OPTIMAL, [], 0.0)

    c = np.zeros(n)
    for index, coeff in model.objective.items():
        c[index] = coeff

    rows: list[tuple[int, int, float]] = []
    lower: list[float] = []
    upper: list[float] = []
    for constraint in model.constraints:
        row = len(lower)
        if constraint.sense is Sense.LE:
            lower.append(-np.inf)
            upper.append(constraint.rhs)
        elif constraint.sense is Sense.GE:
            lower.append(constraint.rhs)
            upper.append(np.inf)
        else:
            lower.append(constraint.rhs)
            upper.append(constraint.rhs)
        for index, coeff in constraint.coeffs:
            rows.append((row, index, coeff))

    constraints = []
    if lower:
        matrix = csr_matrix(
            ([r[2] for r in rows], ([r[0] for r in rows], [r[1] for r in rows])),
            shape=(len(lower), n),
        )
        constraints.append(LinearConstraint(matrix, lower, upper))

    result = milp(
        c=c,
        constraints=constraints,
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
        options={"time_limit": time_limit},
    )
    elapsed = time.monotonic() - start
    status = classify_milp(result.status, result.x is not None)
    message = getattr(result, "message", "") or ""
    if result.x is None or status in (
            SolveStatus.INFEASIBLE, SolveStatus.UNBOUNDED):
        objective = -np.inf if status is SolveStatus.UNBOUNDED else np.inf
        return Solution(status, [], objective, 0, elapsed, message=message)
    values = [int(round(v)) for v in result.x]
    solution = Solution(status, values, model.objective_value(values), 0,
                        elapsed, message=message)
    model.check_solution(solution)
    return solution


def classify_milp(milp_status: int, has_incumbent: bool) -> SolveStatus:
    """Map ``scipy.optimize.milp``'s integer status to a :class:`SolveStatus`.

    HiGHS reports: 0 = optimal, 1 = iteration/time limit, 2 = infeasible,
    3 = unbounded, 4 = numerical trouble.  A limit stop *with* an
    incumbent is a usable ``FEASIBLE`` answer; without one it is a
    ``TIMEOUT`` (retry with a larger budget), which callers must not
    conflate with ``INFEASIBLE`` (no budget will ever help).
    """
    if milp_status == 0:
        return SolveStatus.OPTIMAL
    if milp_status == 1:
        return SolveStatus.FEASIBLE if has_incumbent else SolveStatus.TIMEOUT
    if milp_status == 2:
        return SolveStatus.INFEASIBLE
    if milp_status == 3:
        return SolveStatus.UNBOUNDED
    return SolveStatus.UNSOLVED
