"""A small 0-1 integer linear program model.

The paper formulates its conversion problem for Gurobi; this project cannot
ship Gurobi, so :class:`IlpModel` captures the same class of models
(binary variables, linear constraints, linear objective) and is solved by
:func:`repro.ilp.scipy_backend.solve` (``scipy.optimize.milp``, HiGHS).
The flow itself solves the phase ILP through its MIS reduction
(:func:`repro.convert.phase_ilp.solve_via_mis`); the HiGHS solve of the
model is the reference that path is checked against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Sense(enum.Enum):
    LE = "<="
    GE = ">="
    EQ = "=="


@dataclass(frozen=True)
class Constraint:
    """``sum(coeff * var) sense rhs`` over variable indexes."""

    coeffs: tuple[tuple[int, float], ...]
    sense: Sense
    rhs: float

    def evaluate(self, values: list[int]) -> bool:
        total = sum(c * values[i] for i, c in self.coeffs)
        if self.sense is Sense.LE:
            return total <= self.rhs + 1e-9
        if self.sense is Sense.GE:
            return total >= self.rhs - 1e-9
        return abs(total - self.rhs) <= 1e-9


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    FEASIBLE = "feasible"  # stopped at a limit with an incumbent
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    TIMEOUT = "timeout"  # hit a time/node limit with no incumbent
    UNSOLVED = "unsolved"  # numerical failure or unclassified backend error


@dataclass
class Solution:
    """Result of a solve: variable values by index plus bookkeeping."""

    status: SolveStatus
    values: list[int]
    objective: float
    nodes_explored: int = 0
    solve_seconds: float = 0.0
    #: backend diagnostic (HiGHS message, limit hit, ...), for error paths.
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)


class IlpModel:
    """Binary-variable minimization model."""

    def __init__(self, name: str = "ilp"):
        self.name = name
        self.var_names: list[str] = []
        self._index: dict[str, int] = {}
        self.constraints: list[Constraint] = []
        self.objective: dict[int, float] = {}

    # -- construction ---------------------------------------------------------

    def add_var(self, name: str) -> int:
        """Declare a binary variable and return its index."""
        if name in self._index:
            raise ValueError(f"duplicate variable {name!r}")
        index = len(self.var_names)
        self.var_names.append(name)
        self._index[name] = index
        return index

    def var(self, name: str) -> int:
        return self._index[name]

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    def add_constraint(
        self, coeffs: dict[int, float], sense: Sense, rhs: float
    ) -> None:
        folded: dict[int, float] = {}
        for index, coeff in coeffs.items():
            if not 0 <= index < self.num_vars:
                raise IndexError(f"variable index {index} out of range")
            folded[index] = folded.get(index, 0.0) + coeff
        self.constraints.append(
            Constraint(tuple(sorted(folded.items())), sense, rhs)
        )

    def set_objective(self, coeffs: dict[int, float]) -> None:
        """Minimization objective (only minimization is supported)."""
        self.objective = dict(coeffs)

    # -- checking ---------------------------------------------------------------

    def objective_value(self, values: list[int]) -> float:
        return sum(c * values[i] for i, c in self.objective.items())

    def is_feasible(self, values: list[int]) -> bool:
        if len(values) != self.num_vars:
            return False
        if any(v not in (0, 1) for v in values):
            return False
        return all(c.evaluate(values) for c in self.constraints)

    def check_solution(self, solution: Solution) -> None:
        """Raise if a claimed-feasible solution violates the model."""
        if not solution.ok:
            return
        if not self.is_feasible(solution.values):
            raise AssertionError(
                f"backend returned an infeasible solution for model {self.name!r}"
            )
        claimed = self.objective_value(solution.values)
        if abs(claimed - solution.objective) > 1e-6:
            raise AssertionError(
                f"objective mismatch: recomputed {claimed}, "
                f"reported {solution.objective}"
            )
