"""SolveStatus classification: infeasible vs unbounded vs timeout."""

import numpy as np
import pytest

from repro.ilp import scipy_backend
from repro.ilp.model import IlpModel, Sense, SolveStatus
from repro.ilp.scipy_backend import classify_milp


class TestClassifyMilp:
    def test_optimal(self):
        assert classify_milp(0, True) is SolveStatus.OPTIMAL

    def test_limit_with_incumbent_is_feasible(self):
        assert classify_milp(1, True) is SolveStatus.FEASIBLE

    def test_limit_without_incumbent_is_timeout(self):
        assert classify_milp(1, False) is SolveStatus.TIMEOUT

    def test_infeasible(self):
        assert classify_milp(2, False) is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        assert classify_milp(3, False) is SolveStatus.UNBOUNDED

    def test_numerical_trouble_is_unsolved(self):
        assert classify_milp(4, False) is SolveStatus.UNSOLVED


class TestScipyBackendStatuses:
    def test_infeasible_model(self):
        model = IlpModel("infeasible")
        x = model.add_var("x")
        model.add_constraint({x: 1.0}, Sense.GE, 1.0)
        model.add_constraint({x: 1.0}, Sense.LE, 0.0)
        model.set_objective({x: 1.0})
        solution = scipy_backend.solve(model)
        assert solution.status is SolveStatus.INFEASIBLE
        assert not solution.ok
        assert solution.objective == np.inf

    def test_message_carried_through(self):
        model = IlpModel("ok")
        x = model.add_var("x")
        model.add_constraint({x: 1.0}, Sense.GE, 1.0)
        model.set_objective({x: 1.0})
        solution = scipy_backend.solve(model)
        assert solution.status is SolveStatus.OPTIMAL
        assert isinstance(solution.message, str)

    def test_statuses_are_distinct_members(self):
        # The satellite requirement: no generic-failure conflation.
        assert len({SolveStatus.INFEASIBLE, SolveStatus.UNBOUNDED,
                    SolveStatus.TIMEOUT, SolveStatus.UNSOLVED}) == 4


class TestAssignPhasesErrors:
    def test_unknown_method_rejected(self):
        from repro.circuits import build
        from repro.convert.phase_ilp import assign_phases

        with pytest.raises(ValueError, match="unknown assign method"):
            assign_phases(build("s1488"), method="quantum")
