"""The HiGHS reference backend is exact on small 0-1 programs.

HiGHS is the oracle the phase ILP's MIS solve is checked against
(``tests/ilp/test_differential.py``); here it is itself checked against
brute force on random set-covering-style programs, the family the
paper's ILP belongs to.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ilp import scipy_backend
from repro.ilp.model import IlpModel, Sense, SolveStatus


def brute_force(model: IlpModel) -> float:
    best = math.inf
    for values in itertools.product((0, 1), repeat=model.num_vars):
        values = list(values)
        if model.is_feasible(values):
            best = min(best, model.objective_value(values))
    return best


def random_covering_model(rng: random.Random, n_vars: int, n_cons: int) -> IlpModel:
    model = IlpModel("cover")
    for i in range(n_vars):
        model.add_var(f"x{i}")
    for _ in range(n_cons):
        size = rng.randint(1, min(4, n_vars))
        members = rng.sample(range(n_vars), size)
        model.add_constraint({i: 1.0 for i in members}, Sense.GE, 1.0)
    model.set_objective({i: float(rng.randint(1, 5)) for i in range(n_vars)})
    return model


class TestHighsOracle:
    def test_trivial_empty_model(self):
        solution = scipy_backend.solve(IlpModel())
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == 0.0

    def test_simple_cover(self):
        model = IlpModel()
        x, y, z = (model.add_var(n) for n in "xyz")
        model.add_constraint({x: 1.0, y: 1.0}, Sense.GE, 1.0)
        model.add_constraint({y: 1.0, z: 1.0}, Sense.GE, 1.0)
        model.set_objective({x: 1.0, y: 1.0, z: 1.0})
        solution = scipy_backend.solve(model)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(1.0)  # pick y
        model.check_solution(solution)

    def test_equality_constraints(self):
        model = IlpModel()
        x, y = model.add_var("x"), model.add_var("y")
        model.add_constraint({x: 1.0, y: 1.0}, Sense.EQ, 1.0)
        model.set_objective({x: 1.0, y: 2.0})
        solution = scipy_backend.solve(model)
        assert solution.values == [1, 0]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        model = random_covering_model(rng, rng.randint(3, 9), rng.randint(2, 8))
        solution = scipy_backend.solve(model)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(brute_force(model))
        model.check_solution(solution)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force_property(self, seed):
        rng = random.Random(seed)
        model = random_covering_model(rng, rng.randint(3, 12), rng.randint(2, 12))
        solution = scipy_backend.solve(model)
        assert solution.objective == pytest.approx(brute_force(model))
