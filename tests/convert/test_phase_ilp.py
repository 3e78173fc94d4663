"""Conversion ILP tests: formulation, MIS reduction, solver agreement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.random_logic import random_sequential_circuit
from repro.convert.phase_ilp import (
    assign_phases,
    build_model,
    solve_greedy,
    solve_ilp,
    solve_via_mis,
)
from repro.netlist.traversal import FFGraph, ff_fanout_map


def make_graph(edges, ffs=None, pi_fanout=()):
    nodes = sorted({u for u, _ in edges} | {v for _, v in edges} | set(ffs or []))
    graph = FFGraph(ffs=nodes, fanout={n: set() for n in nodes},
                    pi_fanout=set(pi_fanout))
    for u, v in edges:
        graph.fanout[u].add(v)
    return graph


class TestFormulation:
    def test_variable_count(self):
        graph = make_graph([("a", "b")], ffs=["a", "b", "c"])
        model, g_var, k_var = build_model(graph)
        assert model.num_vars == 6
        assert set(g_var) == set(k_var) == {"a", "b", "c"}

    def test_isolated_ff_can_be_single(self):
        graph = make_graph([], ffs=["a"])
        assignment = solve_via_mis(graph)
        assert assignment.objective == 0
        assert assignment.is_single("a")
        assert assignment.leading_phase("a") == "p1"

    def test_self_loop_forces_back_to_back(self):
        graph = make_graph([("a", "a")])
        assignment = solve_via_mis(graph)
        assert assignment.objective == 1
        assert not assignment.is_single("a")

    def test_pi_fed_ff_forced_back_to_back(self):
        graph = make_graph([], ffs=["a"], pi_fanout=["a"])
        for solver in (solve_via_mis(graph), solve_ilp(graph)):
            assert solver.objective == 1

    def test_two_ff_chain_one_single(self):
        graph = make_graph([("a", "b")])
        assignment = solve_via_mis(graph)
        assert assignment.objective == 1
        assert assignment.total_latches == 3

    def test_mutual_feedback_pair(self):
        graph = make_graph([("a", "b"), ("b", "a")])
        assignment = solve_via_mis(graph)
        # Only one of the two can be single.
        assert assignment.objective == 1

    def test_phase_counts_consistent(self):
        graph = make_graph([("a", "b"), ("b", "c")])
        assignment = solve_via_mis(graph)
        counts = assignment.phase_counts()
        assert counts["p1"] + counts["p3"] == 3
        assert counts["p2"] == assignment.num_b2b
        assert assignment.total_latches == sum(counts.values())


class TestSolverAgreement:
    @pytest.mark.parametrize("seed", range(6))
    def test_all_exact_solvers_agree_on_circuits(self, seed):
        module = random_sequential_circuit(
            seed, n_ffs=10, n_gates=40, feedback=0.4
        )
        graph = ff_fanout_map(module)
        mis = solve_via_mis(graph)
        highs = solve_ilp(graph)
        greedy = solve_greedy(graph)
        assert mis.objective == highs.objective
        assert greedy.objective >= mis.objective
        assert mis.total_latches == graph.ffs.__len__() + mis.objective

    @given(st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=15, deadline=None)
    def test_mis_matches_ilp_property(self, seed):
        module = random_sequential_circuit(
            seed, n_ffs=8, n_gates=25, feedback=0.5
        )
        graph = ff_fanout_map(module)
        assert solve_via_mis(graph).objective == solve_ilp(graph).objective


class TestAssignPhases:
    def test_methods_dispatch(self, s27):
        for method in ("mis", "greedy"):
            assignment = assign_phases(s27, method=method)
            assert assignment.num_ffs == 3
            assert assignment.solver == method
        for method in ("gurobi", "scipy"):
            with pytest.raises(ValueError, match="unknown assign method"):
                assign_phases(s27, method=method)

    def test_s27_all_back_to_back(self, s27):
        # Every FF in s27 sits in a combinational feedback loop, so the
        # optimum has no single latches (control-dominated circuit: the
        # paper's s1488 observation in miniature).
        assignment = assign_phases(s27)
        assert assignment.objective == 3
        assert assignment.total_latches == 6
