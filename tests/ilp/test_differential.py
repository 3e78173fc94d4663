"""Differential suite: the flow's MIS solve agrees with monolithic HiGHS.

The flow solves the paper's ILP through one whole-graph maximum
independent set (:func:`solve_via_mis`); :func:`solve_ilp` solves the ILP
itself with HiGHS and is the oracle.  Both must report the same
objective on every bundled design, on 200 fuzzed graphs and on
super-critical fuzzed graphs, and the greedy baseline is never better.

The single-latch sets of the flow benchmark's designs are pinned too: a
solver change that picks a different set of the same size still changes
the 3-phase netlist and every number measured on it.
"""

import hashlib

import pytest

from repro.circuits import build, names
from repro.convert.phase_ilp import (
    assign_phases,
    solve_greedy,
    solve_ilp,
    solve_via_mis,
)
from repro.ilp.fuzz import random_ff_graph
from repro.netlist.traversal import ff_fanout_map

#: 200 fuzzed instances: sweep density (sub- to super-critical), size,
#: locality, and ineligible-vertex fractions.
FUZZ_CASES = [
    (seed, 10 + (seed * 7) % 41, 0.4 + (seed % 5) * 0.35, 3 + seed % 12)
    for seed in range(200)
]

#: larger graphs past the percolation point, where the eligible graph is
#: one giant component and the MIS search has to branch; sized so that
#: HiGHS proves optimality in about a second.
SUPERCRITICAL_CASES = [
    (seed, n_ffs, density)
    for density, n_ffs in ((1.2, 500), (2.0, 200))
    for seed in range(4)
]

#: first 8 hex digits of sha1(",".join(sorted(single-latch FFs))).
PINNED_SINGLE_SETS = {
    "s1488": "da39a3ee",
    "s9234": "590ec781",
    "s13207": "a188380b",
    "s38417": "5167db59",
    "des3": "ffd3fdbf",
    "riscv": "32b6471e",
}


def single_set_digest(assignment) -> str:
    single = sorted(ff for ff, group in assignment.group.items() if group == 0)
    return hashlib.sha1(",".join(single).encode()).hexdigest()[:8]


def assert_agrees_with_highs(graph):
    """Return the MIS assignment after checking it against HiGHS."""
    reference = solve_ilp(graph)
    assert reference.optimal
    mis = solve_via_mis(graph)
    assert mis.optimal
    assert mis.objective == reference.objective
    assert solve_greedy(graph).objective >= reference.objective
    return mis


@pytest.mark.parametrize("seed,n_ffs,density,window", FUZZ_CASES)
def test_fuzzed_graph_objectives_agree(seed, n_ffs, density, window):
    assert_agrees_with_highs(random_ff_graph(
        seed=seed, n_ffs=n_ffs, fanout_density=density, window=window,
        self_loop_fraction=0.06, pi_fed_fraction=0.08))


@pytest.mark.parametrize("seed,n_ffs,density", SUPERCRITICAL_CASES)
def test_supercritical_graph_objectives_agree(seed, n_ffs, density):
    assert_agrees_with_highs(random_ff_graph(
        seed=seed, n_ffs=n_ffs, fanout_density=density, window=40))


@pytest.mark.parametrize("design", names())
def test_bundled_benchmark_objectives_agree(design):
    mis = assert_agrees_with_highs(ff_fanout_map(build(design)))
    if design in PINNED_SINGLE_SETS:
        assert single_set_digest(mis) == PINNED_SINGLE_SETS[design]


def test_assign_phases_modes_agree_end_to_end():
    module = build("s13207")
    exact = assign_phases(module)
    assert (exact.solver, exact.optimal) == ("mis", True)
    assert exact.objective == solve_ilp(ff_fanout_map(module)).objective
    assert single_set_digest(exact) == PINNED_SINGLE_SETS["s13207"]
    greedy = assign_phases(module, method="greedy")
    assert greedy.objective >= exact.objective
