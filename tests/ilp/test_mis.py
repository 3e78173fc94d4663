"""Maximum-independent-set solver tests."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ilp.mis import max_independent_set


def path(n):
    adj = {i: set() for i in range(n)}
    for i in range(n - 1):
        adj[i].add(i + 1)
        adj[i + 1].add(i)
    return adj


def cycle(n):
    adj = path(n)
    adj[0].add(n - 1)
    adj[n - 1].add(0)
    return adj


def complete(n):
    return {i: set(range(n)) - {i} for i in range(n)}


def star(n):
    adj = {i: set() for i in range(n)}
    for i in range(1, n):
        adj[0].add(i)
        adj[i].add(0)
    return adj


def random_graph(rng, n, p):
    adj = {i: set() for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i].add(j)
                adj[j].add(i)
    return adj


def brute_force_mis(adj) -> int:
    nodes = list(adj)
    best = 0
    for r in range(len(nodes), 0, -1):
        if r <= best:
            break
        for subset in itertools.combinations(nodes, r):
            chosen = set(subset)
            if all(not (adj[v] & chosen) for v in chosen):
                best = max(best, r)
                break
    return best


def assert_independent(adj, chosen):
    for node in chosen:
        assert not (adj[node] & chosen), f"{node} has a chosen neighbour"


class TestKnownGraphs:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 1), (5, 3), (8, 4)])
    def test_path(self, n, expected):
        result = max_independent_set(path(n))
        assert result.exact
        assert len(result.chosen) == expected
        assert_independent(path(n), result.chosen)

    @pytest.mark.parametrize("n,expected", [(3, 1), (4, 2), (7, 3)])
    def test_cycle(self, n, expected):
        result = max_independent_set(cycle(n))
        assert len(result.chosen) == expected

    def test_complete_graph(self):
        assert len(max_independent_set(complete(6)).chosen) == 1

    def test_star_takes_leaves(self):
        result = max_independent_set(star(7))
        assert len(result.chosen) == 6
        assert 0 not in result.chosen

    def test_empty_graph(self):
        assert max_independent_set({}).chosen == set()

    def test_isolated_vertices_all_taken(self):
        adj = {i: set() for i in range(5)}
        assert len(max_independent_set(adj).chosen) == 5

    def test_disconnected_components(self):
        adj = path(3)
        adj.update({(10 + k): set() for k in range(2)})
        adj[10].add(11)
        adj[11].add(10)
        result = max_independent_set(adj)
        assert len(result.chosen) == 2 + 1  # path(3) gives 2, edge gives 1


class TestValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self loop"):
            max_independent_set({0: {0}})

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="asymmetric"):
            max_independent_set({0: {1}, 1: set()})


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_graphs(self, seed):
        rng = random.Random(seed)
        adj = random_graph(rng, rng.randint(1, 11), rng.uniform(0.1, 0.6))
        result = max_independent_set(adj)
        assert result.exact
        assert_independent(adj, result.chosen)
        assert len(result.chosen) == brute_force_mis(adj)

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=30, deadline=None)
    def test_random_graphs_property(self, seed):
        rng = random.Random(seed)
        adj = random_graph(rng, rng.randint(1, 10), rng.uniform(0.0, 0.8))
        result = max_independent_set(adj)
        assert_independent(adj, result.chosen)
        assert len(result.chosen) == brute_force_mis(adj)

    def test_node_limit_falls_back_to_greedy(self):
        rng = random.Random(3)
        adj = random_graph(rng, 40, 0.3)
        result = max_independent_set(adj, node_limit=1)
        assert not result.exact
        assert_independent(adj, result.chosen)


#: a perfect matching r0-r1, r2-r3, ... (every vertex a pendant) and a
#: super-critical fuzzed FF graph, whose search branches.
_HASH_SEED_PROBE = """
import hashlib
from repro.convert.phase_ilp import solve_via_mis
from repro.ilp.fuzz import random_ff_graph
from repro.ilp.mis import max_independent_set

matching = {f"r{i}": {f"r{i ^ 1}"} for i in range(8)}
print(sorted(max_independent_set(matching).chosen))
graph = random_ff_graph(seed=1, n_ffs=2000, fanout_density=1.2)
single = sorted(ff for ff, g in solve_via_mis(graph).group.items() if g == 0)
print(hashlib.sha1(",".join(single).encode()).hexdigest())
"""


def test_chosen_set_independent_of_hash_seed():
    """String sets iterate in hash order; the chosen set must not."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    answers = set()
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", _HASH_SEED_PROBE],
                             env=env, capture_output=True, text=True,
                             timeout=120, check=True)
        answers.add(run.stdout)
    assert len(answers) == 1, answers
