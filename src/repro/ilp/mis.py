"""Exact maximum independent set by branch-and-reduce.

The paper's conversion ILP reduces to a maximum independent set (MIS)
problem on the FF adjacency graph (see :mod:`repro.convert.phase_ilp` for
the proof sketch); FF graphs are sparse, which branch-and-reduce exploits:

* the graph first splits into connected components, solved independently;
* degree-0 vertices are always taken; for a degree-1 vertex, taking it is
  always at least as good as taking its neighbour (mirror argument);
* otherwise branch on a maximum-degree vertex ``v``: either ``v`` is
  excluded, or ``v`` is included and its whole neighbourhood excluded.

The solver is exact; a ``node_limit`` guards pathological instances by
finishing greedily (reported via ``exact=False``).  The reductions visit
vertices in adjacency insertion order and ties are broken by name, so the
chosen set does not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Hashable, Iterable

Node = Hashable
Adjacency = dict[Node, set[Node]]


@dataclass
class MisResult:
    chosen: set[Node]
    exact: bool
    nodes_explored: int


def _components(adj: Adjacency) -> Iterable[set[Node]]:
    seen: set[Node] = set()
    for start in adj:
        if start in seen:
            continue
        component = {start}
        stack = [start]
        seen.add(start)
        while stack:
            node = stack.pop()
            for neighbour in adj[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    component.add(neighbour)
                    stack.append(neighbour)
        yield component


def _greedy(adj: Adjacency, alive: set[Node]) -> set[Node]:
    """Min-degree greedy independent set on the induced subgraph."""
    degree = {v: sum(1 for u in adj[v] if u in alive) for v in alive}
    remaining = set(alive)
    chosen: set[Node] = set()
    while remaining:
        node = min(remaining, key=lambda v: (degree[v], str(v)))
        chosen.add(node)
        removed = {node} | (adj[node] & remaining)
        remaining -= removed
        for gone in removed:
            for neighbour in adj[gone]:
                if neighbour in remaining:
                    degree[neighbour] -= 1
    return chosen


class _Search:
    def __init__(self, adj: Adjacency, node_limit: int):
        self.adj = adj
        self.node_limit = node_limit
        # vertex sets iterate in hash order; walk them in insertion order
        self.rank = {node: i for i, node in enumerate(adj)}
        self.nodes = 0
        self.exact = True

    def solve(self, alive: set[Node]) -> set[Node]:
        self.nodes += 1
        if self.nodes > self.node_limit:
            self.exact = False
            return _greedy(self.adj, alive)
        if not alive:
            return set()

        # Reductions, in rounds: take every vertex that is isolated or a
        # pendant when the round starts, dropping its one neighbour.
        # Degrees only fall, so a vertex stays eligible within its round,
        # and only neighbours of dropped vertices can join the next one.
        chosen: set[Node] = set()
        alive = set(alive)
        order = sorted(alive, key=self.rank.__getitem__)
        candidates = order
        while candidates:
            pendants = [v for v in candidates if len(self.adj[v] & alive) <= 1]
            dropped: set[Node] = set()
            for node in pendants:
                if node not in alive:
                    continue
                neighbours = self.adj[node] & alive
                chosen.add(node)
                alive.discard(node)
                alive -= neighbours
                dropped |= neighbours
            touched: set[Node] = set()
            for node in dropped:
                touched |= self.adj[node] & alive
            candidates = sorted(touched, key=self.rank.__getitem__)
        if not alive:
            return chosen
        order = [v for v in order if v in alive]

        # Decompose what is left.
        sub_adj = {v: self.adj[v] & alive for v in order}
        components = list(_components(sub_adj))
        if len(components) > 1:
            for component in components:
                chosen |= self._branch(component)
            return chosen
        return chosen | self._branch(alive)

    def _branch(self, alive: set[Node]) -> set[Node]:
        pivot = max(alive, key=lambda v: (len(self.adj[v] & alive), str(v)))
        # Branch 1: include pivot, exclude its neighbourhood.
        with_pivot = {pivot} | self.solve(alive - {pivot} - self.adj[pivot])
        # Branch 2: exclude pivot.
        without_pivot = self.solve(alive - {pivot})
        return with_pivot if len(with_pivot) >= len(without_pivot) else without_pivot


def max_independent_set(adj: Adjacency, node_limit: int = 500_000) -> MisResult:
    """Exact MIS of the undirected graph given as an adjacency dict.

    The adjacency must be symmetric and irreflexive (no self loops).
    Past ``node_limit`` search nodes the result is greedily completed and
    reported via ``exact=False``.
    """
    for node, neighbours in adj.items():
        if node in neighbours:
            raise ValueError(f"self loop at {node!r}; remove self-loop nodes first")
        for other in neighbours:
            if node not in adj.get(other, ()):
                raise ValueError(f"asymmetric adjacency between {node!r} and {other!r}")
    search = _Search(adj, node_limit)
    # The branch recursion removes at least one vertex per level, so its
    # depth is bounded by |V|; lift CPython's default 1000-frame cap for
    # multi-thousand-vertex graphs.
    needed = 2 * len(adj) + 512
    previous = sys.getrecursionlimit()
    if needed > previous:
        sys.setrecursionlimit(needed)
    try:
        chosen = search.solve(set(adj))
    finally:
        if needed > previous:
            sys.setrecursionlimit(previous)
    return MisResult(chosen=chosen, exact=search.exact, nodes_explored=search.nodes)
