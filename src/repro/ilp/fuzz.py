"""Seeded random FF-graph generator for differential tests and scale benches.

Real netlists are not Erdos-Renyi: registers mostly talk to nearby
registers (datapath locality) with an occasional long wire (control).
``random_ff_graph`` models that with a *locality window*: FF ``i`` fans
out to FFs drawn uniformly from ``[i - window, i + window]``, which keeps
the eligible graph sparse-but-connected the way placed designs are: below
a fanout density of about 1 it falls into many medium connected
components, above it into one giant component, instead of one giant
clique or 50k isolated vertices.

The generator is fully deterministic in ``seed`` so the differential
suite ("fuzzed graphs agree with monolithic HiGHS") and the
50k-register scale benchmark replay the exact same instances everywhere.
"""

from __future__ import annotations

import random

from repro.netlist.traversal import FFGraph


def random_ff_graph(
    seed: int,
    n_ffs: int,
    fanout_density: float = 1.6,
    self_loop_fraction: float = 0.03,
    pi_fed_fraction: float = 0.05,
    window: int = 40,
) -> FFGraph:
    """Generate a random :class:`FFGraph` with netlist-like locality.

    ``fanout_density`` is the mean number of FF fanouts per FF (drawn per
    FF from a geometric-ish distribution so some registers are hubs);
    ``self_loop_fraction`` of FFs get combinational feedback (ineligible
    for the single-latch group, per the paper's constraint (ii));
    ``pi_fed_fraction`` are fed by primary inputs (ineligible per (iii));
    ``window`` bounds how far fanout edges reach in index space.
    """
    if n_ffs < 0:
        raise ValueError("n_ffs must be non-negative")
    rng = random.Random(seed)
    ffs = [f"ff{i}" for i in range(n_ffs)]
    fanout: dict[str, set[str]] = {name: set() for name in ffs}

    for i, name in enumerate(ffs):
        # Geometric-ish fanout count with mean ~fanout_density: most FFs
        # drive 1-2 others, a few drive many (control fan-out trees).
        count = 0
        p_continue = fanout_density / (1.0 + fanout_density)
        while rng.random() < p_continue:
            count += 1
        lo = max(0, i - window)
        hi = min(n_ffs - 1, i + window)
        for _ in range(count):
            j = rng.randint(lo, hi)
            if j != i:
                fanout[name].add(ffs[j])
        if rng.random() < self_loop_fraction:
            fanout[name].add(name)

    pi_fanout = {name for name in ffs if rng.random() < pi_fed_fraction}
    return FFGraph(ffs=ffs, fanout=fanout, pi_fanout=pi_fanout)
