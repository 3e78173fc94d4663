"""Solver ablation: the Gurobi-substitution check (DESIGN.md A3).

The MIS reduction (the flow's solver) and HiGHS (the reference) must
agree on the optimum over the benchmark FF graphs; the greedy heuristic
is never better.  pytest-benchmark records per-backend solve time.

Also runnable standalone as the CPU-scale benchmark::

    PYTHONPATH=src python benchmarks/bench_ilp.py --registers 50000

which times the whole-graph MIS solve against monolithic HiGHS on one
fuzzed FF graph and writes ``BENCH_ilp.json`` at the repo root for the
CI perf gate.
"""

from __future__ import annotations

import argparse
from time import perf_counter

import pytest

from conftest import emit, run_once, write_bench_json
from repro.circuits import build
from repro.convert.phase_ilp import solve_greedy, solve_ilp, solve_via_mis
from repro.ilp.fuzz import random_ff_graph
from repro.library import FDSOI28
from repro.netlist.traversal import ff_fanout_map
from repro.synth import synthesize

#: representative graphs: small FSM-ish, mid control, larger pipelined.
_DESIGNS = ["s1488", "s1196", "s5378", "s13207", "des3", "plasma"]


@pytest.fixture(scope="module")
def graphs():
    out = {}
    for name in _DESIGNS:
        mapped = synthesize(build(name), FDSOI28,
                            clock_gating_style="gated").module
        out[name] = ff_fanout_map(mapped)
    return out


@pytest.mark.parametrize("backend", ["mis", "scipy", "greedy"])
def test_solver_backend(benchmark, backend, graphs, out_dir):
    solvers = {
        "mis": solve_via_mis,
        "scipy": solve_ilp,
        "greedy": solve_greedy,
    }
    solve = solvers[backend]

    def run_all():
        return {name: solve(graph) for name, graph in graphs.items()}

    t0 = perf_counter()
    results = run_once(benchmark, run_all)
    wall = perf_counter() - t0
    write_bench_json(f"ilp_{backend}", {
        "bench": f"ilp_{backend}",
        "wall_s": round(wall, 4),
        "solve": {name: {"solve_s": round(a.solve_seconds, 6),
                         "objective": a.objective}
                  for name, a in results.items()},
    })

    optimum = {name: solve_via_mis(graph).objective
               for name, graph in graphs.items()}
    lines = [f"ILP backend {backend}:"]
    for name, assignment in results.items():
        lines.append(
            f"  {name:8} objective {assignment.objective:5d} "
            f"(optimum {optimum[name]:5d}) in "
            f"{assignment.solve_seconds * 1e3:8.1f} ms"
        )
        if backend == "greedy":
            assert assignment.objective >= optimum[name]
        else:
            assert assignment.objective == optimum[name], name
    emit(out_dir, f"ilp_{backend}.txt", "\n".join(lines))


def bench_scale(registers: int, density: float, seed: int, window: int,
                mono_time_limit: float, skip_mono: bool) -> dict:
    """Whole-graph MIS vs monolithic HiGHS on one fuzzed FF graph."""
    graph = random_ff_graph(seed=seed, n_ffs=registers,
                            fanout_density=density, window=window)
    print(f"fuzzed graph: {registers} registers, density {density}, "
          f"seed {seed}, window {window}")

    t0 = perf_counter()
    mis = solve_via_mis(graph)
    mis_wall = perf_counter() - t0
    assert mis.optimal, "the MIS search hit its node limit"
    print(f"MIS: objective {mis.objective} in {mis_wall:.3f}s")

    record = {
        "bench": "ilp",
        "registers": registers,
        "fanout_density": density,
        "seed": seed,
        "mis": {
            "wall_s": round(mis_wall, 4),
            "objective": mis.objective,
        },
    }

    if not skip_mono:
        t0 = perf_counter()
        mono = solve_ilp(graph, time_limit=mono_time_limit)
        mono_wall = perf_counter() - t0
        if mono.optimal:
            assert mono.objective == mis.objective, (
                "exact solvers disagree: monolithic HiGHS "
                f"{mono.objective} vs MIS {mis.objective}")
        else:
            # HiGHS hit its limit: its incumbent cannot beat the optimum.
            assert mono.objective >= mis.objective
        print(f"monolithic HiGHS: objective {mono.objective} in "
              f"{mono_wall:.3f}s (optimal: {mono.optimal})")
        record["mono"] = {
            "wall_s": round(mono_wall, 4),
            "objective": mono.objective,
            "optimal": int(mono.optimal),
            "time_limit": mono_time_limit,
        }

    from repro.bench.recorder import write_bench_json as write_record
    path = write_record("ilp", record)
    print(f"wrote {path}")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--registers", type=int, default=50_000,
                        help="fuzzed FF-graph size (default 50000)")
    parser.add_argument("--density", type=float, default=0.5,
                        help="mean fanout edges per FF (default 0.5)")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--window", type=int, default=40,
                        help="edge locality window of the fuzzer")
    parser.add_argument("--mono-time-limit", type=float, default=300.0,
                        help="wall cap for the monolithic HiGHS reference")
    parser.add_argument("--skip-mono", action="store_true",
                        help="skip the monolithic HiGHS reference solve")
    args = parser.parse_args(argv)
    bench_scale(args.registers, args.density, args.seed, args.window,
                args.mono_time_limit, args.skip_mono)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
