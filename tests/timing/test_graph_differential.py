"""Differential test of the timing-graph extractor against the cone DP.

:func:`~repro.timing.graph.extract_timing_graph` propagates per-source
arrival windows through the combinational gates in one topological
pass.  The oracle here is the extractor it replaced, which ran a
separate heap-ordered cone DP from every source.  Min and max are exact
and the per-source operations are the same, so both must give the same
registers and the same sorted edge list, floats equal bit for bit, with
and without ports and wire loads, on:

* every netlist the extractor receives while ``compare_styles`` runs
  s1488, s9234 and des3;
* the synthesized netlist of every bundled design;
* fuzzed random circuits, in FF form and after 3-phase conversion;
* hand-built corner cases.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import replace

import pytest

from repro.circuits import build, names
from repro.circuits.random_logic import random_sequential_circuit
from repro.circuits.registry import spec
from repro.convert import convert_to_three_phase
from repro.flow import FlowOptions, compare_styles
from repro.library.fdsoi28 import FDSOI28
from repro.library.generic import GENERIC
from repro.netlist import Module
from repro.netlist.core import PortRef
from repro.netlist.traversal import comb_topo_order
from repro.synth import synthesize
from repro.timing import PI_SOURCE, PO_SINK, extract_timing_graph
from repro.timing import constraints, corners, graph, hold_fix, schedule_opt, sta
from repro.timing.delay import cell_delay


def cone_dp_timing_graph(
    module: Module,
    wire_caps: dict[str, float] | None = None,
    include_ports: bool = True,
) -> graph.TimingGraph:
    """The replaced extractor: one cone-restricted DP per source."""
    topo = comb_topo_order(module)
    topo_index = {name: i for i, name in enumerate(topo)}
    delays = {
        name: cell_delay(module, module.instances[name], wire_caps)
        for name in module.instances
    }

    registers = [i.name for i in module.sequential_instances()]
    sources: list[tuple[str, str, float]] = []  # (name, start net, launch delay)
    for name in registers:
        inst = module.instances[name]
        q_net = inst.conns.get("Q")
        if q_net is not None:
            sources.append((name, q_net, delays[name]))
    if include_ports:
        for port in module.data_input_ports():
            sources.append((PI_SOURCE, port, 0.0))

    # Gate fanout of each net, precomputed once.
    net_gates: dict[str, list[str]] = {net: [] for net in module.nets}
    for name in topo:
        inst = module.instances[name]
        for pin in inst.cell.input_pins:
            net = inst.conns.get(pin)
            if net is not None:
                net_gates[net].append(name)

    edges: dict[tuple[str, str], tuple[float, float]] = {}

    for src_name, start_net, launch in sources:
        min_arr: dict[str, float] = {start_net: launch}
        max_arr: dict[str, float] = {start_net: launch}
        # Cone-restricted sweep: visit only gates reachable from the start
        # net, in topological order (heap keyed by topo index), each once.
        heap = [(topo_index[g], g) for g in net_gates[start_net]]
        heapq.heapify(heap)
        queued = {g for _, g in heap}
        while heap:
            _, gate_name = heapq.heappop(heap)
            inst = module.instances[gate_name]
            in_nets = [inst.conns.get(p) for p in inst.cell.input_pins]
            out_net = inst.conns.get(inst.cell.output_pin)
            if out_net is None:
                continue
            delay = delays[gate_name]
            lo = min(min_arr[n] for n in in_nets if n in min_arr) + delay
            hi = max(max_arr[n] for n in in_nets if n in max_arr) + delay
            min_arr[out_net] = min(min_arr.get(out_net, lo), lo)
            max_arr[out_net] = max(max_arr.get(out_net, hi), hi)
            for nxt in net_gates[out_net]:
                if nxt not in queued:
                    queued.add(nxt)
                    heapq.heappush(heap, (topo_index[nxt], nxt))

        # Harvest sinks.
        sinks: dict[str, tuple[float, float]] = {}
        for net_name, hi in max_arr.items():
            lo = min_arr[net_name]
            for ref in module.nets[net_name].loads:
                if isinstance(ref, PortRef):
                    if include_ports:
                        _accumulate(sinks, PO_SINK, lo, hi)
                    continue
                sink = module.instances[ref.instance]
                if sink.is_sequential and ref.pin == "D":
                    _accumulate(sinks, sink.name, lo, hi)
        for dst, (lo, hi) in sinks.items():
            key = (src_name, dst)
            if key in edges:
                old_lo, old_hi = edges[key]
                edges[key] = (min(old_lo, lo), max(old_hi, hi))
            else:
                edges[key] = (lo, hi)

    return graph.TimingGraph(
        registers=registers,
        edges=[
            graph.SeqEdge(src, dst, lo, hi)
            for (src, dst), (lo, hi) in sorted(edges.items())
        ],
    )


def _accumulate(
    sinks: dict[str, tuple[float, float]], name: str, lo: float, hi: float
) -> None:
    if name in sinks:
        old_lo, old_hi = sinks[name]
        sinks[name] = (min(old_lo, lo), max(old_hi, hi))
    else:
        sinks[name] = (lo, hi)


def _edge_tuples(timing_graph):
    return [(e.src, e.dst, e.min_delay, e.max_delay)
            for e in timing_graph.edges]


def _synthetic_wire_caps(module: Module) -> dict[str, float]:
    """A deterministic, uneven wire load on every net."""
    return {net: 0.5 + 0.25 * (i % 7) for i, net in enumerate(module.nets)}


def _mismatches(module, wire_caps=None, extract=extract_timing_graph):
    """The (include_ports, wire_caps) variants on which the extractor
    differs from the oracle, compared with ``==`` (no tolerance)."""
    caps_variants = [None, wire_caps or _synthetic_wire_caps(module)]
    bad = []
    for include_ports in (True, False):
        for caps in caps_variants:
            new = extract(module, caps, include_ports)
            old = cone_dp_timing_graph(module, caps, include_ports)
            if (new.registers != old.registers
                    or _edge_tuples(new) != _edge_tuples(old)):
                bad.append((module.name, include_ports, caps is not None))
    return bad


def assert_matches_oracle(module, wire_caps=None):
    assert _mismatches(module, wire_caps) == []


# -- netlists seen by the flow ----------------------------------------------------

#: modules that bind ``extract_timing_graph`` by name.
_CALLERS = (sta, hold_fix, corners, constraints, schedule_opt)


@pytest.mark.parametrize("design", ["s1488", "s9234", "des3"])
def test_every_flow_extraction_matches_oracle(design, monkeypatch):
    original = graph.extract_timing_graph
    seen = []
    bad = []

    def checked(module, wire_caps=None, include_ports=True):
        seen.append(module.name)
        bad.extend(_mismatches(module, wire_caps, original))
        return original(module, wire_caps, include_ports)

    for caller in _CALLERS:
        monkeypatch.setattr(caller, "extract_timing_graph", checked)
    bench = spec(design)
    options = replace(FlowOptions(), period=bench.period,
                      profile=bench.workload, sim_cycles=16)
    compare_styles(build(design), options)
    assert len(seen) >= 3  # at least one STA per style
    assert bad == []


# -- synthesized bundled designs ----------------------------------------------------


#: aes (9.7k FFs, 100k gates) takes about 45 s on a 2-core host to
#: synthesize and compare four ways; it is checked when
#: ``REPRO_VERIFY_SWEEP=1``.
_SWEEP_MIN_GATES = 50_000
_FULL = os.environ.get("REPRO_VERIFY_SWEEP") == "1"


@pytest.mark.parametrize("design", names())
def test_synthesized_designs_match_oracle(design):
    if spec(design).structure.n_gates >= _SWEEP_MIN_GATES and not _FULL:
        pytest.skip("set REPRO_VERIFY_SWEEP=1 to check the largest designs")
    module = synthesize(build(design), FDSOI28).module
    assert_matches_oracle(module)


# -- fuzzed circuits ----------------------------------------------------------------


@pytest.mark.parametrize("seed", range(100))
def test_random_circuits_match_oracle(seed):
    module = random_sequential_circuit(
        seed,
        n_ffs=4 + seed % 13,
        n_gates=10 + (seed * 7) % 60,
        n_inputs=1 + seed % 5,
        n_outputs=1 + seed % 4,
        feedback=0.2 + 0.1 * (seed % 6),
        enable_fraction=0.1 + 0.1 * (seed % 4),
    )
    assert_matches_oracle(module)
    converted = convert_to_three_phase(module, FDSOI28, period=1000.0).module
    assert_matches_oracle(converted)


# -- hand-built corner cases ----------------------------------------------------------


def _corner_module(name: str) -> Module:
    m = Module(name)
    m.add_input("clk", is_clock=True)
    m.add_input("x")
    m.add_input("y")
    return m


def test_gate_with_unconnected_output():
    m = _corner_module("dangling")
    m.add_net("q")
    m.add_net("d")
    m.add_instance("ff", GENERIC["DFF"], {"D": "d", "CK": "clk", "Q": "q"})
    m.add_instance("dead", GENERIC["AND2"], {"A": "q", "B": "x"})
    m.add_instance("live", GENERIC["INV"], {"A": "q", "Y": "d"})
    assert_matches_oracle(m)
    graph_ = extract_timing_graph(m, include_ports=False)
    assert [(e.src, e.dst) for e in graph_.edges] == [("ff", "ff")]


def test_register_without_q():
    m = _corner_module("no_q")
    m.add_net("d")
    m.add_instance("g", GENERIC["AND2"], {"A": "x", "B": "y", "Y": "d"})
    m.add_instance("ff", GENERIC["DFF"], {"D": "d", "CK": "clk"})
    assert_matches_oracle(m)
    graph_ = extract_timing_graph(m)
    assert graph_.registers == ["ff"]
    assert [(e.src, e.dst) for e in graph_.edges] == [(PI_SOURCE, "ff")]


def test_gate_reading_one_net_on_two_pins():
    m = _corner_module("twice")
    for net in ("q", "n1", "d"):
        m.add_net(net)
    m.add_instance("ff", GENERIC["DFF"], {"D": "d", "CK": "clk", "Q": "q"})
    m.add_instance("g1", GENERIC["AND2"], {"A": "q", "B": "q", "Y": "n1"})
    m.add_instance("g2", GENERIC["XOR2"], {"A": "n1", "B": "x", "Y": "d"})
    m.add_output("z", net_name="n1")
    assert_matches_oracle(m)


def test_port_wired_straight_to_d():
    m = _corner_module("feedthrough")
    m.add_net("q")
    m.add_instance("ff", GENERIC["DFF"], {"D": "x", "CK": "clk", "Q": "q"})
    m.add_output("z", net_name="x")
    assert_matches_oracle(m)
    edges = {(e.src, e.dst): (e.min_delay, e.max_delay)
             for e in extract_timing_graph(m).edges}
    assert edges == {(PI_SOURCE, "ff"): (0.0, 0.0),
                     (PI_SOURCE, PO_SINK): (0.0, 0.0)}


def test_q_net_that_is_also_a_primary_output():
    m = _corner_module("q_out")
    for net in ("q", "d"):
        m.add_net(net)
    m.add_instance("ff", GENERIC["DFF"], {"D": "d", "CK": "clk", "Q": "q"})
    m.add_instance("g", GENERIC["OR2"], {"A": "q", "B": "x", "Y": "d"})
    m.add_output("z", net_name="q")
    assert_matches_oracle(m)
    dsts = {e.dst for e in extract_timing_graph(m).edges if e.src == "ff"}
    assert dsts == {"ff", PO_SINK}


def test_combinational_cycle_raises():
    m = _corner_module("loop")
    for net in ("a", "b"):
        m.add_net(net)
    m.add_instance("g1", GENERIC["AND2"], {"A": "x", "B": "b", "Y": "a"})
    m.add_instance("g2", GENERIC["INV"], {"A": "a", "Y": "b"})
    with pytest.raises(ValueError, match="combinational cycle"):
        extract_timing_graph(m)
