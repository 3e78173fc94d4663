"""Traversal tests: topological order, FF graph extraction, clock tracing."""

import pytest

from repro.library.generic import GENERIC
from repro.netlist import bench
from repro.netlist.core import Module
from repro.netlist.traversal import (
    comb_topo_order,
    ff_fanout_map,
    trace_clock_root,
)


class TestTopoOrder:
    def test_respects_dependencies(self, s27):
        order = comb_topo_order(s27)
        position = {name: i for i, name in enumerate(order)}
        for name in order:
            inst = s27.instances[name]
            out_net = inst.conns[inst.cell.output_pin]
            for load in s27.fanout_instances(out_net):
                if load.name in position:
                    assert position[name] < position[load.name]

    def test_cycle_raises(self):
        m = Module("m")
        m.add_net("a")
        m.add_net("b")
        m.add_instance("g1", GENERIC["INV"], {"A": "a", "Y": "b"})
        m.add_instance("g2", GENERIC["INV"], {"A": "b", "Y": "a"})
        with pytest.raises(ValueError, match="cycle"):
            comb_topo_order(m)


class TestFFGraph:
    def test_s27_structure(self, s27):
        graph = ff_fanout_map(s27)
        assert len(graph.ffs) == 3
        by_q = {s27.instances[f].net_of("Q"): f for f in graph.ffs}
        g5, g6, g7 = by_q["G5"], by_q["G6"], by_q["G7"]
        # G5 -> G10? no: G5 feeds G11 (NOR(G5,G9)) -> G10=NOR(G14,G11): G5
        # reaches G10 (D of G5) and G11 ... trace the published netlist:
        assert g5 in graph.fanout[g5]  # G5 -> G11 -> G10 -> D(G5)
        assert g6 in graph.fanout[g6]  # G6 -> G8 -> G15/G16 -> G9 -> G11 ...
        assert g7 in graph.fanout[g7]  # G7 -> G12 -> G13 -> D(G7)
        # PIs reach every FF in s27.
        assert graph.pi_fanout == set(graph.ffs)

    def test_linear_chain_no_self_loops(self):
        text = """
        INPUT(a)
        OUTPUT(q2)
        q1 = DFF(a)
        n1 = NOT(q1)
        q2 = DFF(n1)
        """
        m = bench.loads(text, "chain")
        graph = ff_fanout_map(m)
        ff1 = next(f for f in graph.ffs if m.instances[f].net_of("Q") == "q1")
        ff2 = next(f for f in graph.ffs if m.instances[f].net_of("Q") == "q2")
        assert graph.fanout[ff1] == {ff2}
        assert graph.fanout[ff2] == set()
        assert graph.pi_fanout == {ff1}
        assert not graph.self_loop(ff1)

    def test_undirected_adjacency_symmetric(self, s27):
        graph = ff_fanout_map(s27)
        adj = graph.undirected_adjacency()
        for node, neighbours in adj.items():
            assert node not in neighbours
            for other in neighbours:
                assert node in adj[other]

    def test_fanin_is_transpose(self, s27):
        graph = ff_fanout_map(s27)
        fanin = graph.fanin()
        for src, dsts in graph.fanout.items():
            for dst in dsts:
                assert src in fanin[dst]

    def test_reconvergence_counted_once(self):
        # diamond: ff1 -> two parallel paths -> ff2
        text = """
        INPUT(a)
        OUTPUT(q2)
        q1 = DFF(a)
        n1 = NOT(q1)
        n2 = NOT(q1)
        n3 = AND(n1, n2)
        q2 = DFF(n3)
        """
        m = bench.loads(text, "diamond")
        graph = ff_fanout_map(m)
        ff1 = next(f for f in graph.ffs if m.instances[f].net_of("Q") == "q1")
        assert len(graph.fanout[ff1]) == 1


def _gated_module() -> Module:
    """clk -> buf -> icg -> ff."""
    m = Module("m")
    m.add_input("clk", is_clock=True)
    m.add_input("en")
    m.add_input("d")
    m.add_net("bclk")
    m.add_net("gck")
    m.add_net("q")
    m.add_instance("buf", GENERIC["BUF"], {"A": "clk", "Y": "bclk"})
    m.add_instance("icg", GENERIC["ICG"], {"CK": "bclk", "EN": "en", "GCK": "gck"})
    m.add_instance("ff", GENERIC["DFF"], {"D": "d", "CK": "gck", "Q": "q"})
    m.add_output("z", net_name="q")
    return m


class TestClockTracing:
    def test_direct_clock_has_empty_chain(self, s27):
        ff = s27.flip_flops()[0]
        assert trace_clock_root(s27, ff.net_of("CK")) == ([], "clk")

    def test_traces_through_icg_and_buffer(self):
        m = _gated_module()
        assert trace_clock_root(m, "gck") == (["icg", "buf"], "clk")

    def test_dead_ends_return_the_stopping_net(self):
        m = _gated_module()
        m.add_net("floating")
        m.add_net("data_y")
        m.add_instance("and", GENERIC["AND2"],
                       {"A": "d", "B": "en", "Y": "data_y"})
        # undriven net, missing net, data cell: the trace stops there
        assert trace_clock_root(m, "floating") == ([], "floating")
        assert trace_clock_root(m, "no_such_net") == ([], "no_such_net")
        assert trace_clock_root(m, "data_y") == ([], "data_y")
        # an unconnected clock pin ends the chain with no root net
        m.disconnect("buf", "A")
        assert trace_clock_root(m, "gck") == (["icg", "buf"], None)
        assert trace_clock_root(m, None) == ([], None)

    def test_cycle_raises(self):
        m = Module("loop")
        m.add_net("a")
        m.add_net("b")
        m.add_instance("buf_a", GENERIC["BUF"], {"A": "b", "Y": "a"})
        m.add_instance("inv_b", GENERIC["INV"], {"A": "a", "Y": "b"})
        with pytest.raises(ValueError, match="clock net cycle"):
            trace_clock_root(m, "a")
