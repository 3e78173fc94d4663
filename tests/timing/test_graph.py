"""Timing-graph extraction detail tests."""

import pytest

from repro.library.generic import GENERIC
from repro.netlist import Module
from repro.timing import PI_SOURCE, PO_SINK, extract_timing_graph


def diamond() -> Module:
    """ff_a feeds ff_b through a short and a long path."""
    m = Module("diamond")
    m.add_input("clk", is_clock=True)
    m.add_input("x")
    for net in ("qa", "qb", "s1", "l1", "l2", "d"):
        m.add_net(net)
    m.add_instance("ffa", GENERIC["DFF"], {"D": "x", "CK": "clk", "Q": "qa"},
                   attrs={"init": 0})
    m.add_instance("gs", GENERIC["BUF"], {"A": "qa", "Y": "s1"})
    m.add_instance("g1", GENERIC["INV"], {"A": "qa", "Y": "l1"})
    m.add_instance("g2", GENERIC["INV"], {"A": "l1", "Y": "l2"})
    m.add_instance("gm", GENERIC["AND2"], {"A": "s1", "B": "l2", "Y": "d"})
    m.add_instance("ffb", GENERIC["DFF"], {"D": "d", "CK": "clk", "Q": "qb"},
                   attrs={"init": 0})
    m.add_output("z", net_name="qb")
    return m


def test_min_and_max_through_reconvergence():
    graph = extract_timing_graph(diamond(), include_ports=False)
    edge = next(e for e in graph.edges if e.src == "ffa" and e.dst == "ffb")
    # min path: ffa -> BUF -> AND; max path: ffa -> INV -> INV -> AND
    assert edge.min_delay < edge.max_delay
    # both include the launching FF's clk->q delay
    dff = GENERIC["DFF"]
    assert edge.min_delay > dff.intrinsic_delay


def test_port_pseudo_registers():
    graph = extract_timing_graph(diamond())
    assert {e.src for e in graph.edges if e.dst == "ffb"} == {"ffa"}
    assert {e.dst for e in graph.edges if e.src == PI_SOURCE} == {"ffa"}
    assert any(e.src == "ffb" and e.dst == PO_SINK for e in graph.edges)


def test_registers_listed():
    graph = extract_timing_graph(diamond())
    assert set(graph.registers) == {"ffa", "ffb"}
