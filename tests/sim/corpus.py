"""Netlists shared by the simulator differential tests.

Both differential suites (compiled vs reference, batch lanes vs solo)
run these on top of their randomized circuits, because the random
generators never emit some of the structures the engines' lowering has
to handle:

* :func:`des3_three_phase` -- des3's final 3-phase netlist, with its
  ICG_M1 (external inverted clock), conventional ICG and latch-free
  ICG_AND cells;
* :func:`edge_case_netlist` -- TIE0/TIE1 cells, registers with ``init``,
  a gate whose output is unconnected, and a clock net that also feeds a
  register's D pin.
"""

from __future__ import annotations

from functools import lru_cache

from repro.circuits import build
from repro.convert import ClockSpec
from repro.flow import FlowOptions, run_flow
from repro.library.generic import GENERIC
from repro.netlist.core import Module

PERIOD = 1000.0


@lru_cache(maxsize=1)
def des3_three_phase():
    """``(module, clocks)`` of des3 after the whole 3-phase flow.

    Cached: the flow takes seconds, and the simulators never edit the
    netlist they are handed.
    """
    result = run_flow(build("des3"), FlowOptions(style="3p"))
    return result.module, result.clocks


def edge_case_netlist() -> tuple[Module, ClockSpec]:
    """A small master-slave-clocked netlist of lowering corner cases.

    ``clk`` drives only register clock pins, so on its own it would be a
    capture-group net; but it is also the D input of ``r3`` (clocked by
    ``clkbar``), which demotes it back to generic scanning.
    """
    m = Module("edge_cases")
    for port in ("a", "b"):
        m.add_input(port)
    for port in ("clk", "clkbar"):
        m.add_input(port, is_clock=True)
    for net in ("zero", "one", "n1", "n2", "n3", "q1", "q2", "q3", "q4",
                "y"):
        m.add_net(net)
    lib = GENERIC
    m.add_instance("t0", lib["TIE0"], {"Y": "zero"})
    m.add_instance("t1", lib["TIE1"], {"Y": "one"})
    m.add_instance("g1", lib["AND2"], {"A": "a", "B": "one", "Y": "n1"})
    m.add_instance("g2", lib["OR2"], {"A": "b", "B": "zero", "Y": "n2"})
    m.add_instance("dead", lib["NAND2"], {"A": "a", "B": "b"})  # no Y
    m.add_instance("r1", lib["DFF"], {"D": "n1", "CK": "clk", "Q": "q1"},
                   attrs={"init": 1})
    m.add_instance("r2", lib["DFF"], {"D": "n2", "CK": "clk", "Q": "q2"},
                   attrs={"init": 0})
    m.add_instance("r3", lib["DFF"], {"D": "clk", "CK": "clkbar", "Q": "q3"},
                   attrs={"init": 1})
    m.add_instance("g3", lib["XOR2"], {"A": "q1", "B": "q3", "Y": "n3"})
    m.add_instance("l1", lib["DLATCH"], {"D": "n3", "G": "clkbar", "Q": "q4"},
                   attrs={"init": 0})
    m.add_instance("mux", lib["MUX2"],
                   {"A": "q2", "B": "q4", "S": "q1", "Y": "y"})
    m.add_output("o_mux", "y")
    m.add_output("o_q3", "q3")
    m.add_output("o_n3", "n3")
    return m, ClockSpec.master_slave(PERIOD)


#: name -> builder of ``(module, clocks)``, for test parametrization.
CORPUS = {
    "des3_3p": des3_three_phase,
    "edge_cases": edge_case_netlist,
}
