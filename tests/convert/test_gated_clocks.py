"""Gated-clock duplication during conversion (Sec. IV-B)."""

import pytest

from repro.convert import ClockSpec, convert_to_three_phase
from repro.library.cell import CellKind
from repro.library.fdsoi28 import FDSOI28
from repro.library.generic import GENERIC
from repro.netlist import Module, check
from repro.sim import check_equivalent
from repro.synth import synthesize


def enable_bank(n_ffs=6, n_enables=2) -> Module:
    """FFs with recirculating muxes on shared enables + a free-running FF."""
    m = Module("enbank")
    m.add_input("clk", is_clock=True)
    m.add_input("d0")
    for e in range(n_enables):
        m.add_input(f"en{e}")
    prev = "d0"
    for i in range(n_ffs):
        m.add_net(f"q{i}")
        m.add_net(f"dm{i}")
        m.add_instance(
            f"mux{i}", GENERIC["MUX2"],
            {"A": f"q{i}", "B": prev, "S": f"en{i % n_enables}", "Y": f"dm{i}"},
        )
        m.add_instance(
            f"ff{i}", GENERIC["DFF"],
            {"D": f"dm{i}", "CK": "clk", "Q": f"q{i}"}, attrs={"init": 0},
        )
        prev = f"q{i}"
    m.add_net("free_q")
    m.add_net("free_d")
    m.add_instance("inv", GENERIC["INV"], {"A": prev, "Y": "free_d"})
    m.add_instance("free", GENERIC["DFF"],
                   {"D": "free_d", "CK": "clk", "Q": "free_q"}, attrs={"init": 0})
    m.add_output("z", net_name="free_q")
    m.add_output("z2", net_name=prev)
    return m


@pytest.fixture
def gated_design():
    m = enable_bank()
    return m, synthesize(m, FDSOI28, clock_gating_style="gated")


def test_conversion_duplicates_icgs_per_phase(gated_design):
    _, syn = gated_design
    result = convert_to_three_phase(syn.module, FDSOI28, period=1000.0)
    check(result.module)
    icgs = [i for i in result.module.instances.values()
            if i.cell.kind is CellKind.ICG]
    # Each surviving ICG is a phase clone.
    assert icgs, "expected ICGs in the converted design"
    phases = {i.attrs.get("phase") for i in icgs}
    assert phases <= {"p1", "p2", "p3"}
    # Latches sharing enable AND phase share one clone: clone count is
    # bounded by (#enables x #phases used).
    assert len(icgs) <= 2 * 3


def test_gated_latch_clock_roots(gated_design):
    _, syn = gated_design
    result = convert_to_three_phase(syn.module, FDSOI28, period=1000.0)
    from repro.netlist.traversal import trace_clock_root

    for latch in result.module.latches():
        _, root = trace_clock_root(result.module, latch.net_of("G"))
        # Chains end at one of the new phase ports.
        assert root in ("p1", "p2", "p3")


def test_gated_three_phase_equivalent(gated_design):
    original, syn = gated_design
    result = convert_to_three_phase(syn.module, FDSOI28, period=1000.0)
    report = check_equivalent(
        original, ClockSpec.single(1000.0), result.module, result.clocks,
        n_cycles=80,
    )
    assert report.equivalent, str(report)


def test_original_icgs_swept(gated_design):
    _, syn = gated_design
    before_icgs = {
        name for name, inst in syn.module.instances.items()
        if inst.cell.kind is CellKind.ICG
    }
    result = convert_to_three_phase(syn.module, FDSOI28, period=1000.0)
    assert not (before_icgs & set(result.module.instances))
