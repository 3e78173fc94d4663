"""Extra constraint-verification coverage across all converted styles."""

import pytest

from repro.circuits import build
from repro.convert import (
    ClockSpec,
    convert_to_master_slave,
    convert_to_pulsed_latch,
    convert_to_three_phase,
)
from repro.library.fdsoi28 import FDSOI28
from repro.synth import synthesize
from repro.netlist.traversal import register_phases
from repro.timing import check_conversion_constraints, extract_timing_graph


@pytest.fixture(scope="module")
def mapped():
    return synthesize(build("s1196"), FDSOI28).module


def test_master_slave_satisfies_c2(mapped):
    ms = convert_to_master_slave(mapped, FDSOI28, 1000.0)
    report = check_conversion_constraints(mapped, ms.module, ms.clocks)
    # M-S with complementary 50% clocks: no connected pair overlaps.
    assert report.c1_ok  # slaves keep the FF instance names
    assert report.c2_ok
    assert report.c3_ok


def test_pulsed_violates_c2(mapped):
    """Every pulsed latch shares one window: C2 cannot hold -- the formal
    reason the paper's constraints exclude the pulsed style."""
    pl = convert_to_pulsed_latch(mapped, FDSOI28, 1000.0)
    report = check_conversion_constraints(mapped, pl.module, pl.clocks)
    assert report.c1_ok
    assert not report.c2_ok
    assert report.c2_overlaps


def test_phase_tracing_through_cts_buffers(mapped):
    from repro.pnr import place, synthesize_clock_trees

    result = convert_to_three_phase(mapped, FDSOI28, period=1000.0)
    work = result.module
    synthesize_clock_trees(work, FDSOI28, place(work), max_fanout=4)
    # even behind buffer trees, every latch still traces to its phase
    phases = register_phases(work, result.clocks)
    for latch in work.latches():
        assert phases[latch.name] == latch.attrs["phase"]


def test_unknown_clock_root_raises(mapped):
    result = convert_to_three_phase(mapped, FDSOI28, period=1000.0)
    wrong_spec = ClockSpec.master_slave(1000.0)  # no p1/p2/p3 phases
    with pytest.raises(ValueError, match="not a phase"):
        register_phases(result.module, wrong_spec)
