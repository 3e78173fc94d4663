"""Hold-fixing pass tests."""

import pytest

from repro.convert import ClockSpec, convert_to_master_slave, convert_to_three_phase
from repro.library.fdsoi28 import FDSOI28
from repro.library.generic import GENERIC
from repro.netlist import Module, check
from repro.sim import check_equivalent
from repro.synth import synthesize
from repro.timing import analyze
from repro.timing.hold_fix import fix_holds


def shift_register(n: int = 5) -> Module:
    """Direct FF-to-FF chain: the classic hold hazard."""
    m = Module("shift")
    m.add_input("clk", is_clock=True)
    m.add_input("d")
    prev = "d"
    for i in range(n):
        q = m.add_net(f"q{i}")
        m.add_instance(f"ff{i}", GENERIC["DFF"],
                       {"D": prev, "CK": "clk", "Q": q.name},
                       attrs={"init": 0})
        prev = q.name
    m.add_output("z", net_name=prev)
    return m


@pytest.fixture
def mapped_shift():
    return synthesize(shift_register(), FDSOI28).module


class TestFixHolds:
    def test_ff_shift_chain_gets_buffers(self, mapped_shift):
        clocks = ClockSpec.single(1000.0)
        report = fix_holds(mapped_shift, clocks, FDSOI28,
                           clock_uncertainty=120.0)
        check(mapped_shift)
        assert report.buffers_added > 0
        assert report.edges_fixed >= 4  # every FF-to-FF hop was short
        assert analyze(mapped_shift, clocks).setup_ok
        assert report.area_added > 0

    def test_fix_actually_clears_violations(self, mapped_shift):
        clocks = ClockSpec.single(1000.0)
        fix_holds(mapped_shift, clocks, FDSOI28, clock_uncertainty=120.0)
        again = fix_holds(mapped_shift, clocks, FDSOI28,
                          clock_uncertainty=120.0)
        assert again.buffers_added == 0

    def test_traces_register_phases_once(self, mapped_shift, monkeypatch):
        """Hold fixing traces the register phases once and leaves setup
        to the caller; the buffered netlist still meets it."""
        from repro.timing import sta

        calls = []
        real = sta.register_phases

        def counting(module, clocks):
            calls.append(module.name)
            return real(module, clocks)

        monkeypatch.setattr(sta, "register_phases", counting)
        clocks = ClockSpec.single(1000.0)
        report = fix_holds(mapped_shift, clocks, FDSOI28,
                           clock_uncertainty=120.0)
        assert report.buffers_added > 0
        assert len(calls) == 1
        assert analyze(mapped_shift, clocks).setup_ok

    def test_behaviour_preserved(self, mapped_shift):
        original = mapped_shift.copy("orig")
        clocks = ClockSpec.single(1000.0)
        fix_holds(mapped_shift, clocks, FDSOI28, clock_uncertainty=120.0)
        report = check_equivalent(original, clocks, mapped_shift, clocks,
                                  n_cycles=30)
        assert report.equivalent, str(report)

    def test_zero_uncertainty_no_buffers(self, mapped_shift):
        clocks = ClockSpec.single(1000.0)
        report = fix_holds(mapped_shift, clocks, FDSOI28,
                           clock_uncertainty=0.0)
        assert report.buffers_added == 0

    def test_three_phase_needs_fewer_exposed_hops(self, mapped_shift):
        """Only the p1->p3 hop shares the FF design's zero gap; every other
        3-phase hop absorbs the skew in its phase gap."""
        ff_copy = mapped_shift.copy("ff")
        ff_report = fix_holds(ff_copy, ClockSpec.single(1000.0), FDSOI28,
                              clock_uncertainty=120.0)
        three = convert_to_three_phase(mapped_shift, FDSOI28, period=1000.0)
        p3_report = fix_holds(three.module, three.clocks, FDSOI28,
                              clock_uncertainty=120.0)
        check(three.module)
        assert p3_report.edges_fixed <= ff_report.edges_fixed

    def test_master_slave_pairs_exempt(self, mapped_shift):
        ms = convert_to_master_slave(mapped_shift, FDSOI28, period=1000.0)
        report = fix_holds(ms.module, ms.clocks, FDSOI28,
                           clock_uncertainty=60.0)
        # master->slave internal edges share a clock point; only the
        # cross-pair hops may need padding.
        for reg in report.per_register:
            inst = ms.module.instances[reg]
            if inst.attrs.get("role") == "slave":
                # a slave's only fanin is its own master: must be exempt
                pytest.fail(f"slave {reg} was padded against its master")
