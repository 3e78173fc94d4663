"""Common-enable p2 clock gating tests (Sec. IV-D, Fig. 3a)."""

import pytest

from repro.cg.common_enable import apply_common_enable_gating, enable_of
from repro.convert import ClockSpec, convert_to_three_phase
from repro.library.cell import CellKind
from repro.library.fdsoi28 import FDSOI28
from repro.library.generic import GENERIC
from repro.netlist import Module, check
from repro.netlist.traversal import seq_fanout_map
from repro.sim import check_equivalent
from repro.synth import synthesize


def enable_bank(n_ffs=8, n_enables=2) -> Module:
    m = Module("bank")
    m.add_input("clk", is_clock=True)
    m.add_input("d0")
    for e in range(n_enables):
        m.add_input(f"en{e}")
    prev = "d0"
    for i in range(n_ffs):
        m.add_net(f"q{i}")
        m.add_net(f"dm{i}")
        m.add_instance(f"mux{i}", GENERIC["MUX2"],
                       {"A": f"q{i}", "B": prev, "S": f"en{i % n_enables}",
                        "Y": f"dm{i}"})
        m.add_instance(f"ff{i}", GENERIC["DFF"],
                       {"D": f"dm{i}", "CK": "clk", "Q": f"q{i}"},
                       attrs={"init": 0})
        prev = f"q{i}"
    m.add_output("z", net_name=prev)
    return m


@pytest.fixture
def converted():
    m = enable_bank()
    syn = synthesize(m, FDSOI28, clock_gating_style="gated").module
    result = convert_to_three_phase(syn, FDSOI28, period=1000.0)
    return m, result


class TestAnalysis:
    def test_fanin_latches_of_follower(self, converted):
        _, result = converted
        fanin = seq_fanout_map(result.module).fanin()
        for follower, leader in result.followers.items():
            assert fanin[follower] == {leader}

    def test_enable_of_traces_icg(self, converted):
        _, result = converted
        for latch in result.module.latches():
            if latch.attrs["phase"] == "p2":
                continue
            enable = enable_of(result.module, latch.name)
            assert enable in ("en0", "en1")

    def test_enable_of_ungated_is_none(self):
        m = Module("plain")
        m.add_input("clk", is_clock=True)
        m.add_input("d")
        m.add_net("q")
        m.add_instance("lat", GENERIC["DLATCH"],
                       {"D": "d", "G": "clk", "Q": "q"})
        m.add_output("z", net_name="q")
        assert enable_of(m, "lat") is None


class TestGating:
    def test_all_followers_gated_with_m1(self, converted):
        _, result = converted
        report = apply_common_enable_gating(result.module, FDSOI28,
                                            use_m1=True)
        check(result.module)
        assert report.gated_latches == len(result.followers)
        assert not report.ungated
        m1_cells = [i for i in result.module.instances.values()
                    if i.cell.op == "ICG_M1"]
        assert len(m1_cells) == report.cg_cells_added
        for cell in m1_cells:
            assert cell.net_of("CK") == "p2"
            assert cell.net_of("PB") == "p3"

    def test_conventional_cells_without_m1(self, converted):
        _, result = converted
        report = apply_common_enable_gating(result.module, FDSOI28,
                                            use_m1=False)
        assert report.gated_latches > 0
        assert not any(i.cell.op == "ICG_M1"
                       for i in result.module.instances.values())

    def test_grouping_by_enable(self, converted):
        _, result = converted
        report = apply_common_enable_gating(result.module, FDSOI28)
        assert set(report.groups) <= {"en0", "en1"}

    def test_max_fanout_splits(self, converted):
        _, result = converted
        report = apply_common_enable_gating(result.module, FDSOI28,
                                            max_fanout=1)
        assert report.cg_cells_added == report.gated_latches

    def test_behaviour_preserved(self, converted):
        original, result = converted
        apply_common_enable_gating(result.module, FDSOI28)
        report = check_equivalent(
            original, ClockSpec.single(1000.0),
            result.module, result.clocks, n_cycles=80,
        )
        assert report.equivalent, str(report)

    def test_mixed_enables_stay_ungated(self):
        # A p2 latch whose fanins are gated by DIFFERENT enables cannot be
        # common-enable gated.
        m = enable_bank(n_ffs=4, n_enables=2)
        syn = synthesize(m, FDSOI28, clock_gating_style="gated").module
        result = convert_to_three_phase(syn, FDSOI28, period=1000.0)
        from repro.retime import retime_forward

        # Force followers deeper so they can see multiple leading latches.
        retime_forward(result.module, result.clocks, FDSOI28,
                       area_pass=True)
        report = apply_common_enable_gating(result.module, FDSOI28)
        check(result.module)
        # Every gated latch's group has a single enable by construction.
        fanin = seq_fanout_map(result.module).fanin()
        for enable, members in report.groups.items():
            for name in members:
                enables = {enable_of(result.module, f) for f in fanin[name]}
                assert enables == {enable}
