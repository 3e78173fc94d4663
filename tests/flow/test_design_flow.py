"""End-to-end flow tests across the three styles."""

import pytest
from dataclasses import replace

from repro.circuits import build, linear_pipeline
from repro.convert import ClockSpec
from repro.flow import FlowOptions, compare_styles, run_flow
from repro.netlist import check
from repro.sim import check_equivalent


@pytest.fixture(scope="module")
def small_design():
    return build("s1196")


@pytest.fixture(scope="module")
def options():
    return FlowOptions(period=1000.0, sim_cycles=60, profile="random")


@pytest.fixture(scope="module")
def comparison(small_design, options):
    return compare_styles(small_design, options)


class TestRunFlow:
    def test_unknown_style_rejected(self, small_design):
        with pytest.raises(ValueError, match="unknown style"):
            run_flow(small_design, FlowOptions(style="two-phase"))

    def test_too_short_simulation_rejected(self):
        with pytest.raises(ValueError, match="sim_cycles.*warmup_cycles"):
            FlowOptions(sim_cycles=8)
        with pytest.raises(ValueError, match="sim_cycles.*warmup_cycles"):
            FlowOptions(sim_cycles=20, warmup_cycles=20)

    def test_ff_flow_contents(self, comparison):
        result = comparison.ff
        check(result.module)
        assert result.style == "ff"
        assert result.stats.flip_flops > 0
        assert result.stats.latches == 0
        assert result.assignment is None
        assert result.timing.ok
        assert result.power.total > 0
        assert result.stage_record("synth") is not None
        assert result.stage_record("sim") is not None

    def test_ms_flow_contents(self, comparison):
        result = comparison.ms
        check(result.module)
        assert result.stats.flip_flops == 0
        assert result.stats.latches == 2 * comparison.ff.stats.flip_flops
        assert result.clocks.phase_names == ("clk", "clkbar")

    def test_3p_flow_contents(self, comparison):
        result = comparison.three_phase
        check(result.module)
        assert result.stats.flip_flops == 0
        assert result.assignment is not None
        assert result.stats.latches == result.assignment.total_latches \
            + (result.retime.latch_delta if result.retime else 0)
        assert result.clocks.phase_names == ("p1", "p2", "p3")
        assert result.stage_record("ilp") is not None
        assert result.timing.ok

    def test_all_styles_functionally_equivalent(self, small_design,
                                                comparison):
        reference_clocks = ClockSpec.single(1000.0)
        for style in ("ff", "ms", "3p"):
            result = comparison.result(style)
            report = check_equivalent(
                small_design, reference_clocks,
                result.module, result.clocks, n_cycles=50,
            )
            assert report.equivalent, f"{style}: {report}"


class TestComparison:
    def test_reg_counts_and_savings(self, comparison):
        regs = comparison.reg_counts
        assert regs["ms"] == 2 * regs["ff"]
        assert regs["ff"] < regs["3p"] < regs["ms"]
        assert 0 < comparison.reg_saving_vs_2ff < 100
        assert 0 < comparison.reg_saving_vs_ms < 100

    def test_power_savings_structure(self, comparison):
        for base in ("ff", "ms"):
            result = comparison.power_saving_vs(base)
            assert set(result) == {"clock", "seq", "comb", "total"}

    def test_three_phase_saves_clock_power(self, comparison):
        assert comparison.power_saving_vs("ff")["clock"] > 0
        assert comparison.power_saving_vs("ms")["clock"] > 0

    def test_table_row_complete(self, comparison):
        row = comparison.table_row()
        assert row["design"] == "s1196"
        assert set(row["power"]) == {"ff", "ms", "3p"}


class TestFlowVariants:
    def test_no_retime(self):
        design = linear_pipeline(4, width=2, logic_depth=3, seed=1)
        result = run_flow(design, FlowOptions(
            period=4000.0, style="3p", retime=False, sim_cycles=30,
        ))
        assert result.retime is None

    def test_greedy_assignment(self, small_design):
        result = run_flow(small_design, FlowOptions(
            period=1000.0, style="3p", assign_method="greedy", sim_cycles=30,
        ))
        assert result.assignment.solver == "greedy"

    def test_enabled_clock_style(self, small_design):
        result = run_flow(small_design, FlowOptions(
            period=1000.0, style="ff", clock_gating_style="enabled",
            sim_cycles=30,
        ))
        assert result.stats.icgs == 0

    def test_hold_fix_disabled(self, small_design):
        result = run_flow(small_design, FlowOptions(
            period=1000.0, style="ff", clock_uncertainty=0.0, sim_cycles=30,
        ))
        assert result.hold is None


class TestInFlowVerification:
    def test_verify_option_records_equivalence(self, small_design):
        result = run_flow(small_design, FlowOptions(
            period=1000.0, style="3p", sim_cycles=30, verify=True,
        ))
        assert result.verify is not None
        assert result.verify.equivalent
        assert result.stage_record("verify") is not None

    def test_verify_off_by_default(self, small_design):
        result = run_flow(small_design, FlowOptions(
            period=1000.0, style="ff", sim_cycles=20,
        ))
        assert result.verify is None
