"""SMO optimal-scheduling LP tests."""

import pytest

from repro.circuits import build
from repro.circuits.linear import linear_pipeline
from repro.convert import ClockSpec, convert_to_three_phase
from repro.library.fdsoi28 import FDSOI28
from repro.retime import retime_forward
from repro.synth import synthesize
from repro.timing import analyze, minimum_period
from repro.timing.schedule_opt import optimize_schedule


@pytest.fixture(scope="module")
def converted_pipe():
    mapped = synthesize(linear_pipeline(5, width=3, logic_depth=6, seed=4),
                        FDSOI28).module
    result = convert_to_three_phase(mapped, FDSOI28, period=2000.0)
    retime_forward(result.module, result.clocks, FDSOI28, area_pass=False)
    return mapped, result


class TestOptimizeSchedule:
    def test_finds_feasible_schedule(self, converted_pipe):
        _, result = converted_pipe
        opt = optimize_schedule(result.module, result.clocks, hi=4000.0)
        assert opt.feasible
        assert opt.iterations > 1
        # The produced schedule keeps the SMO conventions.
        assert opt.clocks.phase("p3").fall == pytest.approx(opt.period)
        for a, b in (("p1", "p2"), ("p2", "p3")):
            assert not opt.clocks.overlaps(a, b)

    def test_setup_met_at_optimized_schedule(self, converted_pipe):
        _, result = converted_pipe
        opt = optimize_schedule(result.module, result.clocks, hi=4000.0)
        report = analyze(result.module, opt.clocks)
        assert report.setup_ok, str(report)

    def test_not_worse_than_default_schedule(self, converted_pipe):
        _, result = converted_pipe
        default_min = minimum_period(
            result.module, ClockSpec.default_three_phase, 50, 4000)
        opt = optimize_schedule(result.module, result.clocks, hi=4000.0)
        # The LP optimizes edges per design, so it can only match or beat
        # the fixed default schedule (tolerance for bisection grids).
        assert opt.period <= default_min * 1.02

    def test_infeasible_reported(self, converted_pipe):
        _, result = converted_pipe
        opt = optimize_schedule(result.module, result.clocks,
                                lo=1.0, hi=10.0)
        assert not opt.feasible

    def test_on_benchmark_circuit(self):
        mapped = synthesize(build("s1196"), FDSOI28,
                            clock_gating_style="gated").module
        result = convert_to_three_phase(mapped, FDSOI28, period=1000.0)
        opt = optimize_schedule(result.module, result.clocks, hi=2000.0)
        assert opt.feasible
        report = analyze(result.module, opt.clocks)
        assert all(v.kind != "setup" for v in report.violations)
