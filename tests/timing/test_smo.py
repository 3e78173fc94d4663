"""SMO model tests: phase shifts, capture gaps, register windows."""

import pytest

from repro.convert.clocks import ClockSpec
from repro.timing.smo import (
    RegisterTiming,
    capture_gap,
    forward_shift,
    register_timing_for,
)


class TestForwardShift:
    def test_same_phase_gets_full_period(self):
        # E_ii = Tc: the classic FF-to-FF budget.
        assert forward_shift(1000.0, 250.0, 250.0) == pytest.approx(1000.0)

    def test_later_phase_same_cycle(self):
        assert forward_shift(1000.0, 250.0, 1000.0) == pytest.approx(750.0)

    def test_earlier_phase_wraps(self):
        assert forward_shift(1000.0, 1000.0, 625.0) == pytest.approx(625.0)

    def test_three_phase_loop_sums_to_two_periods(self):
        spec = ClockSpec.default_three_phase(1000.0)
        e1 = spec.closing_time("p1")
        e2 = spec.closing_time("p2")
        e3 = spec.closing_time("p3")
        loop = (forward_shift(1000.0, e1, e3)
                + forward_shift(1000.0, e3, e2)
                + forward_shift(1000.0, e2, e1))
        assert loop == pytest.approx(2000.0)


class TestCaptureGap:
    def test_zero_gap_at_coincident_edges(self):
        # p1 opens at 0, p3 closes at T (== 0): the paper's "small (if
        # any) gap between p1 rising and p3 falling".
        assert capture_gap(1000.0, 0.0, 1000.0) == pytest.approx(0.0)

    def test_positive_gap(self):
        # p2 opens at 375; p1 closed at 250: gap 125.
        assert capture_gap(1000.0, 375.0, 250.0) == pytest.approx(125.0)


class TestRegisterTiming:
    def test_ff_is_zero_width_at_rising_edge(self):
        clocks = ClockSpec.single(1000.0)
        t = register_timing_for("f", "DFF", "clk", clocks, setup=40.0)
        assert t.capture == pytest.approx(0.0)
        assert t.width == 0.0
        assert t.opening == pytest.approx(0.0)

    def test_latch_closes_at_fall(self):
        clocks = ClockSpec.default_three_phase(1000.0)
        t = register_timing_for("l", "DLATCH", "p2", clocks)
        assert t.capture == pytest.approx(625.0)
        assert t.opening == pytest.approx(375.0)

    def test_non_register_rejected(self):
        clocks = ClockSpec.single(1000.0)
        with pytest.raises(ValueError):
            register_timing_for("g", "AND", "clk", clocks)
