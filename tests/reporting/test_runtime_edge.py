"""summarize_runtime edge cases: empty input, all-cache-hit runs,
zero-second records (satellite coverage for repro.reporting.runtime)."""

import pytest

from repro.flow import DesignResult, StageRecord, StyleComparison
from repro.pnr import PhysicalDesign
from repro.reporting import format_runtime, summarize_runtime


def _record(stage, seconds, cache_hit=False):
    return StageRecord(
        stage=stage,
        wall_time=seconds,
        input_digest="0" * 16,
        output_digest="0" * 16,
        cache_hit=cache_hit,
        run_s=seconds,
        summary={"lock_wait_s": 0.0} if cache_hit else {},
    )


def _physical(place, cts, route):
    """P&R result carrying only its step timers (all the report reads)."""
    return PhysicalDesign(placement=None, routing=None, cts=None,
                          runtime={"place": place, "cts": cts, "route": route})


def _result(name, style, records, physical=None):
    """Synthetic DesignResult: summarize_runtime only reads the stage
    records and ``physical.runtime``, so the heavyweight fields stay None."""
    return DesignResult(
        name=name, style=style, module=None, clocks=None, stats=None,
        area=0.0, power=None, timing=None, physical=physical, stages=records,
    )


def _comparison(name, ff, ms, p3):
    return StyleComparison(name=name, ff=ff, ms=ms, three_phase=p3)


class TestEmptyResults:
    def test_summarize_empty_dict(self):
        summary = summarize_runtime({})
        assert summary.per_design == {}
        assert summary.flow_vs_ff_percent == 0.0
        assert summary.flow_vs_ms_percent == 0.0
        assert summary.ilp_share == 0.0
        assert summary.ilp_max_seconds == 0.0
        assert summary.cts_ratio_vs_ff == 0.0
        assert summary.route_vs_ff_percent == 0.0

    def test_format_empty_summary(self):
        text = format_runtime(summarize_runtime({}))
        assert "Sec. V runtime comparison" in text

    def test_results_with_no_stages_and_no_runtime(self):
        cmp = _comparison(
            "empty",
            _result("empty", "ff", []),
            _result("empty", "ms", []),
            _result("empty", "3p", []),
        )
        summary = summarize_runtime({"empty": cmp})
        # zero-division guards: every ratio degrades to 0, not a crash
        assert summary.per_design["empty"]["ff"] == 0.0
        assert summary.flow_vs_ff_percent == 0.0
        assert summary.cts_ratio_vs_ff == 0.0
        assert "empty" in format_runtime(summary)


class TestAllCacheHits:
    def _style(self, name, style, scale):
        records = [
            _record("synth", 0.1 * scale, cache_hit=True),
            _record("lint_synth", 5.0, cache_hit=True),  # not flow time
            _record("ilp", 0.01 * scale, cache_hit=True),
            _record("pnr", 0.2 * scale, cache_hit=True),
            _record("power", 5.0, cache_hit=True),  # not flow time
        ]
        physical = _physical(0.05 * scale, 0.1 * scale, 0.05 * scale)
        return _result(name, style, records, physical)

    def test_cache_hits_counted_and_ratios_survive(self):
        cmp = _comparison(
            "cached",
            self._style("cached", "ff", 1.0),
            self._style("cached", "ms", 1.5),
            self._style("cached", "3p", 3.0),
        )
        summary = summarize_runtime({"cached": cmp})
        row = summary.per_design["cached"]
        assert row["cache_hits"] == 15.0
        assert row["ff"] == pytest.approx(0.31)
        assert row["ilp"] == pytest.approx(0.03)
        assert summary.flow_vs_ff_percent == pytest.approx(200.0)
        assert summary.cts_ratio_vs_ff == pytest.approx(3.0)
        assert summary.route_vs_ff_percent == pytest.approx(200.0)
        assert "cached stages 15" in format_runtime(summary)

    def test_all_hit_lock_wait_present(self):
        result = self._style("cached", "3p", 1.0)
        for record in result.stages:
            assert record.summary["lock_wait_s"] >= 0.0


class TestZeroSeconds:
    def test_records_with_zero_run_s(self):
        records = [_record("synth", 0.0), _record("sta", 0.0)]
        physical = _physical(0.0, 0.0, 0.0)
        cmp = _comparison(
            "bare",
            _result("bare", "ff", records, physical),
            _result("bare", "ms", records, physical),
            _result("bare", "3p", records, physical),
        )
        summary = summarize_runtime({"bare": cmp})
        # all-zero times: zero totals, no division by zero anywhere
        assert summary.per_design["bare"]["3p"] == 0.0
        assert summary.flow_vs_ff_percent == 0.0
        assert summary.ilp_share == 0.0
        assert summary.cts_ratio_vs_ff == 0.0
        assert summary.route_vs_ff_percent == 0.0
