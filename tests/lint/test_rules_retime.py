"""Retiming-conservation family: latch census and init preservation."""

from repro.lint import run_lint
from repro.retime import RetimeResult, phase_latch_counts

from tests.lint.conftest import add_latch, three_phase_module


def rule_ids(result):
    return {f.rule for f in result.findings}


def _two_latch_module():
    m = three_phase_module()
    q1 = add_latch(m, "l1", "p1", "d")
    add_latch(m, "l2", "p2", q1)
    return m


class TestLatchConservation:
    def test_consistent_result_clean(self):
        m = _two_latch_module()
        counts = phase_latch_counts(m)
        res = RetimeResult(movable_phase="p2",
                           latch_counts_before=counts,
                           latch_counts_after=counts)
        result = run_lint(m, stage="retime", extra={"retime": res})
        assert "retime.latch-conservation" not in rule_ids(result)

    def test_dropped_latch_flagged(self):
        m = _two_latch_module()
        counts = phase_latch_counts(m)  # {'p1': 1, 'p2': 1}
        res = RetimeResult(movable_phase="p2",
                           latch_counts_before=counts,
                           latch_counts_after=counts)
        # sabotage: a pass silently dropped the p2 latch after reporting
        m.remove_instance("l2")
        result = run_lint(m, stage="retime", extra={"retime": res})
        finding = next(
            f for f in result.findings
            if f.rule == "retime.latch-conservation")
        assert finding.severity == "error"
        assert "disagrees" in finding.message

    def test_unreported_delta_flagged(self):
        m = _two_latch_module()
        res = RetimeResult(movable_phase="p2",
                           latch_counts_before={"p1": 1, "p2": 2},
                           latch_counts_after=phase_latch_counts(m),
                           latches_added=0, latches_removed=0)
        result = run_lint(m, stage="retime", extra={"retime": res})
        assert any("latch_delta" in f.message for f in result.findings
                   if f.rule == "retime.latch-conservation")

    def test_nonmovable_phase_change_flagged(self):
        m = _two_latch_module()
        res = RetimeResult(movable_phase="p2",
                           latch_counts_before={"p1": 2, "p2": 0},
                           latch_counts_after=phase_latch_counts(m),
                           latches_added=1, latches_removed=1)
        result = run_lint(m, stage="retime", extra={"retime": res})
        assert any("only p2 latches are movable" in f.message
                   for f in result.findings
                   if f.rule == "retime.latch-conservation")

    def test_rule_skips_without_retime_artifact(self):
        result = run_lint(_two_latch_module(), stage="retime")
        assert "retime.latch-conservation" not in rule_ids(result)


class TestInitPreserved:
    def test_missing_init_flagged(self):
        m = _two_latch_module()
        del m.instances["l2"].attrs["init"]
        result = run_lint(m, stage="final")
        finding = next(
            f for f in result.findings if f.rule == "retime.init-preserved")
        assert finding.where == "l2"
        assert "expected 0 or 1" in finding.message

    def test_binary_inits_clean(self):
        result = run_lint(_two_latch_module(), stage="final")
        assert "retime.init-preserved" not in rule_ids(result)


class TestForwardRetimePopulatesCounts:
    def test_retime_forward_records_census(self):
        from repro.circuits import build
        from repro.convert import convert_to_three_phase
        from repro.library.fdsoi28 import FDSOI28
        from repro.retime import retime_forward
        from repro.synth import synthesize

        syn = synthesize(build("s1488"), FDSOI28,
                         clock_gating_style="gated").module
        converted = convert_to_three_phase(syn, FDSOI28, period=1000.0)
        before = phase_latch_counts(converted.module)
        res = retime_forward(converted.module, converted.clocks, FDSOI28)
        assert res.movable_phase == "p2"
        assert res.latch_counts_before == before
        assert res.latch_counts_after == \
            phase_latch_counts(converted.module)
        assert sum(res.latch_counts_after.values()) - \
            sum(res.latch_counts_before.values()) == res.latch_delta
