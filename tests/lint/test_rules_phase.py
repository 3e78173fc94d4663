"""Phase-legality family: each broken fixture trips exactly its rule."""

import pytest

from repro.convert.clocks import THREE_PHASE_HOPS
from repro.lint import run_lint
from repro.library.generic import GENERIC

from tests.lint.conftest import add_latch, latch_pair, three_phase_module


def rule_ids(result):
    return {f.rule for f in result.findings}


class TestPathOrder:
    def test_same_phase_path_flagged(self):
        m = latch_pair("p1", "p1")
        result = run_lint(m, stage="final")
        finding = next(
            f for f in result.findings if f.rule == "phase.path-order")
        assert finding.severity == "error"
        assert finding.where == "a -> b"
        assert "p1 -> p1" in finding.message

    def test_p3_to_p1_flagged(self):
        result = run_lint(latch_pair("p3", "p1"), stage="final")
        assert rule_ids(result) == {"phase.path-order"}

    def test_all_legal_hops_clean(self):
        for src, dst in sorted(THREE_PHASE_HOPS):
            result = run_lint(latch_pair(src, dst), stage="final")
            assert not result.findings, (src, dst)


def _buf_loop_gate(m):
    """A gate net driven by a two-buffer loop."""
    m.add_net("loop_a")
    m.add_net("loop_b")
    m.add_instance("buf_a", GENERIC["BUF"], {"A": "loop_b", "Y": "loop_a"})
    m.add_instance("buf_b", GENERIC["BUF"], {"A": "loop_a", "Y": "loop_b"})
    return "loop_a"


def _unconnected_ck_gate(m):
    """A gate net behind an ICG whose CK pin is unconnected."""
    m.add_input("en")
    m.add_net("gck")
    m.add_instance("icg", GENERIC["ICG"], {"EN": "en", "GCK": "gck"})
    return "gck"


def _undriven_gate(m):
    m.add_net("floating")
    return "floating"


class TestLatchPhase:
    def test_wrong_clock_root_flagged(self):
        m = three_phase_module()
        # declares p1 but its gate is wired to the p2 port
        add_latch(m, "lat", "p1", "d", gate_net="p2")
        result = run_lint(m, stage="final")
        finding = next(
            f for f in result.findings if f.rule == "phase.latch-phase")
        assert finding.where == "lat"
        assert "declared phase p1 but clocked from p2" in finding.message

    def test_unknown_phase_flagged(self):
        m = three_phase_module()
        add_latch(m, "lat", "p9", "d", gate_net="p1")
        result = run_lint(m, stage="final")
        assert "phase.latch-phase" in rule_ids(result)

    @pytest.mark.parametrize("build_gate", [
        _buf_loop_gate, _unconnected_ck_gate, _undriven_gate,
    ], ids=["buf-loop", "icg-unconnected-ck", "undriven-net"])
    def test_dead_end_clock_trace_flagged(self, build_gate):
        """A gate net whose clock trace dead-ends is a finding, never an
        exception out of the lint run."""
        m = three_phase_module()
        gate_net = build_gate(m)
        add_latch(m, "lat", "p1", "d", gate_net=gate_net)
        result = run_lint(m, stage="final")
        finding = next(
            f for f in result.findings
            if f.rule == "phase.latch-phase" and f.where == "lat")
        assert "does not trace back to a clock root" in finding.message

    def test_missing_phase_attr_flagged(self):
        m = three_phase_module()
        m.add_net("q")
        m.add_instance("lat", GENERIC["DLATCH"],
                       {"D": "d", "G": "p1", "Q": "q"}, attrs={"init": 0})
        result = run_lint(m, stage="final")
        finding = next(
            f for f in result.findings if f.rule == "phase.latch-phase")
        assert "no phase attribute" in finding.message


class TestGatedClockMixedSinks:
    def test_mixed_phase_sinks_flagged(self):
        m = three_phase_module()
        m.add_input("en")
        m.add_net("gck")
        m.add_instance("icg", GENERIC["ICG"],
                       {"CK": "p1", "EN": "en", "GCK": "gck"})
        add_latch(m, "l1", "p1", "d", gate_net="gck")
        add_latch(m, "l3", "p3", "d", gate_net="gck")
        result = run_lint(m, stage="final")
        finding = next(
            f for f in result.findings
            if f.rule == "phase.gated-clock-mixed-sinks")
        assert finding.where == "icg"
        assert "p1, p3" in finding.message
        # by construction one of the two latches is also mis-clocked
        # (a gated clock has one root), so latch-phase co-fires; the
        # mixed-sink diagnosis is the addition under test.
        assert "phase.latch-phase" in rule_ids(result)

    def test_single_phase_sinks_clean(self):
        m = three_phase_module()
        m.add_input("en")
        m.add_net("gck")
        m.add_instance("icg", GENERIC["ICG"],
                       {"CK": "p1", "EN": "en", "GCK": "gck"})
        add_latch(m, "l1", "p1", "d", gate_net="gck")
        add_latch(m, "l2", "p1", "d", gate_net="gck")
        result = run_lint(m, stage="final")
        assert "phase.gated-clock-mixed-sinks" not in rule_ids(result)


class TestB2bFollower:
    def _b2b(self):
        m = three_phase_module()
        lead_q = add_latch(m, "lead", "p1", "d",
                           group="b2b", role="leading")
        add_latch(m, "follow", "p2", lead_q,
                  group="b2b", role="follower")
        return m

    def test_intact_group_clean(self):
        result = run_lint(self._b2b(), stage="convert")
        assert "phase.b2b-follower" not in rule_ids(result)

    def test_extra_load_flagged(self):
        m = self._b2b()
        m.add_net("tap")
        m.add_instance("tap_inv", GENERIC["INV"],
                       {"A": "lead_q", "Y": "tap"})
        result = run_lint(m, stage="convert")
        finding = next(
            f for f in result.findings if f.rule == "phase.b2b-follower")
        assert finding.where == "lead"
        assert "2 load(s)" in finding.message

    def test_follower_on_wrong_phase_flagged(self):
        m = self._b2b()
        m.instances["follow"].attrs["phase"] = "p3"
        m.reconnect("follow", "G", "p3")
        result = run_lint(m, stage="convert")
        assert any(f.rule == "phase.b2b-follower" and
                   "expected p2" in f.message for f in result.findings)

    def test_rule_only_gates_convert(self):
        m = self._b2b()
        m.add_net("tap")
        m.add_instance("tap_inv", GENERIC["INV"],
                       {"A": "lead_q", "Y": "tap"})
        result = run_lint(m, stage="final")
        assert "phase.b2b-follower" not in rule_ids(result)
