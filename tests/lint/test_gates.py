"""In-pipeline lint gates: clean designs pass, sabotage fails fast,
results cache, and validate.py stays a faithful compat wrapper."""

import pytest

from repro.circuits import build
from repro.flow import (
    ArtifactCache,
    FlowOptions,
    LintStage,
    Pipeline,
    build_lint_stages,
    run_flow,
)
from repro.flow.pipeline import Stage, SynthStage
from repro.lint import LintGateError


@pytest.fixture(scope="module")
def design():
    return build("s1488")


class TestCleanDesigns:
    @pytest.mark.parametrize("style", ["ff", "ms", "3p", "pulsed"])
    def test_flow_gates_pass_and_collect_results(self, design, style):
        result = run_flow(design, FlowOptions(
            period=1000.0, sim_cycles=16, style=style))
        assert result.lint, style  # every style has at least one gate
        for lint_result in result.lint:
            assert lint_result.errors == 0, (style, lint_result.findings)
        gates = [r.stage for r in result.stages
                 if r.stage.startswith("lint_")]
        assert gates[0] == "lint_synth"
        if style == "3p":
            assert gates == ["lint_synth", "lint_convert",
                             "lint_retime", "lint_cg"]
            # the 3p gates run the full rule families, not structural only
            assert all(lr.rules_run > 7 for lr in result.lint)

    def test_lint_disabled_skips_gates(self, design):
        result = run_flow(design, FlowOptions(
            period=1000.0, sim_cycles=16, style="ff", lint=False))
        assert result.lint == []
        assert not any(r.stage.startswith("lint_") for r in result.stages)

    def test_lint_chain_ends_with_final_gate(self):
        names = [s.name for s in build_lint_stages("3p")]
        assert names[-1] == "lint_final"
        assert "pnr" not in names and "sim" not in names


class _Sabotage(Stage):
    """Deliberately corrupt the netlist (drop a pin connection)."""

    name = "sabotage"

    def run(self, ctx):
        ctx.module = ctx.module.copy()
        inst = next(iter(ctx.module.instances.values()))
        pin = inst.cell.input_pins[0]
        net = ctx.module.nets[inst.conns[pin]]
        del inst.conns[pin]
        net.loads.discard((inst.name, pin))
        return {}


class TestGateFailure:
    def test_gate_names_offending_stage(self, design):
        pipeline = Pipeline(
            [SynthStage(), _Sabotage(), LintStage("sabotage")])
        options = FlowOptions(period=1000.0, style="3p")
        with pytest.raises(LintGateError, match="after stage 'sabotage'"):
            pipeline.run(design.copy(), options)

    def test_gate_error_carries_result(self, design):
        pipeline = Pipeline(
            [SynthStage(), _Sabotage(), LintStage("sabotage")])
        try:
            pipeline.run(design.copy(), FlowOptions(period=1000.0))
        except LintGateError as exc:
            assert exc.stage == "sabotage"
            assert exc.result.errors > 0
            assert "struct.unconnected-pin" in str(exc)
        else:
            pytest.fail("gate did not fire")

    def test_fail_on_none_reports_without_raising(self, design):
        pipeline = Pipeline(
            [SynthStage(), _Sabotage(), LintStage("sabotage")])
        options = FlowOptions(period=1000.0, lint_fail_on=None)
        ctx = pipeline.run(design.copy(), options)
        result = ctx.artifacts["lint_sabotage"]
        assert result.errors > 0


class TestGateCaching:
    def test_warm_run_hits_lint_stages(self, design):
        cache = ArtifactCache()
        options = FlowOptions(period=1000.0, sim_cycles=16, style="3p")
        run_flow(design, options, cache=cache)
        warm = run_flow(design, options, cache=cache)
        lint_records = [r for r in warm.stages
                        if r.stage.startswith("lint_")]
        assert lint_records and all(r.cache_hit for r in lint_records)
        # the cached result is restored, not lost
        assert len(warm.lint) == len(lint_records)

    def test_lint_stage_is_read_only(self, design):
        result = run_flow(design, FlowOptions(
            period=1000.0, sim_cycles=16, style="3p"))
        for record in result.stages:
            if record.stage.startswith("lint_"):
                assert record.input_digest == record.output_digest


class TestValidateCompat:
    def test_clean_check_passes(self, design):
        from repro.netlist import check

        check(design)

    def test_issue_kinds_and_messages_preserved(self, design):
        from repro.netlist import ValidationError, find_issues

        m = design.copy()
        inst = next(iter(m.instances.values()))
        pin = inst.cell.input_pins[0]
        net = m.nets[inst.conns[pin]]
        del inst.conns[pin]
        net.loads.discard((inst.name, pin))
        issues = find_issues(m)
        assert issues
        kinds = {i.kind for i in issues}
        assert "unconnected-pin" in kinds
        [issue] = [i for i in issues if i.kind == "unconnected-pin"]
        assert issue.where == inst.name
        assert issue.message == \
            f"pin {pin} of cell {inst.cell.name} unconnected"
        with pytest.raises(ValidationError, match="unconnected-pin"):
            from repro.netlist import check
            check(m)
