"""The phase-ILP solver knob rides FlowOptions, the stage cache key, serve
intake and the CLI; the removed scale knobs are rejected cleanly."""

import pytest

from repro import cli
from repro.flow.design_flow import FlowOptions
from repro.flow.pipeline import PhaseIlpStage
from repro.serve.jobs import resolve_options

#: the removed phase-ILP scale knobs, as CLI flags.
REMOVED_FLAGS = ("--ilp-mode", "--ilp-portfolio", "--ilp-partition-cap")


def option_name(flag: str) -> str:
    """The FlowOptions field a CLI flag set (and serve accepted)."""
    return flag[2:].replace("-", "_")


class TestFlowOptions:
    def test_defaults_preserve_legacy_behavior(self):
        options = FlowOptions()
        assert options.assign_method == "mis"
        for flag in REMOVED_FLAGS:
            assert not hasattr(options, option_name(flag))


class TestPhaseIlpStageKey:
    def test_key_covers_every_ilp_knob(self):
        stage = PhaseIlpStage()
        assert (stage.options_key(FlowOptions(assign_method="greedy"))
                != stage.options_key(FlowOptions()))

    def test_key_is_stable_for_equal_options(self):
        stage = PhaseIlpStage()
        assert (stage.options_key(FlowOptions(assign_method="greedy"))
                == stage.options_key(FlowOptions(assign_method="greedy")))


class TestServeOverrides:
    def test_ilp_overrides_accepted(self):
        options = resolve_options("s1488", {"assign_method": "greedy"})
        assert options.assign_method == "greedy"

    def test_unknown_override_still_rejected(self):
        with pytest.raises(ValueError, match="non-overridable"):
            resolve_options("s1488", {"ilp_warp_drive": True})

    def test_removed_knobs_rejected_at_intake(self):
        for flag in REMOVED_FLAGS:
            name = option_name(flag)
            with pytest.raises(ValueError) as exc:
                resolve_options("s1488", {name: "portfolio"})
            assert str(exc.value) == \
                f"unknown or non-overridable option(s): {name}"

    def test_bad_portfolio_spec_rejected_at_intake(self):
        names = sorted(option_name(flag) for flag in REMOVED_FLAGS)
        with pytest.raises(ValueError) as exc:
            resolve_options("s1488", {name: "mis,bb" for name in names})
        assert str(exc.value) == \
            f"unknown or non-overridable option(s): {', '.join(names)}"

    def test_bad_assign_method_rejected_at_intake(self):
        with pytest.raises(ValueError,
                           match="unknown assign method 'gurobi'; "
                                 "known: mis, greedy"):
            resolve_options("s1488", {"assign_method": "gurobi"})


class TestCli:
    @pytest.mark.parametrize("flag", REMOVED_FLAGS)
    def test_removed_flag_is_a_usage_error(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "s1488", flag, "portfolio"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro")
        assert f"unrecognized arguments: {flag} portfolio" in err
