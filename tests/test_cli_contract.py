"""Shared CLI contract of the static-analysis gates.

``repro lint`` and ``repro verify`` present identically: exit 0 when
clean, 1 when findings reach ``--fail-on``, 2 on usage errors; and
``--format json`` prints one design-level envelope with ``design``,
``results`` and a ``summary`` keyed by severity.  The conventions are
documented once, in ``docs/verify.md``; this suite pins both commands
to them.
"""

import json

import pytest

from repro.cli import main

COMMANDS = ("lint", "verify")


def _inject_lint_error(monkeypatch):
    import dataclasses

    from repro import lint as lint_pkg
    from repro.lint import Finding

    original = lint_pkg.apply_waivers

    def with_error(result, waivers):
        result = original(result, waivers)
        return dataclasses.replace(result, findings=list(result.findings) + [
            Finding("contract.test", "error", "test", "nowhere",
                    "injected for the exit-code contract test"),
        ])

    monkeypatch.setattr("repro.lint.apply_waivers", with_error)


def _inject_verify_error(monkeypatch):
    from repro.verify import ConeResult, VerifyResult

    def fake_check(self):
        return VerifyResult(self.design, self.style, cones=[
            ConeResult("state:x", "violation",
                       detail="injected for the exit-code contract test"),
        ])

    monkeypatch.setattr(
        "repro.verify.cec.EquivalenceChecker.check", fake_check)


_INJECTORS = {"lint": _inject_lint_error, "verify": _inject_verify_error}


@pytest.mark.parametrize("command", COMMANDS)
class TestSharedContract:
    def test_clean_design_exits_zero(self, command, capsys):
        assert main([command, "s1488"]) == 0
        assert capsys.readouterr().out

    def test_unknown_design_exits_two(self, command, capsys):
        assert main([command, "no-such-design"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_json_envelope_shape(self, command, capsys):
        assert main([command, "s1488", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["design"] == "s1488"
        assert isinstance(payload["results"], list) and payload["results"]
        for result in payload["results"]:
            assert "style" in result
        summary = payload["summary"]
        assert summary["error"] == 0
        assert isinstance(summary["warn"], int)

    def test_findings_at_fail_on_exit_one(self, command, capsys,
                                          monkeypatch):
        _INJECTORS[command](monkeypatch)
        assert main([command, "s1488", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["error"] >= 1


@pytest.mark.parametrize("argv", [
    ["run", "nosuch"],
    ["schedule", "nosuch"],
    ["table1", "--designs", "nosuch"],
    ["table2", "--designs", "s1488", "nosuch"],
    ["runtime", "--designs", "nosuch"],
], ids=lambda argv: argv[0])
def test_unknown_design_exits_two(argv, capsys):
    """Every design argument is checked before any work starts: one
    line on stderr, exit 2, no traceback."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "unknown benchmark 'nosuch'" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("cycles,message", [
    ("-5", "must be a positive integer"),
    ("0", "must be a positive integer"),
    ("5", "must exceed the 8-cycle warm-up"),
])
def test_bad_cycles_exit_two_before_the_flow(cycles, message, capsys):
    assert main(["run", "s1488", "--cycles", cycles]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: argument --cycles: {message}")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv,message", [
    (["run", "s1488", "--jobs", "0"],
     "argument --jobs: must be a positive integer, got 0"),
    (["run", "s1488", "--jobs", "two"],
     "argument --jobs: invalid int value: 'two'"),
    (["run", "s1488", "--sim-lanes", "0"], "argument --sim-lanes: must be"),
    (["fig4", "--cycles", "x"], "argument --cycles: invalid int value"),
    (["verify", "s1488", "--conflict-budget", "0"],
     "argument --conflict-budget: must be"),
    (["trace", "trace.json", "--top", "0"], "argument --top: must be"),
    (["serve", "--workers", "0"], "argument --workers: must be"),
    (["serve", "--queue-depth", "0"], "argument --queue-depth: must be"),
], ids=["jobs-0", "jobs-text", "sim-lanes", "fig4-cycles",
        "conflict-budget", "top", "workers", "queue-depth"])
def test_bad_count_exits_two_in_one_line(argv, message, capsys):
    """A count flag that is not a positive integer is one ``error:``
    line and exit 2 -- not argparse's usage block."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv,message", [
    (["serve", "--port", "abc"], "argument --port: invalid int value: 'abc'"),
    (["serve", "--port", "-1"],
     "argument --port: must be a finite number from 0 to 65535, got -1"),
    (["serve", "--port", "70000"], "argument --port: must be"),
    (["serve", "--drain-timeout", "nan"], "argument --drain-timeout: must"),
    (["convert", "--bench", "a.bench", "--out", "a.v", "--period", "inf"],
     "argument --period: must"),
    (["convert", "--bench", "a.bench", "--out", "a.v", "--period", "x"],
     "argument --period: invalid float value: 'x'"),
    (["cache", "stats", "--dir", "d", "--max-age-hours", "-1"],
     "argument --max-age-hours: must"),
], ids=["port-text", "port-negative", "port-too-large", "drain-timeout-nan",
        "period-inf", "period-text", "max-age-negative"])
def test_bad_number_exits_two_in_one_line(argv, message, capsys):
    """A plain number flag that does not parse, or is non-finite,
    negative or out of range, is one ``error:`` line and exit 2 too."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("action", ["stats", "gc", "clear"])
def test_cache_missing_dir_exits_two(action, tmp_path, capsys):
    """Inspecting a cache directory that does not exist is one
    ``error:`` line and exit 2; it must not create the directory and
    report it as an empty cache."""
    missing = tmp_path / "no-such-cache"
    assert main(["cache", action, "--dir", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: no such cache directory: {missing}\n"
    assert not missing.exists()


_BAD_CONVERT_INPUTS = {
    "missing-file": ("absent.bench", None, "No such file"),
    "bench-parse": ("bad.bench", "INPUT(a)\nOUTPUT(z)\nz = FOO(a\n",
                    "cannot parse expression"),
    "blif-table": ("bad.blif", ".model m\n.inputs a b c\n.outputs z\n"
                   ".names a b c z\n101 1\n010 1\n.end\n",
                   "not a standard gate"),
    "comb-cycle": ("cycle.bench",
                   "INPUT(a)\nOUTPUT(z)\nx = AND(a, z)\nz = NOT(x)\n",
                   "combinational cycle"),
    "undriven-net": ("undriven.bench",
                     "INPUT(a)\nOUTPUT(z)\nz = AND(a, nowhere)\n",
                     "[undriven-net] nowhere"),
}


@pytest.mark.parametrize("case", sorted(_BAD_CONVERT_INPUTS))
def test_convert_bad_input_exits_two(case, tmp_path, capsys):
    """Malformed input to ``repro convert`` is one ``error:`` line on
    stderr and exit 2, never a traceback."""
    name, text, message = _BAD_CONVERT_INPUTS[case]
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    source = "--blif" if path.suffix == ".blif" else "--bench"
    assert main(["convert", source, str(path),
                 "--out", str(tmp_path / "out.v")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out.v").exists()


class TestContractIsDocumented:
    def test_docs_state_the_shared_conventions(self):
        from pathlib import Path

        doc = (Path(__file__).parents[1] / "docs" / "verify.md").read_text()
        # one authoritative statement covering both commands
        for needle in ("repro lint", "repro verify", "exit code",
                       "--fail-on", "--format json"):
            assert needle in doc, f"docs/verify.md must mention {needle!r}"


@pytest.mark.parametrize("argv,message", [
    (["--metrics-out", "{missing}/x.prom"],
     "argument --metrics-out: no such directory: {missing}"),
    (["--obs-jsonl", "{missing}/x.jsonl"],
     "argument --obs-jsonl: no such directory: {missing}"),
    (["--trace", "{missing}/x.json"],
     "argument --trace: no such directory: {missing}"),
    (["--metrics-out", "."], "argument --metrics-out: . is a directory"),
    (["--monitor-interval", "0"], "argument --monitor-interval: must be"),
    (["--monitor-interval", "-1"], "argument --monitor-interval: must be"),
], ids=["metrics-out", "obs-jsonl", "trace", "metrics-out-dir",
        "interval-0", "interval-neg"])
def test_bad_observability_flag_exits_two_before_the_flow(
        argv, message, capsys, monkeypatch, tmp_path):
    """An unwritable export path or a non-positive sampling interval is
    one ``error:`` line and exit 2 at argument time, before any flow
    work (which would otherwise run to the end and then fail)."""
    missing = tmp_path / "missing"  # a directory that is never made
    argv = [arg.format(missing=missing) for arg in argv]
    message = message.format(missing=missing)

    def no_flow(*_args, **_kwargs):
        raise AssertionError("the flow started")

    monkeypatch.setattr("repro.cli.compare_styles", no_flow)
    assert main(["run", "s1196", "--cycles", "16", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.strip().splitlines()) == 1
