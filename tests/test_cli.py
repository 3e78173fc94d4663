"""Command-line interface tests."""

import json
import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for argv in (
            ["list"],
            ["run", "s1196"],
            ["table1", "--suite", "iscas"],
            ["table2", "--designs", "s1196", "des3"],
            ["fig4", "--cycles", "40"],
            ["runtime"],
            ["convert", "--bench", "x.bench", "--out", "y.v"],
            ["cache", "stats", "--dir", ".cache", "--format", "json"],
            ["cache", "gc", "--dir", ".cache", "--dry-run"],
            ["serve", "--port", "8080", "--workers", "4",
             "--queue-depth", "8", "--executor", "process"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "s1196" in out and "armm0" in out

    def test_run_small_design(self, capsys):
        assert main(["run", "s1488", "--cycles", "25"]) == 0
        captured = capsys.readouterr()
        assert "registers" in captured.out
        assert "3-P total power saving" in captured.out
        assert "warning:" not in captured.err  # s1488 meets setup

    def test_setup_failures_named_in_one_warning(self, capsys):
        """s13207 fails setup after P&R in every style at its registry
        period: one stderr line names each row with its WNS, and stdout
        keeps all three power rows."""
        assert main(["run", "s13207", "--cycles", "16"]) == 0
        captured = capsys.readouterr()
        warnings = [line for line in captured.err.splitlines()
                    if line.startswith("warning:")]
        assert len(warnings) == 1
        assert re.fullmatch(
            r"warning: setup fails after P&R: s13207/ff WNS -\d+ ps, "
            r"s13207/ms WNS -\d+ ps, s13207/3p WNS -\d+ ps", warnings[0])
        for style in ("ff", "ms", "3p"):
            assert f"  {style:3} power:" in captured.out

    def test_table1_one_design(self, capsys):
        assert main(["table1", "--designs", "s1488", "--cycles", "20"]) == 0
        assert "TABLE I" in capsys.readouterr().out

    def test_jobs_zero_rejected(self, capsys):
        assert main(["run", "s1488", "--jobs", "0"]) == 2
        assert "positive integer" in capsys.readouterr().err

    def test_jobs_negative_rejected(self, capsys):
        assert main(["table1", "--designs", "s1488", "--jobs", "-2"]) == 2
        assert "positive integer" in capsys.readouterr().err

    def test_convert_roundtrip(self, tmp_path, capsys):
        bench_file = tmp_path / "c.bench"
        bench_file.write_text(
            "INPUT(a)\nOUTPUT(q2)\nq1 = DFF(a)\nn1 = NOT(q1)\nq2 = DFF(n1)\n"
        )
        out_file = tmp_path / "c_3p.v"
        assert main(["convert", "--bench", str(bench_file),
                     "--out", str(out_file), "--period", "1000"]) == 0
        text = out_file.read_text()
        assert "DLATCH" in text
        assert "p2" in text
        assert "converted" in capsys.readouterr().out


class TestObservability:
    @pytest.fixture(scope="class")
    def trace_files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("trace")
        chrome, jsonl = tmp / "t.json", tmp / "t.jsonl"
        assert main(["run", "s1488", "--cycles", "16",
                     "--trace", str(chrome),
                     "--obs-jsonl", str(jsonl)]) == 0
        return chrome, jsonl

    def test_trace_flag_writes_chrome_trace(self, trace_files):
        chrome, _ = trace_files
        payload = json.loads(chrome.read_text())
        names = {e["name"] for e in payload["traceEvents"]
                 if e.get("ph") == "X"}
        assert {"flow.compare", "flow.run", "stage.synth",
                "stage.sim"} <= names

    def test_obs_jsonl_flag_writes_spans(self, trace_files):
        _, jsonl = trace_files
        lines = [json.loads(l) for l in jsonl.read_text().splitlines()]
        assert lines[0]["type"] == "meta"
        assert any(l["type"] == "span" and l["name"] == "stage.ilp"
                   for l in lines)

    def test_tracer_uninstalled_after_run(self, trace_files):
        from repro import obs
        assert not obs.enabled()

    @pytest.mark.parametrize("which", [0, 1])
    def test_trace_command_summarizes_both_formats(self, trace_files,
                                                   which, capsys):
        assert main(["trace", str(trace_files[which]), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        assert "per-stage drill-down" in out

    def test_trace_command_missing_file(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.json")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_trace_command_no_spans(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text('{"traceEvents": []}')
        assert main(["trace", str(empty)]) == 1
        assert "no spans" in capsys.readouterr().err

    def test_trace_command_truncated_jsonl(self, tmp_path, capsys):
        """A torn/partial JSONL line exits 1 with a one-line error
        naming the line — no traceback."""
        torn = tmp_path / "torn.jsonl"
        torn.write_text('{"type": "meta", "format": "repro-obs-jsonl-v1"}\n'
                        '{"type": "span", "name": "stage.synth", "ts": 0.0,')
        assert main(["trace", str(torn)]) == 1
        err = capsys.readouterr().err
        assert "cannot read" in err and "line 2" in err
        assert "Traceback" not in err

    def test_trace_command_non_record_jsonl(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("[1, 2, 3]\nnot json at all\n")
        assert main(["trace", str(bad)]) == 1
        assert err_line_count(capsys.readouterr().err) == 1

    def test_trace_command_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", str(empty)]) == 1
        assert "no spans" in capsys.readouterr().err

    def test_trace_format_json_matches_text_path(self, trace_files,
                                                 capsys):
        """``--format json`` emits the same summary the text renderer is
        built from (one serializer, two renderings)."""
        from repro.obs.summary import load_spans
        from repro.reporting import summarize_trace

        assert main(["trace", str(trace_files[1]),
                     "--format", "json", "--top", "5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == summarize_trace(load_spans(str(trace_files[1])),
                                          top=5)
        assert payload["spans"] > 0
        assert len(payload["top"]) <= 5
        assert payload["stages"]  # per-stage drill-down present
        for info in payload["stages"].values():
            assert info["sub_spans"] > 0
            assert info["hottest"]["self_s"] >= 0.0


class TestMonitoredRun:
    """``--monitor`` / ``--metrics-out``: resource accounting and the
    Prometheus snapshot on the batch CLI path."""

    @pytest.fixture(scope="class")
    def monitored_files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("monitored")
        jsonl, prom = tmp / "t.jsonl", tmp / "metrics.prom"
        assert main(["run", "s1488", "--cycles", "16",
                     "--monitor-interval", "0.01",
                     "--obs-jsonl", str(jsonl),
                     "--metrics-out", str(prom)]) == 0
        return jsonl, prom

    def test_stage_spans_carry_resource_attrs(self, monitored_files):
        jsonl, _ = monitored_files
        lines = [json.loads(l) for l in jsonl.read_text().splitlines()]
        stages = [l for l in lines
                  if l["type"] == "span" and l["name"].startswith("stage.")]
        assert stages
        assert all(l["attrs"].get("peak_rss_bytes", 0) > 0 for l in stages)

    def test_jsonl_carries_resource_samples(self, monitored_files):
        jsonl, _ = monitored_files
        lines = [json.loads(l) for l in jsonl.read_text().splitlines()]
        samples = [l for l in lines if l["type"] == "resource"]
        assert samples
        assert all(s["rss_bytes"] > 0 for s in samples)

    def test_metrics_out_snapshot_parses(self, monitored_files):
        from tests.obs.promparse import (
            assert_histogram_invariants,
            parse_exposition,
            sample_values,
        )

        _, prom = monitored_files
        parsed = parse_exposition(prom.read_text())
        assert_histogram_invariants(parsed, "repro_stage_seconds")
        synth = sample_values(parsed, "repro_stage_seconds_count",
                              stage="synth")
        assert synth and synth[0] > 0
        assert_histogram_invariants(parsed, "repro_stage_peak_rss_bytes")
        peak = sample_values(parsed, "repro_process_peak_rss_bytes")
        assert peak and peak[0] > 0


def err_line_count(err: str) -> int:
    return len([line for line in err.splitlines() if line.strip()])


class TestCacheCli:
    @pytest.fixture()
    def cache_dir(self, tmp_path):
        from repro.flow import DiskCache
        cache = DiskCache(tmp_path)
        cache.store(("synth", "a"), b"x" * 1000)
        cache.store(("sim", "b"), b"y" * 1000)
        return str(tmp_path)

    def test_stats_json_uses_shared_serializer(self, cache_dir, capsys):
        assert main(["cache", "stats", "--dir", cache_dir,
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 2
        assert set(payload["stages"]) == {"synth", "sim"}
        # same shape the serve daemon's /statsz embeds
        assert set(payload) == {"root", "entries", "bytes", "stages"}

    def test_gc_dry_run_deletes_nothing(self, cache_dir, capsys):
        from repro.flow import DiskCache
        assert main(["cache", "gc", "--dir", cache_dir,
                     "--max-age-hours", "0", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would remove 2 entries" in out
        assert DiskCache(cache_dir).stats().entries == 2
        # the real pass removes what the dry run promised
        assert main(["cache", "gc", "--dir", cache_dir,
                     "--max-age-hours", "0"]) == 0
        assert "removed 2 entries" in capsys.readouterr().out
        assert DiskCache(cache_dir).stats().entries == 0
