"""Pipeline subsystem tests: staging, telemetry, caching, parallelism."""

import re

import pytest

from repro.circuits import build
from repro.flow import (
    ArtifactCache,
    FlowOptions,
    Pipeline,
    build_pipeline,
    build_stages,
    compare_styles,
    module_digest,
    run_flow,
)
from repro.flow.pipeline import StaStage

_DIGEST = re.compile(r"^[0-9a-f]{16}$")


@pytest.fixture(scope="module")
def design():
    return build("s1488")


@pytest.fixture(scope="module")
def options():
    return FlowOptions(period=1000.0, sim_cycles=24, profile="random")


class TestStageRecords:
    @pytest.fixture(scope="class")
    def result(self, design, options):
        from dataclasses import replace

        return run_flow(design, replace(options, style="3p"))

    def test_every_stage_has_a_record(self, result):
        names = [record.stage for record in result.stages]
        assert names == ["synth", "lint_synth", "ilp", "convert",
                         "lint_convert", "retime", "lint_retime", "cg",
                         "lint_cg", "hold_fix", "pnr", "sta", "sim",
                         "power"]

    def test_records_have_walltime_and_digests(self, result):
        for record in result.stages:
            assert record.wall_time >= 0.0, record.stage
            assert _DIGEST.match(record.input_digest), record.stage
            assert _DIGEST.match(record.output_digest), record.stage
            assert not record.cache_hit  # no cache was passed

    def test_netlist_rewriting_stages_change_the_digest(self, result):
        for record in result.stages:
            # passes that rewrite the netlist vs pure analyses (pnr may
            # go either way: CTS only inserts buffers past the fanout cap)
            if record.stage in ("synth", "convert"):
                assert record.input_digest != record.output_digest, record.stage
            if record.stage in ("ilp", "sta", "sim", "power"):
                assert record.input_digest == record.output_digest, record.stage

    def test_run_s_is_the_stage_body_within_wall_time(self, result):
        for record in result.stages:
            assert 0.0 <= record.run_s <= record.wall_time, record.stage
        assert result.stage_record("pnr") is not None

    def test_sim_stages_report_kernel_throughput(self, result):
        # Both simulation-driven stages must surface the kernel counters.
        for stage_name in ("cg", "sim"):
            summary = result.stage_record(stage_name).summary
            assert summary["sim_events"] > 0, stage_name
            assert summary["sim_events_per_s"] > 0.0, stage_name
            assert summary["sim_compile_s"] >= 0.0, stage_name

    def test_format_stage_records_shows_throughput(self, result):
        from repro.reporting.runtime import format_stage_records

        text = format_stage_records(result)
        assert "Mev/s" in text
        sim_line = next(
            line for line in text.splitlines() if line.lstrip().startswith("sim ")
        )
        assert f"sim {result.stage_record('sim').summary['sim_events']} ev" \
            in sim_line


def _counted(result):
    from repro.reporting.runtime import counts_toward_flow

    return [r.stage for r in result.stages if counts_toward_flow(r.stage)]


class TestRuntimeKeysRegression:
    """What the Sec. V flow time counts: P&R's step timers land in the
    cached ``physical`` artifact (the old monolith started a timer before
    place_and_route and never read it), and the counted stage set stays
    the one the paper's flow timed."""

    def test_pnr_keys_recorded_for_every_style(self, design, options):
        from dataclasses import replace

        for style in ("ff", "ms", "3p", "pulsed"):
            result = run_flow(design, replace(options, style=style,
                                              sim_cycles=20))
            assert set(result.physical.runtime) == {"place", "cts",
                                                    "route"}, style
            pnr = result.stage_record("pnr")
            assert pnr is not None and pnr.wall_time >= 0.0, style

    def test_counted_stages_3p(self, design, options):
        from dataclasses import replace

        result = run_flow(design, replace(options, style="3p"))
        assert _counted(result) == ["synth", "ilp", "convert", "retime",
                                    "cg", "hold_fix", "pnr", "sta", "sim"]

    def test_counted_stages_ff(self, design, options):
        from dataclasses import replace

        result = run_flow(design, replace(options, style="ff"))
        assert _counted(result) == ["synth", "hold_fix", "pnr", "sta", "sim"]

    @pytest.mark.parametrize("style", ["ff", "3p"])
    def test_counted_stages_include_verify(self, design, options, style):
        from dataclasses import replace

        result = run_flow(design, replace(options, style=style,
                                          verify=True))
        assert "verify" in _counted(result)


class TestArtifactCache:
    def test_same_design_and_options_hits(self, design, options):
        from dataclasses import replace

        cache = ArtifactCache()
        opts = replace(options, style="ff", sim_cycles=20)
        first = run_flow(design, opts, cache=cache)
        second = run_flow(design, opts, cache=cache)
        assert cache.misses("synth") == 1
        assert cache.hits("synth") == 1
        assert first.stage_record("synth").cache_hit is False
        assert second.stage_record("synth").cache_hit is True

    def test_changed_option_misses(self, design, options):
        from dataclasses import replace

        cache = ArtifactCache()
        run_flow(design, replace(options, style="ff", sim_cycles=20),
                 cache=cache)
        run_flow(design, replace(options, style="ff", sim_cycles=20,
                                 clock_gating_style="enabled"), cache=cache)
        assert cache.misses("synth") == 2
        assert cache.hits("synth") == 0

    def test_changed_design_misses(self, options):
        from dataclasses import replace

        cache = ArtifactCache()
        opts = replace(options, style="ff", sim_cycles=20)
        run_flow(build("s1488"), opts, cache=cache)
        run_flow(build("s1196"), opts, cache=cache)
        assert cache.misses("synth") == 2

    def test_cached_run_matches_uncached(self, design, options):
        from dataclasses import replace

        opts = replace(options, style="3p")
        plain = run_flow(design, opts)
        cache = ArtifactCache()
        run_flow(design, replace(options, style="ff"), cache=cache)
        warm = run_flow(design, opts, cache=cache)
        assert warm.stage_record("synth").cache_hit
        assert warm.power.total == plain.power.total
        assert warm.area == plain.area
        assert warm.stats.registers == plain.stats.registers


class TestCompareStyles:
    def test_one_synthesis_for_three_styles(self, design, options):
        cache = ArtifactCache()
        compare_styles(design, options, cache=cache)
        assert cache.runs("synth") == 1
        assert cache.hits("synth") == 2

    def test_parallel_equals_sequential_bit_for_bit(self, design, options):
        sequential = compare_styles(design, options)
        parallel = compare_styles(design, options, jobs=3)
        assert sequential.table_row() == parallel.table_row()
        for style in ("ff", "ms", "3p"):
            seq, par = sequential.result(style), parallel.result(style)
            assert [r.stage for r in seq.stages] == \
                [r.stage for r in par.stages]
            assert seq.timing.ok == par.timing.ok

    def test_parallel_still_synthesizes_once(self, design, options):
        cache = ArtifactCache()
        compare_styles(design, options, jobs=3, cache=cache)
        assert cache.runs("synth") == 1


class TestModuleDigest:
    def test_stable_across_copy(self, design):
        assert module_digest(design) == module_digest(design.copy())

    def test_different_designs_differ(self, design):
        assert module_digest(design) != module_digest(build("s1196"))


class TestPipelineWiring:
    def test_missing_producer_rejected(self):
        with pytest.raises(ValueError, match="needs"):
            Pipeline([StaStage()])

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError, match="unknown style"):
            build_pipeline("two-phase")

    def test_chain_shapes(self):
        assert [s.name for s in build_stages("ff")] == [
            "synth", "lint_synth", "clocks", "verify", "resize", "hold_fix",
            "pnr", "sta", "sim", "power"]
        assert [s.name for s in build_stages("3p")] == [
            "synth", "lint_synth", "ilp", "convert", "lint_convert",
            "retime", "lint_retime", "verify", "cg", "lint_cg", "resize",
            "hold_fix", "pnr", "sta", "sim", "power"]


class TestCliJobs:
    def test_run_accepts_jobs(self, capsys):
        from repro.cli import main

        assert main(["run", "s1488", "--cycles", "20", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "3-P total power saving" in out

    def test_table_commands_accept_jobs(self, capsys):
        from repro.cli import main

        assert main(["table1", "--designs", "s1488",
                     "--cycles", "16", "--jobs", "3"]) == 0
        assert "TABLE I" in capsys.readouterr().out
