"""Executor parity: every backend produces bit-for-bit identical results.

The contract of :mod:`repro.flow.executor`: ``run_suite`` (and
``compare_styles``) return the same results for any ``jobs`` /
``executor`` combination -- the parallelism and the disk cache are pure
performance features.  Comparisons stick to deterministic fields
(digests, power rows, sampled streams, P&R step-timer *names*);
wall-clock values legitimately differ run to run.
"""

import pickle

import pytest

from repro import obs
from repro.flow import ArtifactCache, DiskCache, FlowOptions, run_flow
from repro.flow.executor import make_executor
from repro.obs.tracer import Tracer
from repro.reporting import run_suite, summarize_runtime

DESIGNS = ["s1488"]
CYCLES = 24


def _fingerprint(result):
    """The deterministic identity of a DesignResult."""
    return {
        "name": result.name,
        "style": result.style,
        "area": result.area,
        "registers": result.registers,
        "power_row": result.power.as_row(),
        "stage_digests": [
            (r.stage, r.input_digest, r.output_digest) for r in result.stages
        ],
        "pnr_steps": sorted(result.physical.runtime),
        "samples": result.power.total,
    }


def _suite_fingerprint(results):
    return {
        name: {
            "table_row": row.table_row(),
            "ff": _fingerprint(row.ff),
            "ms": _fingerprint(row.ms),
            "3p": _fingerprint(row.three_phase),
        }
        for name, row in results.items()
    }


@pytest.fixture(scope="module")
def serial_results():
    return run_suite(designs=DESIGNS, sim_cycles=CYCLES, jobs=1)


class TestProcessExecutorParity:
    def test_process_jobs4_equals_jobs1_bit_for_bit(self, serial_results,
                                                    tmp_path):
        parallel = run_suite(designs=DESIGNS, sim_cycles=CYCLES, jobs=4,
                             executor="process", cache_dir=str(tmp_path))
        assert _suite_fingerprint(parallel) == _suite_fingerprint(
            serial_results)

    def test_thread_jobs4_equals_jobs1_bit_for_bit(self, serial_results):
        parallel = run_suite(designs=DESIGNS, sim_cycles=CYCLES, jobs=4,
                             executor="thread")
        assert _suite_fingerprint(parallel) == _suite_fingerprint(
            serial_results)

    def test_process_without_cache_dir_uses_private_tempdir(
            self, serial_results):
        parallel = run_suite(designs=DESIGNS, sim_cycles=CYCLES, jobs=2,
                             executor="process")
        assert _suite_fingerprint(parallel) == _suite_fingerprint(
            serial_results)


class TestWarmCacheRerun:
    def test_second_run_all_hit_and_no_synth_or_sim_work(
            self, serial_results, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_suite(designs=DESIGNS, sim_cycles=CYCLES, jobs=1,
                  cache_dir=cache_dir)

        tracer = Tracer()
        with obs.use_tracer(tracer):
            warm = run_suite(designs=DESIGNS, sim_cycles=CYCLES, jobs=1,
                             cache_dir=cache_dir)

        records = [
            record
            for row in warm.values()
            for result in (row.ff, row.ms, row.three_phase)
            for record in result.stages
        ]
        assert records and all(r.cache_hit for r in records)
        # a hit restores the snapshot without running the producer, so
        # no synthesis or simulation work spans appear
        names = {s.name for s in tracer.spans}
        assert not names & {"sim.run", "sim.compile", "convert.rewrite",
                            "ilp.solve", "pnr.place", "pnr.route"}
        assert _suite_fingerprint(warm) == _suite_fingerprint(serial_results)

    def test_warm_run_keeps_producer_runtime_keys(self, tmp_path):
        """Sec. V ratios survive a warm run: disk hits replay the
        producer's ``run_s`` and P&R step timers, not ~zero wall time, so
        the whole runtime summary is exactly the cold run's."""
        designs = ["s1488", "s1196"]
        cache_dir = str(tmp_path / "cache")
        cold = run_suite(designs=designs, sim_cycles=CYCLES,
                         cache_dir=cache_dir)
        warm = run_suite(designs=designs, sim_cycles=CYCLES,
                         cache_dir=cache_dir)
        for name in designs:
            for style in ("ff", "ms", "3p"):
                cold_r = cold[name].result(style)
                warm_r = warm[name].result(style)
                assert all(r.cache_hit for r in warm_r.stages)
                assert [r.run_s for r in cold_r.stages] == \
                    [r.run_s for r in warm_r.stages]

        def summary(results):
            # everything but the cached-stage count, which a warm run
            # raises by design
            out = summarize_runtime(results)
            for row in out.per_design.values():
                del row["cache_hits"]
            return out

        assert summary(cold) == summary(warm)


class TestCrossProcessTracing:
    def test_worker_spans_merge_into_parent_trace(self, tmp_path):
        tracer = Tracer()
        with obs.use_tracer(tracer):
            run_suite(designs=DESIGNS, sim_cycles=CYCLES, jobs=2,
                      executor="process", cache_dir=str(tmp_path))

        assert len({s.pid for s in tracer.spans}) >= 2
        suite = next(s for s in tracer.spans if s.name == "flow.suite")
        runs = [s for s in tracer.spans if s.name == "flow.run"]
        assert len(runs) == 3
        assert all(r.parent_id == suite.span_id for r in runs)
        # span ids stay unique after the merge and parent links resolve
        ids = [s.span_id for s in tracer.spans]
        assert len(ids) == len(set(ids))
        known = set(ids)
        for span in tracer.spans:
            assert span.parent_id is None or span.parent_id in known
        # worker metrics accumulated into the parent's
        assert tracer.metrics.value("sim.events") > 0


class TestDiskCache:
    def test_corrupt_entry_is_dropped_and_reproduced(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = ("synth", "lib", "digest")
        assert cache.store(key, {"payload": 1})
        entry = next(tmp_path.glob("synth/*/*.pkl"))
        entry.write_bytes(b"not a pickle")
        assert cache.load(key) == (None, 0)
        assert cache.dropped_corrupt == 1
        assert not entry.exists()
        # the producer path re-creates it
        assert cache.store(key, {"payload": 1})
        assert cache.load(key)[0] == {"payload": 1}

    def test_unpicklable_value_degrades_to_no_store(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.store(("stage", "k"), lambda: None) == 0
        assert cache.load(("stage", "k")) == (None, 0)

    def test_stats_gc_clear(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.store(("synth", 1), b"x" * 100)
        cache.store(("sim", 2), b"y" * 100)
        stats = cache.stats()
        assert stats.entries == 2
        assert set(stats.stages) == {"synth", "sim"}
        assert cache.gc(max_age_s=3600.0).entries == 0  # everything is fresh
        # a dry-run pass reports what a real gc would reclaim, deletes
        # nothing, and matches the real pass that follows
        dry = cache.gc(max_age_s=-1.0, dry_run=True)
        assert dry.dry_run and dry.entries == 2 and dry.bytes > 0
        assert cache.stats().entries == 2
        wet = cache.clear()
        assert (wet.entries, wet.bytes) == (dry.entries, dry.bytes)
        assert cache.stats().entries == 0

    def test_stats_to_dict_is_json_ready(self, tmp_path):
        import json

        cache = DiskCache(tmp_path)
        cache.store(("synth", 1), b"x" * 100)
        payload = cache.stats().to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["entries"] == 1
        assert payload["stages"]["synth"]["entries"] == 1

    def test_atomic_store_leaves_no_temp_files(self, tmp_path):
        cache = DiskCache(tmp_path)
        for i in range(5):
            cache.store(("stage", i), list(range(100)))
        assert not list(tmp_path.glob("**/*.tmp*"))

    def test_artifact_cache_disk_tier_counts_hits(self, tmp_path):
        design_key = ("synth", "lib", "d", None, "in", ())
        first = ArtifactCache(disk=DiskCache(tmp_path))
        value, hit, _ = first.get_or_run(design_key, lambda: "artifact")
        assert (value, hit) == ("artifact", False)
        second = ArtifactCache(disk=DiskCache(tmp_path))
        value, hit, _ = second.get_or_run(
            design_key, lambda: pytest.fail("producer must not run"))
        assert (value, hit) == ("artifact", True)
        assert second.disk_hits(design_key[0]) == 1

    def test_payloads_round_trip_by_pickle(self, tmp_path):
        cache = DiskCache(tmp_path)
        payload = {"nested": [1, 2.5, "three", (4,)], "flag": True}
        cache.store(("stage", "rt"), payload)
        loaded, _size = cache.load(("stage", "rt"))
        assert loaded == payload
        assert pickle.dumps(loaded) == pickle.dumps(payload)


class TestMakeExecutor:
    def test_default_backend_choice(self):
        with make_executor(None, 1) as ex:
            assert ex.name == "serial"
        with make_executor(None, 3) as ex:
            assert ex.name == "thread"

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("gpu", 2)

    @pytest.mark.parametrize("jobs", [0, -1, 1.5, "2", None, True])
    def test_bad_jobs_rejected(self, jobs):
        with pytest.raises(ValueError, match="positive integer"):
            make_executor("serial", jobs)

    def test_run_flow_through_each_executor_matches(self, tmp_path):
        from repro.circuits import build
        module = build("s1488")
        options = FlowOptions(period=1000.0, sim_cycles=16, style="ff")
        baseline = run_flow(module, options)
        from repro.flow.executor import FlowTask
        for name in ("serial", "thread", "process"):
            with make_executor(name, 2, cache_dir=str(tmp_path / name)) as ex:
                [result] = ex.map([FlowTask(module, options)],
                                  cache=ArtifactCache())
            assert _fingerprint(result) == _fingerprint(baseline), name
