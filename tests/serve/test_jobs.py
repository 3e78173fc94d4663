"""The job layer: dedup, backpressure, drain, per-job tracing.

These tests drive :class:`repro.serve.jobs.JobManager` directly (no
HTTP).  Where control over timing matters (queue-full, draining) they
use a stub scheduler whose ``run_tasks`` blocks on an event; the
end-to-end paths run the real thread scheduler on s1488.
"""

import threading
import time

import pytest

from repro.flow.scheduler import JobScheduler
from repro.serve.jobs import (
    DONE,
    FAILED,
    DrainingError,
    JobManager,
    QueueFullError,
    job_key,
    resolve_options,
)

CYCLES = 16


def _wait(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


class BlockingScheduler:
    """run_tasks blocks until released; counts calls."""

    executor_name = "stub"
    jobs = 1
    inflight = 0
    tasks_done = 0

    def __init__(self):
        self.release = threading.Event()
        self.calls = 0

    def occupancy(self):
        return 0.0

    def cache_stats(self):
        return {"hits": 0, "misses": 0}

    def run_tasks(self, tasks, span_name="flow.batch", **attrs):
        self.calls += 1
        assert self.release.wait(timeout=30.0)
        return []


class FailingScheduler(BlockingScheduler):
    def run_tasks(self, tasks, span_name="flow.batch", **attrs):
        raise RuntimeError("synthesized failure")


class TestJobKey:
    def test_stable_and_sensitive(self):
        options = resolve_options("s1488", {"sim_cycles": CYCLES})
        key = job_key("s1488", ("ff", "ms", "3p"), options)
        assert key == job_key("s1488", ("ff", "ms", "3p"), options)
        other = resolve_options("s1488", {"sim_cycles": CYCLES + 1})
        assert key != job_key("s1488", ("ff", "ms", "3p"), other)
        assert key != job_key("s1488", ("ff",), options)

    def test_resolve_options_uses_benchmark_spec(self):
        from repro.circuits import spec

        options = resolve_options("s1488")
        bench = spec("s1488")
        assert options.period == bench.period
        assert options.profile == bench.workload
        assert options.sim_cycles == bench.sim_cycles

    def test_resolve_options_rejects_unknown_and_unsafe_keys(self):
        with pytest.raises(ValueError, match="non-overridable"):
            resolve_options("s1488", {"style": "3p"})
        with pytest.raises(ValueError, match="non-overridable"):
            resolve_options("s1488", {"frobnicate": 1})
        with pytest.raises(KeyError, match="unknown benchmark"):
            resolve_options("nope")


class TestBackpressure:
    def test_queue_full_raises_and_counts(self):
        scheduler = BlockingScheduler()
        manager = JobManager(scheduler, workers=1, queue_depth=1)
        try:
            first, _ = manager.submit("s1488", overrides={"seed": 1})
            _wait(lambda: first.state == "running")
            manager.submit("s1488", overrides={"seed": 2})  # fills the queue
            with pytest.raises(QueueFullError):
                manager.submit("s1488", overrides={"seed": 3})
            assert manager.stats()["jobs"]["rejected"] == 1
        finally:
            scheduler.release.set()
            manager.close()

    def test_draining_rejects_submissions(self):
        scheduler = BlockingScheduler()
        manager = JobManager(scheduler, workers=1, queue_depth=4)
        try:
            manager.begin_drain()
            with pytest.raises(DrainingError):
                manager.submit("s1488")
            assert manager.draining
        finally:
            scheduler.release.set()
            manager.close()

    def test_invalid_submissions_rejected_up_front(self):
        scheduler = BlockingScheduler()
        manager = JobManager(scheduler, workers=1, queue_depth=4)
        try:
            with pytest.raises(ValueError, match="unknown style"):
                manager.submit("s1488", styles=["ff", "nope"])
            with pytest.raises(ValueError, match="duplicate"):
                manager.submit("s1488", styles=["ff", "ff"])
            with pytest.raises(KeyError):
                manager.submit("not-a-design")
        finally:
            scheduler.release.set()
            manager.close()


class TestDedup:
    def test_active_job_deduped_finished_job_not(self):
        scheduler = BlockingScheduler()
        manager = JobManager(scheduler, workers=1, queue_depth=4)
        try:
            job, deduped = manager.submit("s1488")
            assert not deduped
            again, deduped = manager.submit("s1488")
            assert deduped and again.id == job.id
            assert manager.stats()["jobs"]["deduped"] == 1
            scheduler.release.set()
            _wait(lambda: job.state == DONE)
            # the dedup window closes with the job: a resubmission is a
            # new job (it reruns, served from the artifact cache)
            fresh, deduped = manager.submit("s1488")
            assert not deduped and fresh.id != job.id
        finally:
            scheduler.release.set()
            manager.close()

    def test_failed_job_records_error(self):
        manager = JobManager(FailingScheduler(), workers=1, queue_depth=4)
        try:
            job, _ = manager.submit("s1488")
            _wait(lambda: job.state in (DONE, FAILED))
            assert job.state == FAILED
            assert "synthesized failure" in job.error
            assert manager.stats()["jobs"]["failed"] == 1
            events = [e["event"] for e in job.events]
            assert events == ["queued", "started", "finished"]
        finally:
            manager.close()


class TestEndToEnd:
    def test_job_matches_batch_path_and_drains(self, tmp_path):
        with JobScheduler(jobs=2, executor="thread",
                          cache_dir=str(tmp_path / "cache")) as scheduler:
            manager = JobManager(scheduler, workers=2, queue_depth=8,
                                 job_dir=str(tmp_path / "jobs"))
            job, _ = manager.submit("s1488",
                                    overrides={"sim_cycles": CYCLES})
            assert manager.drain()  # waits for the job, blocks intake
            assert job.state == DONE
            assert set(job.rows) == {"ff", "ms", "3p"}

            from repro.circuits import build
            from repro.flow import compare_styles
            batch = compare_styles(
                build("s1488"), resolve_options(
                    "s1488", {"sim_cycles": CYCLES}))
            for style in ("ff", "ms", "3p"):
                ours = job.rows[style]
                ref = batch.result(style)
                assert ours["power"] == ref.power.as_row()
                assert ours["area"] == ref.area
                assert ours["registers"] == ref.registers
            manager.close()

    def test_per_job_trace_scoping_keeps_jobs_apart(self, tmp_path):
        """Two concurrent jobs: each job's JSONL stream holds only its
        own spans (tagged job attrs), even on a shared executor."""
        from repro.obs.summary import load_spans

        with JobScheduler(jobs=2, executor="thread") as scheduler:
            manager = JobManager(scheduler, workers=2, queue_depth=8,
                                 job_dir=str(tmp_path))
            a, _ = manager.submit("s1488", overrides={"sim_cycles": CYCLES,
                                                      "seed": 11})
            b, _ = manager.submit("s1488", overrides={"sim_cycles": CYCLES,
                                                      "seed": 22})
            assert manager.drain()
            manager.close()
        assert a.state == DONE and b.state == DONE
        for job in (a, b):
            spans = load_spans(job.trace_path)
            roots = [s for s in spans if s.name == "job.run"]
            assert len(roots) == 1
            assert roots[0].attrs["job_id"] == job.id
            # a full cold->whatever run nests the compare batch
            assert any(s.name == "flow.compare" for s in spans)

    def test_finished_jobs_pin_no_netlist(self):
        """A finished job keeps its result rows, not its DesignResults:
        nothing the manager holds reaches a netlist, and the daemon's
        ``cache.released`` counter sees the freed ones."""
        import gc
        import types

        from repro.netlist.core import Module
        from repro.obs.promexpo import render

        def modules_reachable(root) -> int:
            seen, stack, found = set(), [root], 0
            skip = (type, types.ModuleType, types.FunctionType)
            while stack:
                obj = stack.pop()
                if id(obj) in seen or isinstance(obj, skip):
                    continue
                seen.add(id(obj))
                if isinstance(obj, Module):
                    found += 1
                else:
                    stack.extend(gc.get_referents(obj))
            return found

        # one worker: each job starts after the last one let go of its
        # results, so every job after the first finds netlists freed
        with JobScheduler(jobs=2, executor="thread") as scheduler:
            manager = JobManager(scheduler, workers=1, queue_depth=8)
            jobs = [manager.submit("s1488", overrides={"sim_cycles": CYCLES,
                                                       "seed": seed})[0]
                    for seed in range(1, 6)]
            assert manager.drain()
            manager.close()
            assert all(job.state == DONE for job in jobs)
            assert all(set(job.rows) == {"ff", "ms", "3p"} for job in jobs)
            assert modules_reachable(manager._jobs) == 0
            released = manager.metrics.value("cache.released")
            assert released == scheduler.cache.released() > 0
            assert f"repro_cache_released_total {int(released)}" in \
                render(manager.metrics)

    def test_a_rerun_job_unpickles_only_its_final_netlists(self, tmp_path):
        """A resubmitted job finds its netlists freed and served pickled
        by the disk tier: it unpickles one final netlist per style, and
        the daemon sums that into ``repro_cache_netlist_loads_total``."""
        from repro.obs.promexpo import render

        with JobScheduler(jobs=1, cache_dir=str(tmp_path)) as scheduler:
            manager = JobManager(scheduler, workers=1, queue_depth=8)
            overrides = {"sim_cycles": CYCLES}
            first, _ = manager.submit("s1488", overrides=overrides)
            _wait(lambda: first.state == DONE)
            assert manager.metrics.value("cache.netlist_loads") == 0
            second, _ = manager.submit("s1488", overrides=overrides)
            assert manager.drain()
            manager.close()
            assert second.state == DONE and second.cache_misses == 0
            for style, row in second.rows.items():
                assert row["power"] == first.rows[style]["power"]
                assert row["area"] == first.rows[style]["area"]
            assert manager.metrics.value("cache.netlist_loads") == 3
            assert "repro_cache_netlist_loads_total 3" in \
                render(manager.metrics)
