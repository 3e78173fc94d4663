"""Shutdown and cancellation: no orphaned workers, no leaked locks.

The executor contract on the unhappy path: an exception while
collecting a batch (a failed flow, a KeyboardInterrupt) cancels every
not-yet-started task; ``close()`` / leaving the ``with`` block reaps
worker processes; an interrupted producer releases its disk-cache
sidecar lock so the next run isn't wedged.
"""

import os
import subprocess
import sys
import threading

import pytest

from repro.flow import ArtifactCache, DiskCache, FlowOptions
from repro.flow.executor import FlowTask, make_executor


def _options(**kw):
    return FlowOptions(period=1000.0, sim_cycles=16, style="ff", **kw)


class TestThreadCancellation:
    def test_interrupt_cancels_pending_tasks(self, monkeypatch):
        """A KeyboardInterrupt in the first task cancels the queued
        tail.  One worker, four tasks: task 0 raises; the worker may
        have dequeued task 1 before the cancellation lands (it then
        parks on an event and drains), but tasks 2 and 3 must never
        start — while the worker is busy, ``map`` has long cancelled
        them."""
        from repro.circuits import build
        module = build("s1488")
        started = []
        parked = threading.Event()

        def fake_run_flow(design, options, cache=None, parent_span=None,
                          design_digest=None):
            started.append(options.seed)
            if options.seed == 0:
                raise KeyboardInterrupt
            parked.wait(timeout=2.0)

        monkeypatch.setattr("repro.flow.executor.run_flow", fake_run_flow)
        tasks = [FlowTask(module, _options(seed=i)) for i in range(4)]
        with make_executor("thread", 1) as executor:
            with pytest.raises(KeyboardInterrupt):
                executor.map(tasks, cache=ArtifactCache())
        parked.set()
        assert started[0] == 0
        assert set(started) <= {0, 1}
        assert 2 not in started and 3 not in started

    def test_failed_task_propagates_and_executor_survives(self, monkeypatch):
        from repro.circuits import build
        module = build("s1488")
        calls = []

        def fake_run_flow(design, options, cache=None, parent_span=None,
                          design_digest=None):
            calls.append(options.seed)
            if len(calls) == 1:
                raise RuntimeError("flow blew up")
            return f"ok-{options.seed}"

        monkeypatch.setattr("repro.flow.executor.run_flow", fake_run_flow)
        with make_executor("thread", 2) as executor:
            with pytest.raises(RuntimeError, match="flow blew up"):
                executor.map([FlowTask(module, _options(seed=0))],
                             cache=ArtifactCache())
            # the executor is reusable after a failed batch
            results = executor.map([FlowTask(module, _options(seed=1))],
                                   cache=ArtifactCache())
        assert results == ["ok-1"]


class TestProcessReaping:
    def test_close_leaves_no_orphan_processes(self, tmp_path):
        from repro.circuits import build
        module = build("s1488")
        executor = make_executor("process", 2, cache_dir=str(tmp_path))
        try:
            executor.map([FlowTask(module, _options())])
            procs = list(executor._pool._processes.values())
            assert procs and any(p.is_alive() for p in procs)
        finally:
            executor.close()
        assert all(not p.is_alive() for p in procs)
        assert executor._pool is None

    def test_exception_exit_cancels_pending_and_reaps(self, tmp_path):
        from repro.circuits import build
        module = build("s1488")
        procs = []
        with pytest.raises(RuntimeError, match="interrupted"):
            with make_executor("process", 2,
                               cache_dir=str(tmp_path)) as executor:
                executor.map([FlowTask(module, _options())])
                procs = list(executor._pool._processes.values())
                raise RuntimeError("interrupted batch")
        assert procs
        assert all(not p.is_alive() for p in procs)

    def test_close_is_idempotent(self):
        executor = make_executor("process", 2)
        executor.close()
        executor.close()  # second close: no pool, no tempdir, no error


class TestSidecarLockRelease:
    def _lock_path(self, cache, key):
        return cache._entry_path(key).with_suffix(".lock")

    def _assert_lockable_from_another_process(self, path):
        """fcntl record locks don't conflict within one process, so the
        leak check must probe from a child process."""
        probe = (
            "import fcntl, sys\n"
            f"fh = open({str(path)!r}, 'w')\n"
            "fcntl.lockf(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)\n"
        )
        result = subprocess.run([sys.executable, "-c", probe],
                                capture_output=True, timeout=30)
        assert result.returncode == 0, result.stderr.decode()

    def test_interrupted_producer_releases_lock(self, tmp_path):
        pytest.importorskip("fcntl")
        cache = DiskCache(tmp_path)
        key = ("synth", "lock-test")
        with pytest.raises(KeyboardInterrupt):
            with cache.lock(key):
                raise KeyboardInterrupt
        self._assert_lockable_from_another_process(self._lock_path(cache, key))

    def test_interrupted_get_or_run_releases_lock_and_recovers(
            self, tmp_path):
        pytest.importorskip("fcntl")
        disk = DiskCache(tmp_path)
        cache = ArtifactCache(disk=disk)
        key = ("synth", "lib", "digest", None, "in", ())

        def interrupted_producer():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            cache.get_or_run(key, interrupted_producer)
        lock_path = self._lock_path(disk, key)
        if lock_path.exists():
            self._assert_lockable_from_another_process(lock_path)
        # the cache is not wedged: the next producer runs and stores
        value, hit, _ = cache.get_or_run(key, lambda: "recovered")
        assert (value, hit) == ("recovered", False)


class TestManagerDrainUnderSignalStyleStop:
    def test_drain_completes_inflight_work(self, tmp_path):
        """The SIGTERM path minus the signal: begin_drain + drain lets
        the in-flight job finish and blocks new intake."""
        from repro.flow.scheduler import JobScheduler
        from repro.serve.jobs import DrainingError, JobManager

        with JobScheduler(jobs=2, executor="thread") as scheduler:
            manager = JobManager(scheduler, workers=2, queue_depth=4)
            job, _ = manager.submit("s1488",
                                    overrides={"sim_cycles": 16})
            assert manager.drain(timeout=120.0)
            assert job.state == "done"
            with pytest.raises(DrainingError):
                manager.submit("s1488")
            manager.close()
