"""Pluggable execution backends for (design x style) flow work.

``compare_styles`` and ``run_suite`` schedule their independent flow
runs as a flat queue of :class:`FlowTask` units handed to one of three
executors:

* ``serial`` -- run in the calling thread, in order (the ``jobs=1``
  default; deterministic progress output, trivially debuggable);
* ``thread`` -- a ``ThreadPoolExecutor`` sharing the caller's in-memory
  :class:`~repro.flow.pipeline.ArtifactCache`.  Cheap to start, but the
  flow is pure-Python CPU work, so threads serialize on the GIL;
* ``process`` -- a ``ProcessPoolExecutor`` (spawn context, so task
  payloads must pickle -- they do: ``Module``/``FlowOptions`` round-trip
  by design).  Workers cannot see the parent's memory cache; they share
  artifacts through the persistent on-disk tier
  (:class:`~repro.flow.diskcache.DiskCache`) instead, whose file locks
  single-flight concurrent misses (one synthesis feeds all styles even
  across processes).  When the caller gives no ``cache_dir`` a temporary
  one spans the executor's lifetime.

Results are bit-for-bit identical across executors and job counts: each
flow run is deterministic, tasks are collected in submission order, and
the disk tier stores/loads exact pickled payloads.

Tracing crosses the process boundary: each worker task runs under its
own :class:`~repro.obs.tracer.Tracer` whose state is shipped back and
merged into the parent trace (see :mod:`repro.obs.merge`), parented on
the submitting span.  Thread workers re-enter the submitting thread's
tracer scope (:func:`repro.obs.scoped`), so a per-job scoped trace (the
serve daemon) stays scoped across the fan-out.

Shutdown is clean: an exception raised while collecting results — a
``KeyboardInterrupt``, a failed flow — cancels every not-yet-started
task before propagating, and ``close()`` (or leaving the ``with``
block) drains in-flight work so no orphaned worker process or pending
future outlives the executor.
"""

from __future__ import annotations

import multiprocessing
import tempfile
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass

from repro import obs
from repro.flow.design_flow import DesignResult, FlowOptions, run_flow
from repro.flow.diskcache import DiskCache
from repro.flow.pipeline import ArtifactCache
from repro.netlist.core import Module

#: the recognized ``executor=`` names.
EXECUTORS = ("serial", "thread", "process")


@dataclass(frozen=True)
class FlowTask:
    """One unit of work: implement ``design`` with ``options`` (style baked in)."""

    design: Module
    options: FlowOptions
    #: ``module_digest(design)``, if known; the scheduler digests each
    #: design once per batch rather than once per style.
    design_digest: str | None = None

    @property
    def label(self) -> str:
        return f"{self.design.name}/{self.options.style}"

    def run(self, cache: ArtifactCache | None,
            parent_span: int | None = None) -> DesignResult:
        return run_flow(self.design, self.options, cache=cache,
                        parent_span=parent_span,
                        design_digest=self.design_digest)


def _validate_jobs(jobs: object) -> None:
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        raise ValueError(
            f"jobs must be a positive integer (1 = sequential), got {jobs!r}"
        )


def make_executor(
    executor: str | None = None,
    jobs: int = 1,
    cache_dir: str | None = None,
) -> "FlowExecutor":
    """Build the executor named ``executor`` (context manager).

    ``None`` picks ``serial`` for ``jobs == 1`` and ``thread`` otherwise
    (the historical behavior).  ``cache_dir`` only matters for
    ``process``, whose workers share artifacts through that directory.
    """
    _validate_jobs(jobs)
    if executor is None:
        executor = "serial" if jobs == 1 else "thread"
    if executor == "serial":
        return SerialExecutor()
    if executor == "thread":
        return ThreadExecutor(jobs)
    if executor == "process":
        return ProcessExecutor(jobs, cache_dir=cache_dir)
    raise ValueError(
        f"unknown executor {executor!r} (choose from {', '.join(EXECUTORS)})"
    )


class FlowExecutor:
    """Base: run a queue of tasks, return results in task order."""

    name = "?"

    def map(
        self,
        tasks: list[FlowTask],
        cache: ArtifactCache | None = None,
        parent_span: int | None = None,
    ) -> list[DesignResult]:
        raise NotImplementedError

    def close(self, cancel_pending: bool = False) -> None:
        """Release the backend's resources.

        ``cancel_pending`` additionally cancels tasks that have not
        started (the interrupted-``map`` path); already-running tasks
        are always drained, never abandoned.
        """

    def __enter__(self) -> "FlowExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close(cancel_pending=exc_type is not None)
        return False


class SerialExecutor(FlowExecutor):
    """In-order execution in the calling thread."""

    name = "serial"

    def map(self, tasks, cache=None, parent_span=None):
        return [t.run(cache, parent_span) for t in tasks]


class ThreadExecutor(FlowExecutor):
    """Thread-pool execution against the shared in-memory cache."""

    name = "thread"

    def __init__(self, jobs: int):
        _validate_jobs(jobs)
        self.jobs = jobs

    def map(self, tasks, cache=None, parent_span=None):
        if not tasks:
            return []
        # Workers record into the *submitting thread's* tracer — which
        # may be a per-job scoped one — not whatever happens to be
        # installed process-wide when they run.
        tracer = obs.get_tracer()

        def run(task: FlowTask) -> DesignResult:
            if tracer is None:
                return task.run(cache, parent_span)
            with obs.scoped(tracer):
                return task.run(cache, parent_span)

        with ThreadPoolExecutor(
                max_workers=min(self.jobs, len(tasks))) as pool:
            futures = [pool.submit(run, t) for t in tasks]
            try:
                return [f.result() for f in futures]
            except BaseException:
                # a failed/interrupted batch must not leave queued tasks
                # behind; running ones are drained by the pool's exit.
                for future in futures:
                    future.cancel()
                raise


# per-process cache registry for worker processes, keyed by cache dir:
# one worker serves many tasks, and tasks within a worker should hit the
# fast in-memory tier rather than re-reading pickles off disk.
_WORKER_CACHES: dict[str, ArtifactCache] = {}


def _worker_cache(cache_dir: str) -> ArtifactCache:
    cache = _WORKER_CACHES.get(cache_dir)
    if cache is None:
        cache = ArtifactCache(disk=DiskCache(cache_dir))
        _WORKER_CACHES[cache_dir] = cache
    return cache


def _run_task_in_worker(payload: tuple) -> tuple:
    """Top-level worker entry (must be importable for spawn pickling).

    Returns ``(DesignResult, tracer state | None)``; the state carries
    the worker's spans/metrics -- and, when the parent had a resource
    monitor, the worker's own resource samples -- back for merging into
    the parent trace.
    """
    task, cache_dir, traced, monitor_interval = payload
    cache = _worker_cache(cache_dir)
    if not traced:
        return task.run(cache), None
    tracer = obs.Tracer()
    with obs.use_tracer(tracer):
        if monitor_interval is not None:
            with obs.monitored(tracer, interval_s=monitor_interval):
                result = task.run(cache)
        else:
            result = task.run(cache)
    return result, obs.tracer_state(tracer)


class ProcessExecutor(FlowExecutor):
    """Process-pool execution sharing artifacts through the disk cache.

    The passed in-memory ``cache`` is not reachable from workers and is
    ignored; cross-task sharing happens via ``cache_dir`` (a private
    temporary directory when none is given, living until :meth:`close`).
    """

    name = "process"

    def __init__(self, jobs: int, cache_dir: str | None = None):
        _validate_jobs(jobs)
        self.jobs = jobs
        self._tmp = None
        if cache_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-cache-")
            cache_dir = self._tmp.name
        self.cache_dir = str(cache_dir)
        self._pool: ProcessPoolExecutor | None = None
        # concurrent map() calls (the serve daemon's job workers) share
        # one pool; guard its lazy creation.
        self._pool_lock = threading.Lock()

    def _ensure_pool(self, width: int) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=min(self.jobs, width),
                    mp_context=multiprocessing.get_context("spawn"),
                )
            return self._pool

    def map(self, tasks, cache=None, parent_span=None):
        if not tasks:
            return []
        tracer = obs.get_tracer()
        monitor = getattr(tracer, "monitor", None)
        monitor_interval = monitor.interval_s if monitor is not None else None
        pool = self._ensure_pool(len(tasks))
        futures = [
            pool.submit(
                _run_task_in_worker,
                (t, self.cache_dir, tracer is not None, monitor_interval))
            for t in tasks
        ]
        results: list[DesignResult] = []
        # collect (and merge traces) in submission order: deterministic
        # output regardless of which worker finishes first.
        try:
            for future in futures:
                result, state = future.result()
                if state is not None and tracer is not None:
                    obs.merge_tracer_state(
                        tracer, state, parent_span_id=parent_span)
                results.append(result)
        except BaseException:
            for future in futures:
                future.cancel()
            raise
        return results

    def close(self, cancel_pending: bool = False) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=cancel_pending)
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None
