"""The async job layer between the HTTP front-end and the scheduler.

A :class:`JobManager` owns a bounded FIFO of :class:`Job` submissions
and a small pool of worker threads that drain it into a shared
:class:`~repro.flow.scheduler.JobScheduler`.  Design points:

* **backpressure** — the queue is bounded (``queue_depth``); a
  submission against a full queue raises :class:`QueueFullError`, which
  the HTTP layer turns into ``429 Too Many Requests``.  Running jobs
  don't count against the bound — depth measures *waiting* work.
* **single-flight dedup** — submissions are content-addressed
  (:func:`job_key`: design + styles + resolved flow options).  While a
  job with the same key is queued or running, an identical submission
  returns *that* job instead of enqueueing a duplicate.  Finished jobs
  are not deduped: a resubmission runs again through the artifact
  cache.  With a disk tier every stage is a hit, so it completes
  near-instantly with zero synthesis/simulation work (the warm-path
  guarantee CI asserts); a finished job keeps only its result rows, so
  without one the netlist-editing stages run again.
* **per-job trace scoping** — each job runs under its own
  :class:`~repro.obs.tracer.Tracer` installed thread-locally
  (:func:`repro.obs.scoped`), so spans of concurrent jobs never
  interleave.  The job's spans are exported as a per-job JSONL stream
  (``<job_dir>/<job id>.jsonl``) and merged into the daemon's
  process-wide tracer — tagged with the job id — via
  :mod:`repro.obs.merge`.
* **graceful drain** — :meth:`begin_drain` stops intake (submissions
  raise :class:`DrainingError` -> ``503``), :meth:`drain` waits for the
  queue and in-flight jobs to finish, and :meth:`close` stops the
  workers.  SIGTERM in the HTTP layer triggers exactly this sequence.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import queue
import threading
import time
from dataclasses import dataclass, field, fields, replace

from repro import __version__, obs
from repro.circuits import build, spec
from repro.flow.design_flow import STYLES, DesignResult, FlowOptions
from repro.flow.executor import FlowTask
from repro.flow.scheduler import COMPARE_STYLES, JobScheduler
from repro.obs.metrics import MetricStore
from repro.obs.monitor import read_rss_bytes
from repro.obs.promexpo import observe_stages
from repro.power.model import savings

#: job states; ``done``/``failed`` are terminal.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"
TERMINAL = (DONE, FAILED)

#: the ``outcome`` labels of the ``jobs`` counter, in ``/statsz`` order.
JOB_OUTCOMES = ("submitted", "deduped", "rejected", "completed", "failed")

#: FlowOptions fields a submission may override.  ``style`` is per-task,
#: ``library`` is an object, and the lint gate stays at the server's
#: defaults — everything else is a plain value a JSON body can carry.
_OVERRIDABLE = frozenset({
    "period", "clock_gating_style", "assign_method", "retime", "retime_ms",
    "sim_cycles", "warmup_cycles", "profile", "profile_cycles", "seed",
    "sim_delay_model", "sim_lanes", "clock_uncertainty", "resize", "verify",
    "verify_fail_on", "verify_conflict_budget",
})


class QueueFullError(RuntimeError):
    """The bounded job queue is at capacity (HTTP 429)."""


class DrainingError(RuntimeError):
    """The daemon is draining and accepts no new work (HTTP 503)."""


def resolve_options(design: str, overrides: dict | None = None) -> FlowOptions:
    """The flow options a submission resolves to.

    Starts from the design's registered benchmark parameters (period,
    workload, cycle budget) — the same defaults ``repro run`` uses — and
    applies the whitelisted ``overrides``.  Unknown or non-overridable
    keys raise ``ValueError``.
    """
    bench = spec(design)
    options = FlowOptions(
        period=bench.period,
        profile=bench.workload,
        sim_cycles=bench.sim_cycles,
    )
    if overrides:
        bad = sorted(set(overrides) - _OVERRIDABLE)
        if bad:
            raise ValueError(
                f"unknown or non-overridable option(s): {', '.join(bad)}")
        options = replace(options, **overrides)
        # Reject a bad solver name at intake (400) instead of letting the
        # job fail later inside the flow.
        from repro.convert.phase_ilp import check_method
        check_method(options.assign_method)
    return options


def job_key(design: str, styles: tuple[str, ...],
            options: FlowOptions) -> str:
    """Content address of a submission: what single-flight dedup keys on.

    Two submissions collide exactly when they would produce identical
    results: same design, same style set, same resolved options (the
    library by name, the clock-gating config by value).
    """
    parts: list[str] = [design, ",".join(styles)]
    for f in sorted(fields(options), key=lambda f: f.name):
        value = getattr(options, f.name)
        if f.name == "library":
            value = value.name
        parts.append(f"{f.name}={value!r}")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


@dataclass
class Job:
    """One submission's full lifecycle record."""

    id: str
    key: str
    design: str
    styles: tuple[str, ...]
    options: FlowOptions
    state: str = QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    #: style -> result row once the job is done, and the 3p power
    #: savings: the body of ``GET /jobs/<id>/result``.  The job keeps
    #: these, not the DesignResults, so it pins no netlist.
    rows: dict[str, dict] = field(default_factory=dict)
    power_save: dict[str, dict] = field(default_factory=dict)
    trace_path: str | None = None
    cache_hits: int = 0
    cache_misses: int = 0
    #: state-transition log, streamed by ``GET /jobs/<id>/events``.
    events: list[dict] = field(default_factory=list)

    def event(self, name: str, **extra) -> None:
        self.events.append({"ts": round(time.time(), 6), "event": name,
                            "state": self.state, **extra})

    @property
    def wall_s(self) -> float | None:
        if self.started_at is None:
            return None
        end = self.finished_at if self.finished_at is not None else time.time()
        return round(end - self.started_at, 6)

    def status(self) -> dict:
        """The JSON body of ``GET /jobs/<id>``."""
        return {
            "id": self.id,
            "key": self.key,
            "design": self.design,
            "styles": list(self.styles),
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "wall_s": self.wall_s,
            "error": self.error,
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
            "trace": self.trace_path,
        }

    def result_payload(self) -> dict:
        """The JSON body of ``GET /jobs/<id>/result``.

        Per-style rows carry exactly the quantities the CLI prints
        (register count, area, the power decomposition), so a client
        can diff daemon output against ``repro run`` bit for bit.
        """
        return {
            "id": self.id,
            "design": self.design,
            "state": self.state,
            "styles": self.rows,
            **self.power_save,
        }

    def finish(self, results: dict[str, DesignResult]) -> None:
        """Keep what :meth:`result_payload` serves of ``results``."""
        self.rows = {
            style: {
                "registers": result.stats.registers,
                "area": result.area,
                "power": result.power.as_row(),
                "stages": [
                    {"stage": record.stage, "cache_hit": record.cache_hit,
                     "wall_s": round(record.wall_time, 6),
                     **({"peak_rss_bytes":
                         record.summary["peak_rss_bytes"]}
                        if "peak_rss_bytes" in record.summary else {})}
                    for record in result.stages
                ],
            }
            for style, result in results.items()
        }
        if "3p" in results:
            three = results["3p"].power
            self.power_save = {
                f"power_save_{base}": savings(results[base].power, three)
                for base in ("ff", "ms") if base in results
            }


class JobManager:
    """Bounded job queue + worker pool over one shared scheduler."""

    def __init__(
        self,
        scheduler: JobScheduler,
        workers: int = 2,
        queue_depth: int = 16,
        job_dir: str | None = None,
        monitor_interval: float | None = 0.05,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.scheduler = scheduler
        self.queue_depth = queue_depth
        self.job_dir = job_dir
        #: per-job ResourceMonitor sampling interval; None disables the
        #: sampler (jobs then report no peak_rss_bytes).
        self.monitor_interval = monitor_interval
        self.started_at = time.time()
        self._queue: queue.Queue = queue.Queue(maxsize=queue_depth)
        self._jobs: dict[str, Job] = {}
        #: key -> job id for queued/running jobs (the dedup window).
        self._active_by_key: dict[str, str] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._running = 0
        self._draining = False
        self._init_metrics()
        self._idle = threading.Condition(self._lock)
        self._workers = [
            threading.Thread(target=self._worker, daemon=True,
                             name=f"repro-serve-worker-{i}")
            for i in range(workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- metrics / identity --------------------------------------------------

    def _init_metrics(self) -> None:
        """The live metric store behind ``GET /metricsz`` (rendered by
        :mod:`repro.obs.promexpo`; documented in docs/serving.md)."""
        m = self.metrics = MetricStore()
        m.gauge_fn("build_info", lambda: 1.0,
                   "daemon identity; the value is always 1",
                   version=__version__)
        m.gauge_fn("process_uptime_seconds",
                   lambda: time.time() - self.started_at,
                   "seconds since the job manager started")
        m.gauge_fn("process_rss_bytes", read_rss_bytes,
                   "current resident set size of the daemon process")
        m.gauge_fn("queue_depth", self._queue.qsize,
                   "jobs waiting in the bounded queue")
        m.gauge_fn("queue_capacity", lambda: self.queue_depth,
                   "bound of the job queue (submissions beyond it get 429)")
        m.gauge_fn("jobs_running", lambda: self._running,
                   "jobs currently executing")
        m.gauge_fn("executor_inflight", lambda: self.scheduler.inflight,
                   "style-flow tasks in flight on the shared executor")
        m.gauge_fn("executor_occupancy", self.scheduler.occupancy,
                   "in-flight tasks over executor width (0..1)")
        m.declare("http_requests", "counter",
                  "HTTP requests by endpoint, method, and status")
        m.declare("http_request_seconds", "histogram",
                  "request handling latency by endpoint")
        m.declare("jobs", "counter", "job intake and completion outcomes "
                  f"({'/'.join(JOB_OUTCOMES)})")
        m.declare("cache.released", "counter",
                  "artifact-cache lookups that found their netlist freed "
                  "(each then a disk hit or a re-run)")
        m.declare("cache.netlist_loads", "counter",
                  "disk-cached netlists unpickled (the FF reference, and "
                  "those a stage ran on or a flow returned)")
        observe_stages(m)

    def identity(self) -> dict:
        """The shared identity block of ``/healthz`` and ``/statsz``:
        load balancers and the ``/metricsz`` scrape agree on who and
        how long-lived this daemon is."""
        return {
            "version": __version__,
            "pid": os.getpid(),
            "uptime_s": round(time.time() - self.started_at, 3),
        }

    def observe_http(self, method: str, endpoint: str, status: int,
                     seconds: float) -> None:
        """Per-request accounting, called by the HTTP layer."""
        self.metrics.add("http_requests", method=method, endpoint=endpoint,
                         status=status)
        self.metrics.record("http_request_seconds", seconds,
                            endpoint=endpoint)

    # -- intake --------------------------------------------------------------

    def submit(
        self,
        design: str,
        styles: list[str] | tuple[str, ...] | None = None,
        overrides: dict | None = None,
    ) -> tuple[Job, bool]:
        """Enqueue a submission; returns ``(job, deduped)``.

        Raises ``KeyError`` for an unknown design, ``ValueError`` for
        bad styles/options (HTTP 400), :class:`DrainingError` while
        shutting down (503), :class:`QueueFullError` at capacity (429).
        """
        chosen = tuple(styles) if styles else COMPARE_STYLES
        bad = sorted(set(chosen) - set(STYLES))
        if bad:
            raise ValueError(
                f"unknown style(s): {', '.join(bad)} "
                f"(choose from {', '.join(STYLES)})")
        if len(set(chosen)) != len(chosen):
            raise ValueError("duplicate styles in submission")
        options = resolve_options(design, overrides)
        key = job_key(design, chosen, options)
        with self._lock:
            if self._draining:
                raise DrainingError("daemon is draining; resubmit later")
            active = self._active_by_key.get(key)
            if active is not None:
                self.metrics.add("jobs", outcome="deduped")
                return self._jobs[active], True
            job = Job(id=f"j{next(self._ids):06d}", key=key, design=design,
                      styles=chosen, options=options)
            try:
                self._queue.put_nowait(job)
            except queue.Full:
                self.metrics.add("jobs", outcome="rejected")
                raise QueueFullError(
                    f"job queue full ({self.queue_depth} pending)") from None
            self._jobs[job.id] = job
            self._active_by_key[key] = job.id
            self.metrics.add("jobs", outcome="submitted")
            job.event("queued")
        return job, False

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.id)

    # -- the worker side -----------------------------------------------------

    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            try:
                if job is None:  # shutdown sentinel
                    return
                self._run_job(job)
            finally:
                self._queue.task_done()

    def _run_job(self, job: Job) -> None:
        with self._lock:
            job.state = RUNNING
            job.started_at = time.time()
            self._running += 1
            job.event("started")
        tracer = obs.Tracer()
        monitor = (obs.ResourceMonitor(tracer, self.monitor_interval)
                   if self.monitor_interval else None)
        try:
            module = build(job.design)
            if monitor is not None:
                monitor.start()
            try:
                with obs.scoped(tracer):
                    with obs.span("job.run", job_id=job.id,
                                  design=job.design,
                                  styles=",".join(job.styles)):
                        tasks = [
                            FlowTask(module,
                                     replace(job.options, style=style))
                            for style in job.styles
                        ]
                        results = self.scheduler.run_tasks(
                            tasks, span_name="flow.compare",
                            design=job.design, job_id=job.id)
            finally:
                if monitor is not None:
                    monitor.stop()
            job.finish(dict(zip(job.styles, results)))
            observe_stages(self.metrics, tracer.spans)
            for counter in ("cache.released", "cache.netlist_loads"):
                self.metrics.add(counter, tracer.metrics.value(counter))
            for result in results:
                for record in result.stages:
                    if record.cache_hit:
                        job.cache_hits += 1
                    else:
                        job.cache_misses += 1
            state = DONE
        except Exception as exc:
            job.error = f"{type(exc).__name__}: {exc}"
            state = FAILED
        finally:
            self._export_trace(job, tracer)
            with self._lock:
                job.state = state
                job.finished_at = time.time()
                self._running -= 1
                self._active_by_key.pop(job.key, None)
                self.metrics.add(
                    "jobs", outcome="completed" if state == DONE else "failed")
                job.event("finished", wall_s=job.wall_s, error=job.error,
                          cache_hits=job.cache_hits,
                          cache_misses=job.cache_misses)
                self._idle.notify_all()

    def _export_trace(self, job: Job, tracer: obs.Tracer) -> None:
        """Write the per-job JSONL stream and fold the job's spans —
        tagged with the job id — into the daemon's ambient tracer."""
        if self.job_dir is not None and tracer.spans:
            from repro.obs.export import write_jsonl

            path = os.path.join(self.job_dir, f"{job.id}.jsonl")
            try:
                os.makedirs(self.job_dir, exist_ok=True)
                write_jsonl(tracer, path)
                job.trace_path = path
            except OSError:
                job.trace_path = None
        # outside the scoped block, so this resolves the process-wide
        # tracer (the daemon's --trace/--obs-jsonl collector), if any
        parent = obs.get_tracer()
        if parent is not None and tracer.spans:
            for span in tracer.spans:
                span.attrs.setdefault("job_id", job.id)
            obs.merge_tracer_state(parent, obs.tracer_state(tracer))

    # -- lifecycle / stats ---------------------------------------------------

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def begin_drain(self) -> None:
        """Stop intake; queued and running jobs keep going."""
        with self._lock:
            self._draining = True

    def drain(self, timeout: float | None = None) -> bool:
        """Block until queued + running jobs have finished.

        Returns False if ``timeout`` expired with work still in flight.
        """
        self.begin_drain()
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            # unfinished_tasks counts queued items plus the one each
            # worker holds until its task_done(); _running covers the
            # window between pickup and the state transition.
            while self._queue.unfinished_tasks or self._running:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(timeout=0.1 if remaining is None
                                else min(0.1, remaining))
        return True

    def close(self) -> None:
        """Stop the workers (after any in-flight job they hold)."""
        self.begin_drain()
        for _ in self._workers:
            self._queue.put(None)
        for worker in self._workers:
            worker.join(timeout=30.0)

    def stats(self) -> dict:
        """The JSON body of ``GET /statsz``.

        The ``jobs`` and ``stage_cache`` blocks read the ``jobs`` and
        ``stage_cache`` counters of :attr:`metrics`.  The ``cache`` block reuses the scheduler's serializer (memory
        tier counters + :meth:`DiskCacheStats.to_dict` for the disk
        tier) — the same shape ``repro cache stats --format json``
        prints, so dashboards need one parser.
        """
        with self._lock:
            jobs = {
                "queued": self._queue.qsize(),
                "running": self._running,
                **{outcome: int(self.metrics.value("jobs", outcome=outcome))
                   for outcome in JOB_OUTCOMES},
            }
            draining = self._draining
        hits = int(self.metrics.value("stage_cache", outcome="hit"))
        misses = int(self.metrics.value("stage_cache", outcome="miss"))
        total = hits + misses
        return {
            **self.identity(),
            "draining": draining,
            "jobs": jobs,
            "queue": {"depth": jobs["queued"], "capacity": self.queue_depth},
            "executor": {
                "name": self.scheduler.executor_name,
                "width": max(1, self.scheduler.jobs),
                "inflight": self.scheduler.inflight,
                "occupancy": round(self.scheduler.occupancy(), 4),
                "tasks_done": self.scheduler.tasks_done,
            },
            "stage_cache": {
                "hits": hits,
                "misses": misses,
                "hit_rate": round(hits / total, 4) if total else None,
            },
            "cache": self.scheduler.cache_stats(),
        }
