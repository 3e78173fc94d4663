"""The shared scheduling core under every flow front-end.

Scheduling used to be welded into ``compare_styles`` / ``run_suite``:
each call built an executor, opened an observability span, mapped a
flat (design x style) task queue, and tore everything down.  That was
fine for one-shot CLI invocations but useless for a long-running
service, which needs a *persistent* executor and cache serving many
batches.  :class:`JobScheduler` extracts that logic so both front-ends
share it:

* the **CLI batch path** (``compare_styles``, ``run_suite``, the
  benchmark harness) builds a throwaway scheduler per call — same
  results, same spans, same knobs as before;
* the **serve daemon** (:mod:`repro.serve`) keeps one scheduler for its
  lifetime: its job workers call :meth:`run_tasks` concurrently against
  the shared executor and artifact cache, and ``/statsz`` reads the
  scheduler's occupancy and cache counters.

The scheduler owns two resources: an executor
(:func:`~repro.flow.executor.make_executor` backend, persistent across
batches) and an :class:`~repro.flow.pipeline.ArtifactCache` (with the
persistent :class:`~repro.flow.diskcache.DiskCache` tier when a
``cache_dir`` is given).  ``run_tasks`` is thread-safe: concurrent
batches share the single-flight cache, so identical work submitted by
two jobs runs once machine-wide.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import TYPE_CHECKING

from repro import obs
from repro.flow import pipeline
from repro.flow.design_flow import DesignResult, FlowOptions
from repro.flow.executor import FlowTask, make_executor
from repro.flow.pipeline import ArtifactCache

if TYPE_CHECKING:  # pragma: no cover - import cycle with compare
    from repro.flow.compare import StyleComparison

#: the three styles of a Table I/II comparison row.
COMPARE_STYLES = ("ff", "ms", "3p")


def default_cache(cache_dir: str | None) -> ArtifactCache:
    """A fresh cache, with a persistent disk tier when a dir is given
    (so serial/thread runs against ``cache_dir`` warm up too)."""
    if cache_dir is None:
        return ArtifactCache()
    from repro.flow.diskcache import DiskCache

    return ArtifactCache(disk=DiskCache(cache_dir))


class JobScheduler:
    """Maps batches of :class:`FlowTask` onto one executor + cache.

    Context manager; ``close()`` tears down the executor (and the
    process backend's worker pool / temporary cache directory).  One
    instance may serve many ``run_tasks`` batches, concurrently.
    """

    def __init__(
        self,
        jobs: int = 1,
        executor: str | None = None,
        cache_dir: str | None = None,
        cache: ArtifactCache | None = None,
    ):
        self.jobs = jobs
        self.cache_dir = cache_dir
        self._executor = make_executor(executor, jobs, cache_dir=cache_dir)
        self.cache = cache if cache is not None else default_cache(cache_dir)
        self._lock = threading.Lock()
        self._inflight = 0
        self._tasks_done = 0

    # -- introspection (the daemon's /statsz) --------------------------------

    @property
    def executor_name(self) -> str:
        return self._executor.name

    @property
    def inflight(self) -> int:
        """Tasks currently submitted to the executor."""
        with self._lock:
            return self._inflight

    @property
    def tasks_done(self) -> int:
        with self._lock:
            return self._tasks_done

    def occupancy(self) -> float:
        """Fraction of the executor's width currently busy (0..1)."""
        width = max(1, self.jobs)
        return min(self.inflight, width) / width

    def cache_stats(self) -> dict:
        """JSON-ready cache counters: memory tier, plus the disk tier's
        entry/byte breakdown when one is attached."""
        hits = self.cache.hits()
        misses = self.cache.misses()
        total = hits + misses
        out: dict[str, object] = {
            "hits": hits,
            "misses": misses,
            "disk_hits": self.cache.disk_hits(),
            "hit_rate": round(hits / total, 4) if total else None,
        }
        if self.cache.disk is not None:
            out["disk"] = self.cache.disk.stats().to_dict()
        return out

    # -- scheduling ----------------------------------------------------------

    def run_tasks(
        self,
        tasks: list[FlowTask],
        span_name: str = "flow.batch",
        **attrs,
    ) -> list[DesignResult]:
        """Run ``tasks`` on the executor, in submission order.

        The batch executes under a ``span_name`` span (``flow.compare``
        / ``flow.suite`` for the historical front-ends) whose id is
        passed down so worker spans stay nested under it, exactly as
        the pre-extraction code did.  Each design is digested once
        here, however many styles of it the batch runs.
        """
        with obs.span(span_name, jobs=self.jobs,
                      executor=self._executor.name, **attrs):
            tasks = _with_design_digests(tasks)
            parent = obs.current_span_id()
            with self._lock:
                self._inflight += len(tasks)
            try:
                return self._executor.map(
                    tasks, cache=self.cache, parent_span=parent)
            finally:
                with self._lock:
                    self._inflight -= len(tasks)
                    self._tasks_done += len(tasks)

    def compare(
        self,
        design,
        options: FlowOptions,
        styles: tuple[str, ...] = COMPARE_STYLES,
        **attrs,
    ) -> "StyleComparison":
        """One Table I/II row: run ``design`` in ``styles`` and package
        the results as a :class:`~repro.flow.compare.StyleComparison`."""
        from repro.flow.compare import StyleComparison

        tasks = [
            FlowTask(design, replace(options, style=style))
            for style in styles
        ]
        results = self.run_tasks(
            tasks, span_name="flow.compare", design=design.name, **attrs)
        by_style = dict(zip(styles, results))
        return StyleComparison(
            name=design.name,
            ff=by_style["ff"],
            ms=by_style["ms"],
            three_phase=by_style["3p"],
        )

    # -- lifecycle -----------------------------------------------------------

    def close(self, cancel_pending: bool = False) -> None:
        self._executor.close(cancel_pending=cancel_pending)

    def __enter__(self) -> "JobScheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close(cancel_pending=exc_type is not None)
        return False


def _with_design_digests(tasks: list[FlowTask]) -> list[FlowTask]:
    """``tasks``, each carrying its design's digest, computed once per
    design object."""
    digests: dict[int, str] = {}
    out = []
    for task in tasks:
        if task.design_digest is None:
            key = id(task.design)
            if key not in digests:
                digests[key] = pipeline.module_digest(task.design)
            task = replace(task, design_digest=digests[key])
        out.append(task)
    return out
