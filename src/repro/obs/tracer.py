"""Hierarchical span tracer: nested timed regions with attributes.

A :class:`Span` is one timed region of the flow (``stage.retime``,
``ilp.solve``, ``sim.run`` ...).  Spans nest: each thread carries its own
span stack, so a span opened while another is active becomes its child,
and spans opened concurrently in worker threads (``compare_styles
jobs>1``) are distinguished by their recorded thread id.  Cross-thread
nesting is explicit: the submitting thread captures its current span id
and passes it as ``parent`` when the worker opens its root span.

Timing is dual: ``dur`` is wall clock (``perf_counter``) and ``cpu`` is
the span's own thread's CPU time (``thread_time``), both in seconds.
Timestamps are recorded relative to the owning :class:`Tracer`'s epoch,
which is what the exporters (:mod:`repro.obs.export`) expect.

The tracer is engineered so that *not* tracing is free: when no tracer is
installed (the default), :func:`repro.obs.span` returns a shared no-op
context manager and the metric helpers return immediately -- see the
overhead bound enforced by ``benchmarks/bench_sim.py --obs``.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from time import perf_counter

try:
    from time import thread_time
except ImportError:  # pragma: no cover - CPython >= 3.7 always has it
    from time import process_time as thread_time

from repro.obs.metrics import MetricStore


@dataclass(frozen=True)
class SpanRecord:
    """One finished span, as stored by the tracer and the exporters."""

    name: str
    #: start time in seconds since the tracer's epoch.
    ts: float
    #: wall-clock duration in seconds.
    dur: float
    #: CPU seconds consumed by the span's own thread.
    cpu: float
    pid: int
    tid: int
    span_id: int
    parent_id: int | None
    attrs: dict = field(default_factory=dict)


class Span:
    """A live span; use as a context manager.

    ``set(**attrs)`` attaches key/value attributes any time before exit;
    they land in the :class:`SpanRecord` and in both export formats.
    """

    __slots__ = ("_tracer", "name", "attrs", "span_id", "parent_id",
                 "_t0", "_cpu0")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attrs: dict,
        parent: int | None = None,
    ):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = tracer.next_id()
        self.parent_id = parent
        self._t0 = 0.0
        self._cpu0 = 0.0

    def set(self, **attrs) -> None:
        """Attach attributes to the span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        stack = self._tracer.stack()
        if self.parent_id is None and stack:
            self.parent_id = stack[-1].span_id
        stack.append(self)
        self._t0 = perf_counter()
        self._cpu0 = thread_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur = perf_counter() - self._t0
        cpu = thread_time() - self._cpu0
        stack = self._tracer.stack()
        if stack and stack[-1] is self:
            stack.pop()
        else:  # pragma: no cover - misnested exit; drop without corrupting
            try:
                stack.remove(self)
            except ValueError:
                pass
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer.record(self, dur, cpu)
        return False


class NullSpan:
    """Shared no-op span: the disabled-tracing fast path."""

    __slots__ = ()

    def set(self, **attrs) -> None:
        pass

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: the singleton handed out whenever tracing is disabled.
NULL_SPAN = NullSpan()


class Tracer:
    """Process-wide span + metric collector.

    Thread-safe: spans may be opened and metrics recorded from any number
    of threads; each thread nests independently through its own stack.
    """

    def __init__(self) -> None:
        self.epoch = perf_counter()
        #: wall-clock epoch; lets two tracers from different processes be
        #: placed on one timeline (perf_counter epochs are per-process).
        self.epoch_unix = time.time()
        self.pid = os.getpid()
        self.spans: list[SpanRecord] = []
        #: resource timeline (ResourceSample list) appended by an
        #: attached ResourceMonitor; merged samples keep their own pid.
        self.samples: list = []
        #: the live ResourceMonitor sampling into this tracer, if any
        #: (set by ``ResourceMonitor.start``); gates ``resource_window``.
        self.monitor = None
        self.metrics = MetricStore(epoch=self.epoch)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- span plumbing -------------------------------------------------------

    def next_id(self) -> int:
        return next(self._ids)

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, attrs: dict, parent: int | None = None) -> Span:
        return Span(self, name, attrs, parent=parent)

    def current_span(self) -> Span | None:
        stack = self.stack()
        return stack[-1] if stack else None

    def current_span_id(self) -> int | None:
        span = self.current_span()
        return span.span_id if span is not None else None

    def record(self, span: Span, dur: float, cpu: float) -> None:
        rec = SpanRecord(
            name=span.name,
            ts=span._t0 - self.epoch,
            dur=dur,
            cpu=cpu,
            pid=self.pid,
            tid=threading.get_ident(),
            span_id=span.span_id,
            parent_id=span.parent_id,
            attrs=span.attrs,
        )
        with self._lock:
            self.spans.append(rec)

    # -- introspection -------------------------------------------------------

    @property
    def op_count(self) -> int:
        """Spans recorded + metric operations performed (for the
        disabled-overhead bound: every one of these would have been a
        null-path call with tracing off)."""
        return len(self.spans) + self.metrics.op_count
