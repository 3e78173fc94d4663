"""Cross-process trace merging.

A ``ProcessPoolExecutor`` worker cannot record into the parent's tracer:
it lives in another address space, its ``perf_counter`` epoch is
unrelated, and its span ids collide with the parent's.  Instead the
worker runs under its own :class:`~repro.obs.tracer.Tracer`, ships the
finished state back as a plain picklable dict (:func:`tracer_state`),
and the parent folds it in (:func:`merge_tracer_state`):

* **timeline** -- span and gauge timestamps are rebased via the
  difference of the two tracers' ``epoch_unix`` wall clocks, so worker
  spans land where they actually happened on the parent's timeline;
* **span ids** -- every worker span gets a fresh id from the parent's
  counter, with parent links remapped consistently; worker root spans
  are re-parented onto the submitting span (``parent_span_id``), giving
  an unbroken parent chain across the process boundary;
* **identity** -- the worker's ``pid``/``tid`` are preserved, so the
  Chrome exporter renders each worker process as its own Perfetto
  process track;
* **metrics** -- the worker store's :meth:`~repro.obs.metrics.MetricStore.raw`
  state folds into the parent's: counters and histograms accumulate,
  gauge series concatenate (timestamps rebased);
* **resource samples** -- a worker's memory/CPU timeline merges with
  timestamps rebased and span attributions remapped through the same
  id map as the spans, so a stage's memory track survives the process
  boundary (a sample whose span did not ship degrades to unattributed
  rather than dangling).
"""

from __future__ import annotations

from dataclasses import replace

from repro.obs.tracer import SpanRecord, Tracer

#: version tag for the shipped dict, so a mismatched worker is detected
#: rather than silently mis-merged.
STATE_FORMAT = "repro-obs-state-v2"


def tracer_state(tracer: Tracer) -> dict:
    """The tracer's full state as a picklable dict for :func:`merge_tracer_state`."""
    return {
        "format": STATE_FORMAT,
        "pid": tracer.pid,
        "epoch_unix": tracer.epoch_unix,
        "spans": list(tracer.spans),
        "samples": list(tracer.samples),
        "metrics": tracer.metrics.raw(),
    }


def merge_tracer_state(
    tracer: Tracer,
    state: dict,
    parent_span_id: int | None = None,
) -> int:
    """Fold a worker's :func:`tracer_state` into ``tracer``.

    ``parent_span_id`` (a span id in ``tracer``) becomes the parent of
    the worker's root spans.  Returns the number of spans merged.
    """
    if state.get("format") != STATE_FORMAT:
        raise ValueError(
            f"incompatible tracer state: {state.get('format')!r}"
            f" (expected {STATE_FORMAT!r})")
    ts_shift = state["epoch_unix"] - tracer.epoch_unix
    # Remap ids in recording order: parents always finish after their
    # children, but were *assigned* ids before them, so build the full
    # map first, then rewrite links.
    id_map: dict[int, int] = {}
    for span in state["spans"]:
        id_map[span.span_id] = tracer.next_id()
    merged: list[SpanRecord] = []
    for span in state["spans"]:
        parent = id_map.get(span.parent_id)
        if parent is None:
            parent = parent_span_id
        merged.append(replace(
            span,
            ts=span.ts + ts_shift,
            span_id=id_map[span.span_id],
            parent_id=parent,
        ))
    # Resource samples rebase like spans; the span attribution is
    # remapped through the same id map (``.get`` on both sides keeps
    # pre-sampler states mergeable and degrades an unshipped span to
    # "unattributed" instead of a dangling id).
    merged_samples = [
        replace(sample, ts=sample.ts + ts_shift,
                span_id=(id_map.get(sample.span_id)
                         if sample.span_id is not None else None))
        for sample in state.get("samples", ())
    ]
    with tracer._lock:
        tracer.spans.extend(merged)
        tracer.samples.extend(merged_samples)
    tracer.metrics.merge_raw(state["metrics"], ts_shift=ts_shift)
    return len(merged)
