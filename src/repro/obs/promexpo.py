"""Prometheus text exposition (version 0.0.4) of a metric store.

Renders any :class:`repro.obs.metrics.MetricStore` into the
``text/plain; version=0.0.4`` format every Prometheus-family scraper
understands::

    # HELP repro_http_requests_total HTTP requests by endpoint
    # TYPE repro_http_requests_total counter
    repro_http_requests_total{endpoint="/jobs",method="POST",status="202"} 4
    # TYPE repro_stage_seconds histogram
    repro_stage_seconds_bucket{stage="synth",style="3p",le="0.25"} 3
    repro_stage_seconds_bucket{stage="synth",style="3p",le="+Inf"} 5
    repro_stage_seconds_sum{stage="synth",style="3p"} 1.75
    repro_stage_seconds_count{stage="synth",style="3p"} 5

A family named ``name`` is exposed as ``repro_<name>`` (dots become
underscores) with ``_total`` appended for counters, so the tracer's
``cache.hits`` is ``repro_cache_hits_total`` and the daemon's ``jobs``
counter is ``repro_jobs_total``.

Two consumers:

* the serve daemon's ``GET /metricsz`` renders its live store
  (:class:`~repro.serve.jobs.JobManager` instruments it continuously);
* the batch CLI's ``--metrics-out FILE`` renders the finished run's
  tracer store (:func:`write_metrics`).

Both derive the per-stage families from ``stage.*`` spans through
:func:`observe_stages`, so one Grafana dashboard covers both surfaces.
"""

from __future__ import annotations

import re

from repro.obs.metrics import BYTE_BUCKETS, MetricStore

#: the Content-Type a /metricsz response must carry.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_SAN = re.compile(r"[^a-zA-Z0-9_:]")

#: HELP text of a family declared without one.
_DEFAULT_HELP = {
    "counter": "total of internal counter {}",
    "gauge": "last sampled value of gauge {}",
    "histogram": "observations of internal histogram {}",
}

#: the per-stage families, as :meth:`MetricStore.declare` arguments.
_STAGE_FAMILIES = (
    ("stage_seconds", "histogram",
     "wall-clock seconds per executed pipeline stage"),
    ("stage_peak_rss_bytes", "histogram",
     "peak resident set size per monitored pipeline stage", BYTE_BUCKETS),
    ("stage_cache", "counter", "stage-level artifact cache outcomes"),
)


def metric_name(name: str, prefix: str = "repro_") -> str:
    """A dotted internal metric name as a legal Prometheus name."""
    sanitized = _NAME_SAN.sub("_", name)
    if not sanitized or not (sanitized[0].isalpha() or sanitized[0] == "_"):
        sanitized = "_" + sanitized
    return prefix + sanitized


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _escape_label(value: str) -> str:
    return (value.replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _labels(pairs) -> str:
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in pairs)
    return "{" + inner + "}"


def _value(v: float) -> str:
    f = float(v)
    if f != f:  # NaN
        return "NaN"
    if f in (float("inf"), float("-inf")):
        return "+Inf" if f > 0 else "-Inf"
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _gauge_value(data) -> float:
    """A set gauge's last sample, or a callback gauge's reading."""
    if not callable(data):
        return data[-1][1]
    try:
        return float(data())
    except Exception:
        return 0.0


def render(store: MetricStore) -> str:
    """The store's full state as Prometheus text exposition."""
    lines: list[str] = []
    for name, kind, help_text, buckets, series in store.collect():
        prom = metric_name(name + ("_total" if kind == "counter" else ""))
        help_text = help_text or _DEFAULT_HELP[kind].format(name)
        lines.append(f"# HELP {prom} {_escape_help(help_text)}")
        lines.append(f"# TYPE {prom} {kind}")
        if kind == "counter":
            for labels, total in series or [((), 0.0)]:
                lines.append(f"{prom}{_labels(labels)} {_value(total)}")
        elif kind == "gauge":
            for labels, data in series:
                lines.append(
                    f"{prom}{_labels(labels)} {_value(_gauge_value(data))}")
        else:
            for labels, hist in series:
                cumulative = 0
                for bound, count in zip(buckets, hist.counts):
                    cumulative += count
                    le = labels + (("le", _value(bound)),)
                    lines.append(f"{prom}_bucket{_labels(le)} {cumulative}")
                le = labels + (("le", "+Inf"),)
                lines.append(f"{prom}_bucket{_labels(le)} {hist.count}")
                lines.append(f"{prom}_sum{_labels(labels)} {_value(hist.sum)}")
                lines.append(f"{prom}_count{_labels(labels)} {hist.count}")
    return "\n".join(lines) + "\n"


def observe_stages(store: MetricStore, spans=()) -> None:
    """Fold finished ``stage.*`` spans into the per-stage families.

    Each span observes its wall time into ``stage_seconds{stage,style}``,
    counts ``stage_cache{outcome}`` as a ``hit`` or ``miss``, and, when
    it carries ``peak_rss_bytes`` (a monitored run), observes that into
    ``stage_peak_rss_bytes{stage}``.  The families are declared first,
    so with no spans this only registers them.
    """
    for family in _STAGE_FAMILIES:
        store.declare(*family)
    for span in spans:
        if not span.name.startswith("stage."):
            continue
        stage = span.name[len("stage."):]
        store.record("stage_seconds", span.dur, stage=stage,
                     style=span.attrs.get("style", ""))
        store.add("stage_cache",
                  outcome="hit" if span.attrs.get("cache_hit") else "miss")
        peak = span.attrs.get("peak_rss_bytes")
        if isinstance(peak, (int, float)):
            store.record("stage_peak_rss_bytes", peak, stage=stage)


def write_metrics(tracer, path: str) -> None:
    """Write a finished run's exposition to ``path`` (``--metrics-out``):
    the tracer's store plus the per-stage families of its spans and, for
    a monitored run, the peak sampled RSS."""
    store = tracer.metrics
    observe_stages(store, tracer.spans)
    if tracer.samples:
        store.declare("process_peak_rss_bytes", "gauge",
                      "max sampled resident set size over the run")
        store.gauge("process_peak_rss_bytes",
                    max(s.rss_bytes for s in tracer.samples))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render(store))


__all__ = [
    "CONTENT_TYPE",
    "metric_name",
    "observe_stages",
    "render",
    "write_metrics",
]
