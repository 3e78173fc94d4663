"""Counters, gauges and histograms: the one metric store.

The span tracer (``Tracer.metrics``, fed by ``obs.add``/``obs.gauge``/
``obs.record``) and the serve daemon (``JobManager.metrics``, behind
``GET /metricsz``) each own a :class:`MetricStore`.  A store holds
named families of three kinds, every one with optional label
dimensions (one series per distinct label set):

* **counter** -- monotonically accumulated totals (``sim.events``,
  ``jobs{outcome}``);
* **gauge** -- either set, keeping every timestamped sample (the Chrome
  exporter draws the series as a counter track), or backed by a
  callback read at scrape time (``process_rss_bytes``);
* **histogram** -- cumulative buckets, exact count/sum/min/max, and a
  bounded window of the most recent :data:`DEFAULT_WINDOW` values from
  which :meth:`Histogram.summary` takes nearest-rank p50/p95.

:mod:`repro.obs.promexpo` renders any store as Prometheus text; the
JSONL and Chrome exporters read its unlabeled series through
:meth:`MetricStore.snapshot`.  :meth:`MetricStore.raw` and
:meth:`MetricStore.merge_raw` ship a store's state across a process
boundary and fold it into another.  All operations are thread-safe.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import deque
from time import perf_counter

#: Prometheus-style duration buckets (seconds): 5 ms .. 60 s covers
#: everything from a cached stage restore to a cold full-suite flow.
DURATION_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
                    1.0, 2.5, 5.0, 10.0, 30.0, 60.0)

#: byte buckets for the peak-RSS histograms: 16 MB .. 8 GB, powers of 2.
BYTE_BUCKETS = tuple(float(16 * (1 << 20) * (1 << i)) for i in range(10))

#: how many recent observations a histogram keeps for its percentiles.
DEFAULT_WINDOW = 512

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Histogram:
    """One label set's histogram: per-bucket counts (cumulated when
    rendered), exact count/sum/min/max, and the recent-value window."""

    __slots__ = ("buckets", "counts", "count", "sum", "min", "max",
                 "window")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self.buckets = buckets
        #: observations per bucket; values above the last bound land
        #: only in ``count`` (the implicit +Inf bucket).
        self.counts = [0] * len(buckets)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.window: deque[float] = deque(maxlen=DEFAULT_WINDOW)

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        if index < len(self.counts):
            self.counts[index] += 1
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        self.window.append(value)

    def merge(self, other: "Histogram") -> "Histogram":
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self.window.extend(other.window)
        return self

    def summary(self) -> dict[str, float]:
        """count/min/max/mean (exact) and p50/p95 (over the window).

        Percentiles use the **nearest-rank** method on the sorted
        window: ``values[min(n - 1, int(p * n))]`` -- an observed value,
        never an interpolation, biased at most one rank low.  An empty
        histogram returns every key with value 0, so callers can index
        ``summary["p95"]`` without checking ``count`` first.
        """
        if not self.count:
            return {"count": 0, "min": 0.0, "max": 0.0, "mean": 0.0,
                    "p50": 0.0, "p95": 0.0}
        values = sorted(self.window)
        n = len(values)
        return {
            "count": self.count,
            "min": self.min,
            "max": self.max,
            "mean": self.sum / self.count,
            "p50": values[min(n - 1, int(0.50 * n))],
            "p95": values[min(n - 1, int(0.95 * n))],
        }


def _copy(data):
    if isinstance(data, Histogram):
        return Histogram(data.buckets).merge(data)
    return list(data) if isinstance(data, list) else data


class _Family:
    __slots__ = ("kind", "help", "buckets", "series")

    def __init__(self, kind: str, help_text: str,
                 buckets: tuple[float, ...]) -> None:
        self.kind = kind
        self.help = help_text
        self.buckets = buckets
        #: label key -> counter total | gauge samples or callback |
        #: Histogram
        self.series: dict[LabelKey, object] = {}


class MetricStore:
    """Thread-safe named metric families (see the module docstring)."""

    def __init__(self, epoch: float | None = None) -> None:
        #: gauge sample timestamps are seconds since this perf_counter().
        self.epoch = perf_counter() if epoch is None else epoch
        #: counter increments + gauge samples + histogram observations
        #: (the instrumentation calls a disabled tracer would have made).
        self.op_count = 0
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    def _family(self, name: str, kind: str, help_text: str = "",
                buckets: tuple[float, ...] = DURATION_BUCKETS) -> _Family:
        """Create-or-return family ``name``; the caller holds the lock."""
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = _Family(
                kind, help_text, tuple(sorted(buckets)))
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {family.kind}, not a {kind}")
        return family

    def declare(self, name: str, kind: str, help_text: str = "",
                buckets: tuple[float, ...] = DURATION_BUCKETS) -> None:
        """Register family ``name`` (idempotent), so it is rendered with
        its help text and buckets before its first sample."""
        with self._lock:
            self._family(name, kind, help_text, buckets)

    def add(self, name: str, value: float = 1.0, **labels) -> None:
        """Increment counter ``name`` by ``value``."""
        key = _label_key(labels) if labels else ()
        with self._lock:
            series = self._family(name, "counter").series
            series[key] = series.get(key, 0.0) + value
            self.op_count += 1

    def gauge(self, name: str, value: float, **labels) -> None:
        """Record a timestamped sample of gauge ``name``."""
        ts = perf_counter() - self.epoch
        key = _label_key(labels) if labels else ()
        with self._lock:
            self._family(name, "gauge").series.setdefault(key, []).append(
                (ts, value))
            self.op_count += 1

    def gauge_fn(self, name: str, fn, help_text: str = "",
                 **labels) -> None:
        """Back gauge ``name`` with the zero-argument ``fn``, read at
        scrape time (a callback that raises reads as 0)."""
        with self._lock:
            self._family(name, "gauge", help_text).series[
                _label_key(labels)] = fn

    def record(self, name: str, value: float, **labels) -> None:
        """Observe ``value`` into histogram ``name``."""
        key = _label_key(labels) if labels else ()
        with self._lock:
            family = self._family(name, "histogram")
            hist = family.series.get(key)
            if hist is None:
                hist = family.series[key] = Histogram(family.buckets)
            hist.observe(float(value))
            self.op_count += 1

    # -- reading -------------------------------------------------------------

    def value(self, name: str, **labels) -> float:
        """Counter ``name``'s total for exactly ``labels`` (0 if unset)."""
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return 0.0
            return family.series.get(_label_key(labels), 0.0)

    def collect(self) -> list[tuple[str, str, str, tuple, list]]:
        """``(name, kind, help, buckets, [(labels, data), ...])`` per
        family, sorted by name and label set.  ``data`` is a copy: a
        counter total, a gauge's sample list or callback, a Histogram."""
        with self._lock:
            return [
                (name, f.kind, f.help, f.buckets,
                 [(key, _copy(f.series[key])) for key in sorted(f.series)])
                for name, f in sorted(self._families.items())
            ]

    def snapshot(self) -> dict[str, dict]:
        """The unlabeled, sampled series by name, for the JSONL and
        Chrome exporters: counter totals, gauge sample lists and
        histogram summaries."""
        out: dict[str, dict] = {"counters": {}, "gauges": {},
                                "histograms": {}}
        for name, kind, _help, _buckets, series in self.collect():
            data = dict(series).get(())
            if data is None or callable(data):
                continue
            out[kind + "s"][name] = (data.summary() if kind == "histogram"
                                     else data)
        return out

    # -- shipping ------------------------------------------------------------

    def raw(self) -> dict:
        """The full state (callback gauges aside) as a picklable dict,
        for :meth:`merge_raw` in another store or process."""
        families = [
            (name, kind, help_text, buckets,
             [(key, data) for key, data in series if not callable(data)])
            for name, kind, help_text, buckets, series in self.collect()
        ]
        return {"ops": self.op_count, "families": families}

    def merge_raw(self, raw: dict, ts_shift: float = 0.0) -> None:
        """Fold another store's :meth:`raw` state into this one.

        Counters and histograms accumulate; gauge samples append with
        their timestamps shifted by ``ts_shift`` seconds (the source
        epoch rebased onto this one's).
        """
        with self._lock:
            self.op_count += raw["ops"]
            for name, kind, help_text, buckets, series in raw["families"]:
                family = self._family(name, kind, help_text, buckets)
                for key, data in series:
                    mine = family.series
                    if kind == "counter":
                        mine[key] = mine.get(key, 0.0) + data
                    elif kind == "gauge":
                        mine.setdefault(key, []).extend(
                            (ts + ts_shift, v) for ts, v in data)
                    else:
                        mine.setdefault(
                            key, Histogram(family.buckets)).merge(data)
