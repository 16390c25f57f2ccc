"""A process-local metrics registry.

Counters, gauges, and histograms, each optionally labelled; one
:class:`MetricsRegistry` per process (or per run) collects them and
renders a **deterministic** snapshot: metric names, label sets, and
JSON keys all serialize sorted, so two runs that did the same work
produce byte-identical snapshot files.  That is the contract the
execution stack builds on — the engine populates the registry from
:class:`~repro.processor.context.ExecutionStats` (whose counters are
already proven layout-independent by the determinism suite), never
from wall-clock time, so the same program yields the same snapshot
whatever its partition layout.

Per-partition registries combine with :meth:`MetricsRegistry.merge`
exactly like ``ExecutionStats.merge``: counters and histogram buckets
sum, gauges keep the merged-in value (last observation wins).
"""

import json

from repro.observability.logs import get_logger

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "record_evictions",
    "record_execution",
    "record_stats",
]

logger = get_logger("observability")

#: default histogram bucket upper bounds (counts of work items; the
#: last implicit bucket is +inf)
DEFAULT_BUCKETS = (1, 5, 10, 50, 100, 500, 1_000, 5_000, 10_000)


def _label_key(labels):
    """Canonical, hashable identity for one label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Shared plumbing: named series keyed by canonical label tuples."""

    kind = "abstract"

    def __init__(self, name, help=""):
        self.name = name
        self.help = help
        self.series = {}

    def _series_snapshot(self, value):
        return value

    def snapshot(self):
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "series": [
                {"labels": dict(key), "value": self._series_snapshot(self.series[key])}
                for key in sorted(self.series)
            ],
        }


class Counter(_Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def inc(self, amount=1, **labels):
        if amount < 0:
            raise ValueError("counter %r cannot decrease (got %r)" % (self.name, amount))
        key = _label_key(labels)
        self.series[key] = self.series.get(key, 0) + amount

    def value(self, **labels):
        return self.series.get(_label_key(labels), 0)


class Gauge(_Metric):
    """A point-in-time value (last observation wins on merge)."""

    kind = "gauge"

    def set(self, value, **labels):
        self.series[_label_key(labels)] = value

    def inc(self, amount=1, **labels):
        key = _label_key(labels)
        self.series[key] = self.series.get(key, 0) + amount

    def value(self, **labels):
        return self.series.get(_label_key(labels), 0)


class Histogram(_Metric):
    """Bucketed observations (cumulative-style ``le`` buckets + sum)."""

    kind = "histogram"

    def __init__(self, name, help="", buckets=DEFAULT_BUCKETS):
        super().__init__(name, help)
        self.buckets = tuple(sorted(buckets))

    def observe(self, value, **labels):
        key = _label_key(labels)
        series = self.series.get(key)
        if series is None:
            series = self.series[key] = {
                "count": 0,
                "sum": 0,
                "buckets": [0] * (len(self.buckets) + 1),
            }
        series["count"] += 1
        series["sum"] += value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                series["buckets"][i] += 1
                break
        else:
            series["buckets"][-1] += 1

    def _series_snapshot(self, value):
        return {
            "count": value["count"],
            "sum": value["sum"],
            "buckets": list(value["buckets"]),
            "bounds": list(self.buckets),
        }


class MetricsRegistry:
    """Creates, holds, snapshots, and merges metrics.

    Metric constructors are idempotent: asking twice for the same name
    returns the same instance; asking for an existing name as a
    different kind raises.
    """

    def __init__(self):
        self._metrics = {}

    def __len__(self):
        return len(self._metrics)

    def _make(self, cls, name, help, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    "metric %r already registered as a %s, not a %s"
                    % (name, existing.kind, cls.kind)
                )
            return existing
        metric = self._metrics[name] = cls(name, help, **kwargs)
        return metric

    def counter(self, name, help=""):
        return self._make(Counter, name, help)

    def gauge(self, name, help=""):
        return self._make(Gauge, name, help)

    def histogram(self, name, help="", buckets=DEFAULT_BUCKETS):
        return self._make(Histogram, name, help, buckets=buckets)

    def get(self, name):
        return self._metrics.get(name)

    # -- snapshot / merge ----------------------------------------------
    def snapshot(self):
        """A plain-data, deterministically ordered view of every series."""
        return {
            "metrics": [
                self._metrics[name].snapshot() for name in sorted(self._metrics)
            ]
        }

    def to_json(self, indent=2):
        """The snapshot as canonical JSON (sorted keys, trailing newline)."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True) + "\n"

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
        logger.debug("wrote metrics snapshot to %s", path)
        return path

    def merge(self, other):
        """Fold another registry (or snapshot dict) into this one.

        Counters and histogram series sum; gauges take the merged-in
        value.  Returns ``self`` for chaining.
        """
        snapshot = other.snapshot() if isinstance(other, MetricsRegistry) else other
        for entry in snapshot["metrics"]:
            kind, name = entry["kind"], entry["name"]
            if kind == "counter":
                metric = self.counter(name, entry.get("help", ""))
                for series in entry["series"]:
                    metric.inc(series["value"], **series["labels"])
            elif kind == "gauge":
                metric = self.gauge(name, entry.get("help", ""))
                for series in entry["series"]:
                    metric.set(series["value"], **series["labels"])
            elif kind == "histogram":
                first = entry["series"][0] if entry["series"] else None
                bounds = tuple(first["value"]["bounds"]) if first else DEFAULT_BUCKETS
                metric = self.histogram(name, entry.get("help", ""), buckets=bounds)
                for series in entry["series"]:
                    value = series["value"]
                    key = _label_key(series["labels"])
                    target = metric.series.get(key)
                    if target is None:
                        target = metric.series[key] = {
                            "count": 0,
                            "sum": 0,
                            "buckets": [0] * (len(metric.buckets) + 1),
                        }
                    if len(value["buckets"]) != len(target["buckets"]):
                        raise ValueError(
                            "histogram %r bucket layouts differ" % (name,)
                        )
                    target["count"] += value["count"]
                    target["sum"] += value["sum"]
                    target["buckets"] = [
                        a + b for a, b in zip(target["buckets"], value["buckets"])
                    ]
            else:
                raise ValueError("unknown metric kind %r for %r" % (kind, name))
        return self


# ----------------------------------------------------------------------
# execution-stack bridges
# ----------------------------------------------------------------------

def record_stats(registry, stats, **labels):
    """Fold one :class:`ExecutionStats` into ``repro.exec.*`` counters.

    Every stats field becomes the counter ``repro.exec.<field>``; the
    optional labels (``task="T1"``, ...) key the series.  Only
    deterministic counters are recorded — never wall-clock — so
    snapshots stay byte-identical across partition layouts.
    """
    for name in sorted(vars(stats)):
        registry.counter("repro.exec.%s" % name).inc(getattr(stats, name), **labels)
    return registry


def record_evictions(registry, evicted, **labels):
    """Record result-cache evictions as ``repro.cache.evicted``.

    Deliberately *not* part of :func:`record_stats` /
    :func:`record_execution`: how many entries the pruner removed
    depends on what previous runs left on disk, not on this run's
    execution, so auto-recording it would break the cross-run
    byte-identity of execution snapshots.
    The CLI opts in explicitly whenever a result store is configured.
    """
    registry.counter(
        "repro.cache.evicted",
        help="result/columnar cache entries pruned beyond the size caps",
    ).inc(evicted, **labels)
    return registry


def record_execution(registry, result, **labels):
    """Record one :class:`ExecutionResult`: its stats plus result shape."""
    record_stats(registry, result.stats, **labels)
    registry.counter("repro.result.executions").inc(1, **labels)
    registry.gauge("repro.result.tuples").set(result.tuple_count, **labels)
    registry.gauge("repro.result.assignments").set(result.assignment_count, **labels)
    registry.gauge("repro.result.maybe_tuples").set(result.maybe_count, **labels)
    registry.histogram("repro.result.tuples_per_execution").observe(
        result.tuple_count, **labels
    )
    report = getattr(result, "report", None)
    if report is not None:
        registry.counter("repro.result.skipped_documents").inc(
            len(report.records), **labels
        )
    return registry
