"""Metrics registry: ops, deterministic snapshots, and merge semantics."""

import json

import pytest

from repro.observability.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    record_execution,
    record_stats,
)
from repro.processor.context import ExecutionStats


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro.test.ops")
        counter.inc()
        counter.inc(4)
        assert counter.value() == 5

    def test_labels_key_separate_series(self):
        counter = MetricsRegistry().counter("repro.test.ops")
        counter.inc(2, task="T1")
        counter.inc(3, task="T5")
        assert counter.value(task="T1") == 2
        assert counter.value(task="T5") == 3
        assert counter.value() == 0

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("repro.test.ops")
        with pytest.raises(ValueError):
            counter.inc(-1)


class TestGauge:
    def test_set_overwrites(self):
        gauge = MetricsRegistry().gauge("repro.test.level")
        gauge.set(7)
        gauge.set(3)
        assert gauge.value() == 3

    def test_inc_accumulates(self):
        gauge = MetricsRegistry().gauge("repro.test.level")
        gauge.inc(2)
        gauge.inc(-5)
        assert gauge.value() == -3


class TestHistogram:
    def test_observations_land_in_buckets(self):
        histogram = MetricsRegistry().histogram("repro.test.sizes", buckets=(1, 10))
        for value in (0, 1, 5, 100):
            histogram.observe(value)
        snap = histogram.snapshot()["series"][0]["value"]
        assert snap["count"] == 4
        assert snap["sum"] == 106
        assert snap["buckets"] == [2, 1, 1]  # <=1, <=10, +inf
        assert snap["bounds"] == [1, 10]

    def test_default_buckets_sorted(self):
        assert tuple(sorted(DEFAULT_BUCKETS)) == DEFAULT_BUCKETS


class TestRegistry:
    def test_constructors_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ValueError):
            registry.gauge("a")

    def test_snapshot_is_sorted_and_json_stable(self):
        def build(order):
            registry = MetricsRegistry()
            for name in order:
                registry.counter(name).inc(1, z="1", a="2")
            return registry

        first = build(["b", "a", "c"]).to_json()
        second = build(["c", "b", "a"]).to_json()
        assert first == second
        names = [m["name"] for m in json.loads(first)["metrics"]]
        assert names == sorted(names)

    def test_write_round_trips(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("repro.test.ops").inc(3)
        path = tmp_path / "metrics.json"
        registry.write(path)
        loaded = json.loads(path.read_text())
        assert loaded == registry.snapshot()

    def test_merge_sums_counters_and_histograms(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        for registry, amount in ((left, 2), (right, 5)):
            registry.counter("ops").inc(amount, task="t")
            registry.histogram("sizes", buckets=(10,)).observe(amount)
            registry.gauge("level").set(amount)
        left.merge(right)
        assert left.counter("ops").value(task="t") == 7
        series = left.histogram("sizes").snapshot()["series"][0]["value"]
        assert series["count"] == 2 and series["sum"] == 7
        # gauges: the merged-in observation wins
        assert left.gauge("level").value() == 5

    def test_merge_accepts_snapshot_dict(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        right.counter("ops").inc(4)
        left.merge(right.snapshot())
        assert left.counter("ops").value() == 4

    def test_merge_equivalent_to_single_registry(self):
        """Per-partition registries merge like ExecutionStats: the fold
        equals one registry that saw all the work."""
        parts = []
        for i in range(3):
            registry = MetricsRegistry()
            registry.counter("ops").inc(i + 1)
            parts.append(registry)
        combined = MetricsRegistry()
        for part in parts:
            combined.merge(part)
        reference = MetricsRegistry()
        reference.counter("ops").inc(6)
        assert combined.to_json() == reference.to_json()


class TestExecutionBridges:
    def test_record_stats_covers_every_field(self):
        stats = ExecutionStats(verify_calls=3, tuples_built=7)
        registry = MetricsRegistry()
        record_stats(registry, stats, task="T1")
        assert registry.counter("repro.exec.verify_calls").value(task="T1") == 3
        assert registry.counter("repro.exec.tuples_built").value(task="T1") == 7
        recorded = {m["name"] for m in registry.snapshot()["metrics"]}
        assert recorded == {"repro.exec.%s" % name for name in vars(stats)}

    def test_record_execution(self, figure2_program, figure1_corpus):
        from repro.processor.executor import IFlexEngine

        result = IFlexEngine(figure2_program, figure1_corpus).execute()
        registry = MetricsRegistry()
        record_execution(registry, result)
        assert registry.counter("repro.result.executions").value() == 1
        assert registry.gauge("repro.result.tuples").value() == result.tuple_count
        histogram = registry.get("repro.result.tuples_per_execution")
        assert histogram.snapshot()["series"][0]["value"]["count"] == 1


class TestEngineMetrics:
    def test_engine_records_into_registry(self, figure2_program, figure1_corpus):
        from repro.processor.executor import IFlexEngine

        registry = MetricsRegistry()
        engine = IFlexEngine(figure2_program, figure1_corpus, metrics=registry)
        result = engine.execute()
        assert (
            registry.counter("repro.exec.verify_calls").value()
            == result.stats.verify_calls
        )
        assert registry.counter("repro.result.executions").value() == 1
