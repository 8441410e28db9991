"""Metrics registry: thread safety, disabled mode, export formats."""

import json
import threading

import pytest

from repro.obs.export import to_json, to_prometheus
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    generation,
    get_registry,
    set_registry,
)


def _hammer(n_threads, fn):
    """Run fn(thread_index) on n_threads threads; re-raise any failure."""
    errors = []

    def run(i):
        try:
            fn(i)
        except Exception as exc:  # pragma: no cover - diagnostic path
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


class TestCounter:
    def test_no_lost_updates_under_concurrency(self):
        counter = Counter()
        per_thread = 5000
        _hammer(16, lambda i: [counter.inc() for _ in range(per_thread)])
        assert counter.value == 16 * per_thread

    def test_inc_amount_and_reset(self):
        counter = Counter()
        counter.inc(7)
        counter.inc(3)
        assert counter.value == 10
        counter.reset()
        assert counter.value == 0


class TestGauge:
    def test_set_add(self):
        gauge = Gauge()
        gauge.set(4.0)
        gauge.add(-1.5)
        assert gauge.value == 2.5

    def test_concurrent_add_exact(self):
        gauge = Gauge()
        _hammer(8, lambda i: [gauge.add(1.0) for _ in range(1000)])
        assert gauge.value == 8000.0


class TestHistogram:
    def test_bucketing(self):
        hist = Histogram(buckets=[0.001, 0.01, 0.1])
        for value in (0.0005, 0.005, 0.05, 5.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 4
        # Cumulative counts per upper bound, +Inf holds everything.
        assert snap["buckets"]["0.001"] == 1
        assert snap["buckets"]["0.01"] == 2
        assert snap["buckets"]["0.1"] == 3
        assert snap["buckets"]["+Inf"] == 4
        assert snap["mean"] == pytest.approx(snap["sum"] / 4)

    def test_snapshot_never_torn_under_concurrent_observe(self):
        """A snapshot taken mid-write still satisfies +Inf == count."""
        hist = Histogram(buckets=[0.001, 0.01, 0.1, 1.0])
        stop = threading.Event()
        torn = []

        def writer():
            i = 0
            while not stop.is_set():
                hist.observe((i % 1000) / 500.0)
                i += 1

        def reader():
            for _ in range(2000):
                snap = hist.snapshot()
                if snap["buckets"]["+Inf"] != snap["count"]:
                    torn.append(snap)

        writers = [threading.Thread(target=writer) for _ in range(4)]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        for t in writers + readers:
            t.start()
        for t in readers:
            t.join()
        stop.set()
        for t in writers:
            t.join()
        assert not torn

    def test_empty_and_default_buckets(self):
        hist = Histogram()
        assert hist.bounds == tuple(sorted(DEFAULT_BUCKETS))
        assert hist.snapshot()["count"] == 0
        with pytest.raises(ValueError):
            Histogram(buckets=[])

    def test_snapshot_json_serializable(self):
        hist = Histogram()
        hist.observe(0.003)
        json.dumps(hist.snapshot(), sort_keys=True)


class TestRegistry:
    def test_same_series_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", kind="flush")
        b = registry.counter("x_total", kind="flush")
        c = registry.counter("x_total", kind="drain")
        assert a is b
        assert a is not c

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("dual")
        registry.gauge("level", tenant="t")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("dual")
        # The existing series is found without the lock; its kind decides.
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("level", tenant="t")
        assert registry.families() == {"dual": "counter", "level": "gauge"}

    def test_existing_series_is_served_without_the_lock(self):
        registry = MetricsRegistry()
        made = [
            registry.counter("c_total", op="x"),
            registry.gauge("g", tenant="t"),
            registry.histogram("h_seconds"),
        ]

        class Untouchable:
            def __enter__(self):
                raise AssertionError("lookup of an existing series took the lock")

            def __exit__(self, *exc):
                return False

        registry._lock = Untouchable()
        assert [
            registry.counter("c_total", op="x"),
            registry.gauge("g", tenant="t"),
            registry.histogram("h_seconds"),
        ] == made

    def test_concurrent_create_and_inc(self):
        """Racing registrations of one series never drop increments."""
        registry = MetricsRegistry()
        _hammer(
            12,
            lambda i: [
                registry.counter("races_total", shard=i % 3).inc()
                for _ in range(500)
            ],
        )
        total = sum(registry.counters_snapshot().values())
        assert total == 12 * 500

    def test_snapshot_and_families(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc(2)
        registry.gauge("b").set(1.5)
        registry.histogram("c_seconds").observe(0.1)
        snap = registry.snapshot()
        assert snap["a_total"] == 2
        assert snap["b"] == 1.5
        assert snap["c_seconds"]["count"] == 1
        assert registry.families() == {
            "a_total": "counter",
            "b": "gauge",
            "c_seconds": "histogram",
        }

    def test_reset_keeps_handles_valid(self):
        registry = MetricsRegistry()
        counter = registry.counter("r_total")
        counter.inc(9)
        registry.reset()
        assert counter.value == 0
        counter.inc()
        assert registry.snapshot()["r_total"] == 1

    def test_disabled_registry_hands_out_nulls(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("x") is NULL_COUNTER
        assert registry.gauge("y") is NULL_GAUGE
        assert registry.histogram("z") is NULL_HISTOGRAM
        NULL_COUNTER.inc()
        NULL_GAUGE.set(3)
        NULL_HISTOGRAM.observe(1.0)
        assert registry.snapshot() == {}
        assert NULL_COUNTER.value == 0


class TestDefaultRegistry:
    def test_swap_bumps_generation_and_restores(self):
        before = generation()
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
            assert generation() == before + 1
        finally:
            set_registry(previous)
        assert get_registry() is previous


class TestExport:
    def _sample_registry(self):
        registry = MetricsRegistry()
        registry.counter("wal_records_total").inc(5)
        registry.counter("persistence_events_total", kind="flush").inc(3)
        registry.gauge("delta_rows").set(42)
        registry.histogram("fsync_seconds", buckets=[0.001, 0.1]).observe(0.05)
        return registry

    def test_to_json_round_trips(self):
        data = json.loads(to_json(self._sample_registry()))
        assert data['persistence_events_total{kind="flush"}'] == 3
        assert data["fsync_seconds"]["count"] == 1

    def test_prometheus_exposition(self):
        text = to_prometheus(self._sample_registry())
        assert "# TYPE wal_records_total counter" in text
        assert 'persistence_events_total{kind="flush"} 3' in text
        assert "# TYPE fsync_seconds histogram" in text
        assert 'fsync_seconds_bucket{le="0.1"} 1' in text
        assert 'fsync_seconds_bucket{le="+Inf"} 1' in text
        assert "fsync_seconds_count 1" in text
        assert text.endswith("\n")
