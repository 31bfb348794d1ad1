"""Tests for the metrics registry: counters, gauges, histograms.

The registry is the telemetry substrate; these tests pin its contracts —
get-or-create identity, sorted snapshots, and a disabled path that is
allocation-free on the hot-loop guard idiom.
"""

import gc
import sys

import pytest

from repro import obs
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    _NULL_METRIC,
)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    obs.disable_telemetry()
    yield
    obs.disable_telemetry()


class TestCounter:
    def test_inc_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)

    def test_rejects_decrease(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("c").inc(-1)

    def test_snapshot_shape(self):
        counter = Counter("c", {"shard": "1"})
        counter.inc(4)
        assert counter.snapshot() == {
            "name": "c", "labels": {"shard": "1"}, "value": 4.0,
        }


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10.0)
        gauge.inc(2.0)
        gauge.dec(5.0)
        assert gauge.value == pytest.approx(7.0)


class TestHistogram:
    def test_counts_sum_min_max(self):
        hist = Histogram("h", bounds=(1.0, 10.0))
        for value in (0.5, 2.0, 3.0, 50.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(55.5)
        assert hist.min == pytest.approx(0.5)
        assert hist.max == pytest.approx(50.0)
        # buckets: <=1, <=10, +Inf
        assert hist.counts == [1, 2, 1]

    def test_default_bounds_are_sorted_latency_buckets(self):
        hist = Histogram("h")
        assert hist.bounds == DEFAULT_BUCKETS
        assert list(hist.bounds) == sorted(hist.bounds)
        assert hist.bounds[0] == pytest.approx(1e-6)
        assert hist.bounds[-1] == pytest.approx(60.0)

    def test_bounds_are_sorted_on_creation(self):
        hist = Histogram("h", bounds=(10.0, 1.0, 5.0))
        assert hist.bounds == (1.0, 5.0, 10.0)

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValueError, match="at least one bucket"):
            Histogram("h", bounds=())

    def test_percentiles_on_uniform_values(self):
        hist = Histogram("h")
        values = [i / 1000 for i in range(1, 1001)]  # 1ms .. 1s uniform
        for value in values:
            hist.observe(value)
        # interpolation error stays within one bucket's width
        assert hist.percentile(0.5) == pytest.approx(0.5, rel=0.25)
        assert hist.percentile(0.95) == pytest.approx(0.95, rel=0.15)
        assert hist.percentile(0.99) == pytest.approx(0.99, rel=0.15)
        assert hist.percentile(1.0) == pytest.approx(1.0, rel=0.01)

    def test_percentile_empty_is_zero(self):
        assert Histogram("h").percentile(0.5) == 0.0

    def test_percentile_range_validated(self):
        with pytest.raises(ValueError, match="quantile"):
            Histogram("h").percentile(1.5)

    def test_mean(self):
        hist = Histogram("h")
        assert hist.mean == 0.0
        hist.observe(2.0)
        hist.observe(4.0)
        assert hist.mean == pytest.approx(3.0)

    def test_single_value_percentiles_collapse_to_it(self):
        hist = Histogram("h")
        hist.observe(0.0042)
        assert hist.percentile(0.5) == pytest.approx(0.0042, rel=0.5)
        assert hist.percentile(0.99) <= hist.max


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.gauge("g") is registry.gauge("g")

    def test_labels_distinguish_metrics(self):
        registry = MetricsRegistry()
        a = registry.counter("c", {"shard": "0"})
        b = registry.counter("c", {"shard": "1"})
        assert a is not b
        # label order is irrelevant to identity
        x = registry.counter("c", {"a": "1", "b": "2"})
        y = registry.counter("c", {"b": "2", "a": "1"})
        assert x is y

    def test_snapshot_shape_and_sorting(self):
        registry = MetricsRegistry()
        registry.counter("z").inc()
        registry.counter("a").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(0.01)
        snap = registry.snapshot()
        assert [c["name"] for c in snap["counters"]] == ["a", "z"]
        assert snap["gauges"][0]["value"] == 1.5
        assert snap["histograms"][0]["count"] == 1


class TestModuleSwitch:
    def test_disabled_by_default(self):
        assert isinstance(obs.get_registry(), NullRegistry)
        assert not obs.get_registry().enabled

    def test_enable_is_idempotent(self):
        first = obs.enable()
        second = obs.enable()
        assert first is second
        assert obs.enabled()

    def test_disable_restores_the_shared_null(self):
        obs.enable()
        obs.disable()
        assert obs.get_registry() is obs.get_registry()
        assert not obs.enabled()

    def test_null_registry_hands_out_one_shared_noop(self):
        registry = NullRegistry()
        assert registry.counter("a") is _NULL_METRIC
        assert registry.histogram("b") is _NULL_METRIC
        assert registry.gauge("c") is _NULL_METRIC
        _NULL_METRIC.inc()
        _NULL_METRIC.observe(1.0)
        _NULL_METRIC.set(2.0)
        assert _NULL_METRIC.value == 0.0
        assert registry.snapshot() == {
            "counters": [], "gauges": [], "histograms": [],
        }


class TestDisabledHotPathCost:
    def test_guard_idiom_is_allocation_free(self):
        """The documented hot-loop guard must not allocate when disabled."""
        obs.disable()

        def loop(n: int) -> None:
            for _ in range(n):
                registry = obs.get_registry()
                if registry.enabled:  # pragma: no cover - disabled here
                    registry.counter("never").inc()

        loop(1000)  # warm-up: interns, code objects, local bindings
        gc.collect()
        before = sys.getallocatedblocks()
        loop(10_000)
        after = sys.getallocatedblocks()
        # allow a couple of blocks of interpreter noise, but nothing per-call
        assert after - before <= 4
