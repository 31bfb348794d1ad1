"""Process-local metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the substrate the rest of the system reports into — the
sampler's per-sweep phase timings, the serving layer's rank latencies, the
WAL's fsync costs, the router's breaker transitions. Three design rules keep
it honest at this codebase's scale:

1. **Off by default, and free when off.** The module-level registry starts as
   a :class:`NullRegistry` whose methods are no-ops on pre-allocated
   singletons. Hot paths guard with ``if registry.enabled:`` so the disabled
   path is a global read plus an attribute check — no allocation, no lock.
   ``benchmarks/bench_obs_overhead.py`` pins the overhead both ways.

2. **Fixed buckets.** Histograms use a fixed boundary vector chosen at
   creation (default: log-spaced latency buckets from 1µs to 60s), the same
   layout Prometheus exposes. Percentiles (p50/p95/p99) are estimated by
   linear interpolation inside the owning bucket, with the recorded min/max
   pinning the open-ended ends.

3. **No new dependencies.** Plain ``threading.Lock`` + dicts; snapshots are
   JSON-able nested dicts.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "DEFAULT_BUCKETS",
    "get_registry",
    "set_registry",
    "enable",
    "disable",
    "enabled",
]


def _label_key(labels: Mapping[str, str] | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


# Log-spaced latency boundaries (seconds): 1µs .. 60s, roughly 1-2.5-5 per
# decade. Wide enough for a C-kernel sweep (~µs/doc) and a cold shard fit
# (~seconds) on the same axis.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    base * scale
    for scale in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)
    for base in (1.0, 2.5, 5.0)
) + (10.0, 30.0, 60.0)


class Counter:
    """Monotonically increasing count. ``inc`` is the only mutator."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Mapping[str, str] | None = None):
        self.name = name
        self.labels = dict(labels or {})
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {"name": self.name, "labels": self.labels, "value": self._value}


class Gauge:
    """A value that can go up and down — last write wins on merge."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Mapping[str, str] | None = None):
        self.name = name
        self.labels = dict(labels or {})
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {"name": self.name, "labels": self.labels, "value": self._value}


class Histogram:
    """Fixed-bucket histogram with percentile estimation.

    ``bounds`` are the *upper* edges of the finite buckets; observations
    above the last bound land in the implicit +Inf bucket. Counts are
    per-bucket (not cumulative) internally; the Prometheus exporter
    cumulates on the way out.
    """

    __slots__ = (
        "name", "labels", "bounds", "counts",
        "count", "sum", "min", "max", "_lock",
    )

    def __init__(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        bounds: Iterable[float] | None = None,
    ):
        self.name = name
        self.labels = dict(labels or {})
        self.bounds = tuple(sorted(bounds)) if bounds is not None else DEFAULT_BUCKETS
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts = [0] * (len(self.bounds) + 1)  # +1 for the +Inf bucket
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        # bisect by hand: bucket vectors are short (~20) and this avoids an
        # import in a __slots__ hot path; linear scan is branch-predictable.
        idx = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                idx = i
                break
        with self._lock:
            self.counts[idx] += 1
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0..1) from bucket counts."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target:
                lo = self.bounds[i - 1] if i > 0 else min(self.min, self.bounds[0])
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                lo = max(lo, self.min)
                hi = min(hi, self.max) if hi >= lo else lo
                if bucket_count == 0 or hi <= lo:
                    return hi
                fraction = (target - previous) / bucket_count
                return lo + (hi - lo) * min(max(fraction, 0.0), 1.0)
        return self.max

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "labels": self.labels,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }


class MetricsRegistry:
    """Thread-safe home for every metric in one process.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    with a (name, labels) pair makes the metric, later calls return the same
    object, so call sites need no caching discipline. ``merge`` folds a
    snapshot from another process in — counters and histogram buckets add,
    gauges take the incoming value.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, str, tuple], object] = {}

    def _get(self, kind: str, factory, name: str, labels, **kwargs):
        key = (kind, name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    metric = factory(name, labels, **kwargs)
                    self._metrics[key] = metric
        return metric

    def counter(self, name: str, labels: Mapping[str, str] | None = None) -> Counter:
        return self._get("counter", Counter, name, labels)

    def gauge(self, name: str, labels: Mapping[str, str] | None = None) -> Gauge:
        return self._get("gauge", Gauge, name, labels)

    def histogram(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        bounds: Iterable[float] | None = None,
    ) -> Histogram:
        return self._get("histogram", Histogram, name, labels, bounds=bounds)

    # ------------------------------------------------------------ snapshots

    def snapshot(self) -> dict:
        """JSON-able snapshot of every metric (the exporter's input)."""
        out: dict = {"counters": [], "gauges": [], "histograms": []}
        with self._lock:
            metrics = list(self._metrics.items())
        for (kind, _name, _labels), metric in sorted(
            metrics, key=lambda item: (item[0][0], item[0][1], item[0][2])
        ):
            out[kind + "s"].append(metric.snapshot())
        return out



class _NullMetric:
    """Shared do-nothing metric — one instance serves every disabled call."""

    __slots__ = ()
    name = ""
    labels: dict = {}
    value = 0.0
    count = 0
    sum = 0.0
    mean = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0

    def snapshot(self) -> dict:
        return {}


_NULL_METRIC = _NullMetric()


class NullRegistry:
    """Telemetry-off registry: every accessor returns the same no-op metric.

    Hot paths should still prefer ``if registry.enabled:`` over calling
    through — that guard is the documented zero-allocation fast path (see
    the allocation test in ``tests/test_obs_metrics.py``).
    """

    enabled = False

    def counter(self, name, labels=None):
        return _NULL_METRIC

    def gauge(self, name, labels=None):
        return _NULL_METRIC

    def histogram(self, name, labels=None, bounds=None):
        return _NULL_METRIC

    def snapshot(self) -> dict:
        return {"counters": [], "gauges": [], "histograms": []}


_NULL_REGISTRY = NullRegistry()
_REGISTRY: MetricsRegistry | NullRegistry = _NULL_REGISTRY


def get_registry() -> MetricsRegistry | NullRegistry:
    """The process-wide registry (a shared no-op until :func:`enable`)."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry | NullRegistry) -> None:
    global _REGISTRY
    _REGISTRY = registry


def enable() -> MetricsRegistry:
    """Install a live registry (idempotent) and return it."""
    global _REGISTRY
    if not isinstance(_REGISTRY, MetricsRegistry):
        _REGISTRY = MetricsRegistry()
    return _REGISTRY


def disable() -> None:
    """Restore the shared no-op registry (drops collected metrics)."""
    global _REGISTRY
    _REGISTRY = _NULL_REGISTRY


def enabled() -> bool:
    return _REGISTRY.enabled
