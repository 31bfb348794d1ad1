"""Unified telemetry: metrics registry, trace spans, exporters.

One switch governs both halves — :func:`enable_telemetry` installs a live
:class:`~repro.obs.metrics.MetricsRegistry` and a live ring-buffer
:class:`~repro.obs.trace.SpanSink`; :func:`disable_telemetry` restores the
shared no-op implementations (the default state, with zero hot-path cost).

Instrumented call sites follow one idiom::

    from repro import obs

    registry = obs.get_registry()
    if registry.enabled:              # no-op path: one attribute check
        registry.histogram("repro_rank_seconds").observe(elapsed)

and spans nest lexically per thread, propagating to other threads (or
across a request) via tiny headers::

    with obs.span("parallel.sweep"):
        header = obs.current_header()   # -> handed to a helper thread
        ...
    # helper thread:
    with obs.remote_span("parallel.worker_sweep", header):
        ...
"""

from __future__ import annotations

from .accesslog import AccessLog, NullAccessLog, TailSampler
from .export import (
    histogram_summary,
    load_telemetry,
    parse_prometheus,
    render_prometheus,
    telemetry_payload,
    write_telemetry,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    disable,
    enable,
    enabled,
    get_registry,
    set_registry,
)
from .profile import SamplingProfiler
from .slo import DEFAULT_WINDOWS as SLO_DEFAULT_WINDOWS
from .slo import SloTracker, burn_rate
from .trace import (
    NullSpanSink,
    Span,
    SpanBuffer,
    SpanSink,
    capture_spans,
    current_header,
    disable_tracing,
    enable_tracing,
    get_sink,
    new_span_id,
    new_trace_id,
    record_span,
    remote_span,
    render_tree,
    set_sink,
    span,
    span_trees,
    tracing_enabled,
)

__all__ = [
    # metrics
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "NullRegistry",
    "DEFAULT_BUCKETS", "get_registry", "set_registry",
    "enable", "disable", "enabled",
    # tracing
    "Span", "SpanSink", "NullSpanSink", "SpanBuffer", "span", "remote_span",
    "record_span", "capture_spans", "current_header",
    "new_trace_id", "new_span_id", "get_sink", "set_sink",
    "enable_tracing", "disable_tracing", "tracing_enabled",
    "span_trees", "render_tree",
    # access log + tail sampling
    "AccessLog", "NullAccessLog", "TailSampler",
    # SLO burn rates
    "SloTracker", "burn_rate", "SLO_DEFAULT_WINDOWS",
    # profiler
    "SamplingProfiler",
    # export
    "render_prometheus", "parse_prometheus", "histogram_summary",
    "telemetry_payload", "write_telemetry", "load_telemetry",
    # combined switch
    "enable_telemetry", "disable_telemetry", "telemetry_enabled",
]


def enable_telemetry(span_capacity: int = SpanSink.DEFAULT_CAPACITY):
    """Turn on metrics *and* tracing; returns ``(registry, sink)``."""
    return enable(), enable_tracing(span_capacity)


def disable_telemetry() -> None:
    """Restore the no-op registry and sink (drops collected telemetry)."""
    disable()
    disable_tracing()


def telemetry_enabled() -> bool:
    return enabled() or tracing_enabled()

