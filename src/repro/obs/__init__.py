"""Observability: metrics registry, phase tracing, and export surfaces.

The accounting substrate for the whole engine:

* :mod:`repro.obs.metrics` — thread-safe counters, gauges, and
  fixed-bucket histograms in a :class:`MetricsRegistry`; a process-wide
  default registry with a zero-overhead disabled mode
  (``set_registry(MetricsRegistry(enabled=False))``);
* :mod:`repro.obs.trace` — :class:`Span` / :func:`trace_phase`
  structured tracing for nested recovery/maintenance phases;
* :mod:`repro.obs.boundary` — the persistence-boundary event stream
  (flush / drain / wal_fsync / checkpoint_fsync): one emission point
  feeding both the metrics registry and the fault-injection hook;
* :mod:`repro.obs.export` — Prometheus-text and JSON serializers.

Experiment E2 (``python -m benchmarks --only E2``) prints each mode's
recovery span tree, and ``python -m repro.fault.sweep`` each cell's
recovery mean and max.
"""

from repro.obs.export import to_json, to_prometheus
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    generation,
    get_registry,
    set_registry,
)
from repro.obs.trace import Span, current_span, trace_phase

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "current_span",
    "generation",
    "get_registry",
    "set_registry",
    "to_json",
    "to_prometheus",
    "trace_phase",
]
