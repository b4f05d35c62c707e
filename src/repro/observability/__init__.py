"""Privacy-safe observability for the Casper reproduction.

Dependency-free metrics (:mod:`~repro.observability.metrics`),
span tracing (:mod:`~repro.observability.tracing`), the process-wide
on/off switch, the metric catalogue (with its service-level objectives)
and the emit entry points (:mod:`~repro.observability.runtime`), and
the :class:`~repro.observability.export.TelemetryExport` boundary type
— the only sanctioned way telemetry leaves the trusted anonymizer.

This package deliberately imports nothing from the anonymizer,
workload or mobility layers: the entry points take plain
ints/floats/strs, so the untrusted processor/server side can import it
without widening the CSP001 taint frontier.
"""

from repro.observability.export import TelemetryExport
from repro.observability.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_RATIO_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TelemetryLeakError,
    ensure_safe_label_value,
    looks_like_coordinates,
)
from repro.observability.runtime import (
    Observability,
    active,
    disable,
    enable,
    enabled,
)
from repro.observability.tracing import Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TelemetryLeakError",
    "ensure_safe_label_value",
    "looks_like_coordinates",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "DEFAULT_RATIO_BUCKETS",
    "Span",
    "Tracer",
    "Observability",
    "enable",
    "disable",
    "active",
    "enabled",
    "TelemetryExport",
]
