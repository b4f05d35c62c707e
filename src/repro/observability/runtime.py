"""The process-wide observability switch, the metric catalogue and the
emit path.

Telemetry is **off by default**: :func:`active` returns ``None`` and
every instrumented site reduces to one call plus one module-global
``None`` test — the near-zero-cost contract that keeps
``tools/bench.py`` numbers honest.  Tests install a session with the
:func:`enabled` context manager only, so the global can never leak
(the conftest pollution guard fails any test that leaves it set).

:data:`CATALOGUE` states every fact about every metric once, and the
null-safe :func:`count` / :func:`observe` / :func:`set_gauge` are the
only way a site reaches an instrument: a name that is not a catalogue
key raises, so a typo cannot register a metric of its own.  Label
values are str (or an int id, rendered in decimal), never a coordinate:
CSP008 screens these very calls, ``TelemetryExport`` re-checks.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import ContextManager, Iterator, NamedTuple, TypeVar, Union

from repro.observability.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_RATIO_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ensure_safe_label_value,
)
from repro.observability.tracing import Tracer
from repro.utils.timer import monotonic

__all__ = [
    "Observability", "enable", "disable", "active", "enabled",
    "Row", "CATALOGUE", "count", "observe", "set_gauge",
    "record_cloak", "phase_scope", "query_scope",
]


class Observability:
    """One observability session: metrics + traces."""

    __slots__ = ("metrics", "tracer")

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()

    @property
    def is_empty(self) -> bool:
        """True while nothing has been recorded."""
        return (
            len(self.metrics) == 0
            and not self.tracer.finished
            and self.tracer.open_depth == 0
        )

    def clear(self) -> None:
        self.metrics.clear()
        self.tracer.clear()


_active: Observability | None = None


def active() -> Observability | None:
    """The installed session, or ``None`` (the no-op default)."""
    return _active


def enable(session: Observability | None = None) -> Observability:
    """Install (or replace) the process-wide observability session."""
    global _active
    _active = session if session is not None else Observability()
    return _active


def disable() -> Observability | None:
    """Remove the session; returns it for final inspection/export."""
    global _active
    session, _active = _active, None
    return session


@contextmanager
def enabled(session: Observability | None = None) -> Iterator[Observability]:
    """Scoped enable/disable — the only pattern tests should use."""
    global _active
    previous = _active
    session = enable(session)
    try:
        yield session
    finally:
        _active = previous


class Row(NamedTuple):
    """Everything there is to know about one metric."""

    kind: str  # "counter" | "gauge" | "histogram"
    labels: tuple[str, ...]  # keys, in the entry points' argument order
    help: str
    buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS  # histograms only
    #: ``("upper" | "lower", bound)`` on each labelled histogram's mean.
    objective: tuple[str, float] | None = None


#: The one table docs/observability.md prints.  Label vocabularies are
#: fixed and categorical: a shard or worker is named by its id, a
#: fault's channel by its *class* (``update`` / ``response`` /
#: ``anonymizer``), never by a user, a request, a cell or a coordinate.
CATALOGUE: dict[str, Row] = {
    # Algorithm 1 and its cache; the two ratio objectives are the paper's
    # privacy contract itself: k' >= k and A' >= A_min.
    "casper_cloak_requests_total": Row(
        "counter", ("anonymizer",), "cloaking requests served"
    ),
    "casper_cloak_seconds": Row(
        "histogram", ("anonymizer",), "anonymizer cloaking latency",
        objective=("upper", 0.05),
    ),
    "casper_cloak_k_ratio": Row(
        "histogram", ("anonymizer",),
        "achieved k over requested k (>= 1 when the contract holds)",
        DEFAULT_RATIO_BUCKETS, ("lower", 1.0),
    ),
    "casper_cloak_area_ratio": Row(
        "histogram", ("anonymizer",),
        "cloaked area over A_min (>= 1 when the contract holds)",
        DEFAULT_RATIO_BUCKETS, ("lower", 1.0),
    ),
    "casper_cloak_cache_events_total": Row(
        "counter", ("event",), "cloak-cache lookups by outcome"
    ),
    # Algorithm 2, the batch engine, the facade and the server.
    "casper_candidate_list_size": Row(
        "histogram", (), "candidate-list fan-out shipped to clients",
        DEFAULT_SIZE_BUCKETS, ("upper", 512.0),
    ),
    "casper_processor_phase_seconds": Row(
        "histogram", ("phase", "data"), "query-processor phase latency"
    ),
    "casper_batch_runs_total": Row("counter", (), "batch-engine executions"),
    "casper_batch_requests_total": Row(
        "counter", ("outcome",), "batch requests by dedup outcome"
    ),
    "casper_batch_size": Row(
        "histogram", (), "requests per batch run", DEFAULT_SIZE_BUCKETS
    ),
    "casper_batch_seconds": Row("histogram", (), "batch-engine run latency"),
    "casper_queries_total": Row("counter", ("query_type",), "facade queries served"),
    "casper_query_seconds": Row("histogram", ("query_type",), "facade query latency"),
    "casper_server_requests_total": Row(
        "counter", ("operation",), "location-server operations by kind"
    ),
    # The resilience runtime.
    "casper_faults_injected_total": Row(
        "counter", ("kind", "channel"),
        "faults injected by the resilience layer, by kind and channel class",
    ),
    "casper_retries_total": Row(
        "counter", ("operation",), "message retransmissions by operation"
    ),
    "casper_fallback_cloaks_total": Row(
        "counter", ("mode",), "cloaks served from a degradation-ladder rung, by rung"
    ),
    "casper_recoveries_total": Row(
        "counter", ("kind",), "recovery actions after crash or state loss, by kind"
    ),
    # The sharded fleet and its workers.  route: local (settled below the
    # block level) / boundary (on block roots) / spine (escalated above).
    "casper_shard_cloaks_total": Row(
        "counter", ("shard", "route"),
        "cloaks served per shard, by spine-routing outcome",
    ),
    "casper_shard_ops_total": Row(
        "counter", ("shard", "op"), "maintenance operations routed per shard, by kind"
    ),
    "casper_shard_users": Row("gauge", ("shard",), "registered users homed per shard"),
    "casper_worker_roundtrip_seconds": Row(
        "histogram", ("shard",), "parent-to-worker frame round-trip latency"
    ),
    "casper_worker_batch_envelopes": Row(
        "histogram", ("shard",),
        "envelopes per frame flushed to a shard worker", DEFAULT_SIZE_BUCKETS,
    ),
    "casper_worker_events_total": Row(
        "counter", ("shard", "event"),
        "shard-worker lifecycle and transport events, by kind",
    ),
    # The continuous monitor; suppressed over evaluation events is the
    # re-query rate the ``continuous_mobility`` bench gates on.
    "casper_monitor_flushes_total": Row("counter", (), "continuous-monitor flushes"),
    "casper_monitor_reevaluations_total": Row(
        "counter", (), "continuous queries re-evaluated"
    ),
    "casper_monitor_answer_changes_total": Row(
        "counter", (), "continuous queries whose answer changed"
    ),
    "casper_monitor_flush_seconds": Row("histogram", (), "flush latency"),
    "casper_monitor_safe_region_events_total": Row(
        "counter", ("event",),
        "safe-region moving-kNN outcomes at flush boundaries, by class",
    ),
    "casper_monitor_validity_lifetime_ticks": Row(
        "histogram", (), "ticks a safe-region candidate list stayed valid",
        (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
    ),
}


LabelArg = Union[str, int]
_M = TypeVar("_M", Counter, Gauge, Histogram)


def _instrument(
    metrics: MetricsRegistry, cls: type[_M], name: str, values: tuple[LabelArg, ...]
) -> _M:
    """The instrument ``name`` at ``values``: one probe of the
    registry's memo, registration from the catalogue row on a miss."""
    metric = metrics.handles.get((name, values))
    if metric is None:
        row = CATALOGUE.get(name)
        if row is None:
            raise KeyError(f"{name!r} is not a catalogue metric")
        if len(values) != len(row.labels) or None in values:
            raise ValueError(  # the values stay out of the message
                f"{name} takes labels {row.labels}, none of them None"
            )
        labels = [
            (label, str(ensure_safe_label_value(value, f"{name} label {label!r}")))
            for label, value in zip(row.labels, values)
        ]
        buckets = (row.buckets,) if row.kind == "histogram" else ()
        metric = getattr(metrics, row.kind)(name, labels, *buckets, help=row.help)
        metrics.handles[name, values] = metric
    if not isinstance(metric, cls):
        raise TypeError(f"{name} is a {metric.kind}, not a {cls.kind}")
    return metric


def count(name: str, *label_values: LabelArg, n: int = 1) -> None:
    """Add ``n`` to a catalogue counter — a no-op while disabled."""
    if (obs := _active) is not None:
        _instrument(obs.metrics, Counter, name, label_values).inc(n)


def observe(name: str, value: float, *label_values: LabelArg) -> None:
    """Record ``value`` in a catalogue histogram — a no-op while disabled."""
    if (obs := _active) is not None:
        _instrument(obs.metrics, Histogram, name, label_values).observe(value)


def set_gauge(name: str, value: float, *label_values: LabelArg) -> None:
    """Set a catalogue gauge — a no-op while disabled."""
    if (obs := _active) is not None:
        _instrument(obs.metrics, Gauge, name, label_values).set(value)


def record_cloak(
    anonymizer: str, seconds: float, area: float, a_min: float,
    achieved_k: int, requested_k: int,
) -> None:
    """One successful cloak: its latency and the two privacy-contract
    ratios (the area ratio only when the profile asks for an area)."""
    count("casper_cloak_requests_total", anonymizer)
    observe("casper_cloak_seconds", seconds, anonymizer)
    k_ratio = achieved_k / requested_k if requested_k > 0 else 1.0
    observe("casper_cloak_k_ratio", k_ratio, anonymizer)
    if a_min > 0.0:
        observe("casper_cloak_area_ratio", area / a_min, anonymizer)


#: The disabled scopes: ``nullcontext`` is stateless, one serves all.
_NULL_SCOPE: ContextManager[None] = nullcontext()


@contextmanager
def _phase(obs: Observability, phase: str, data_kind: str) -> Iterator[None]:
    start = monotonic()
    with obs.tracer.span(f"processor.{phase}", data=data_kind):
        yield
    observe("casper_processor_phase_seconds", monotonic() - start, phase, data_kind)


def phase_scope(phase: str, data_kind: str) -> ContextManager[None]:
    """Time one Algorithm 2 phase (filter_selection / extension /
    candidates) as a ``processor.<phase>`` child span and a latency
    sample; a shared no-op context while disabled."""
    obs = _active
    return _NULL_SCOPE if obs is None else _phase(obs, phase, data_kind)


@contextmanager
def _query(obs: Observability, query_type: str) -> Iterator[None]:
    start = monotonic()
    with obs.tracer.span("casper.query", query_type=query_type):
        yield
    count("casper_queries_total", query_type)
    observe("casper_query_seconds", monotonic() - start, query_type)


def query_scope(query_type: str) -> ContextManager[None]:
    """One facade-level private query, end to end: a ``casper.query``
    root span (the phase spans nest under it) and, for a query that
    returns, its count and latency sample; a no-op while disabled."""
    obs = _active
    return _NULL_SCOPE if obs is None else _query(obs, query_type)
