"""The process-wide observability switch and the record helpers.

Telemetry is **off by default**: :func:`active` returns ``None`` and
every instrumented hot path reduces to one module-global load plus a
``None`` check — the near-zero-cost contract that keeps
``tools/bench.py`` numbers honest.  :func:`enable` installs an
:class:`Observability` bundle (metrics registry + tracer + SLO
monitor); :func:`disable` removes it.  Tests use the :func:`enabled`
context manager so the global can never leak across tests (the
conftest pollution guard fails any test that leaves it populated).

The record helpers centralise the metric catalogue: every label key and
value used anywhere in the instrumentation is defined here, with only
str/int/bool values — never a coordinate — which is what the CSP008
lint rule and the :class:`~repro.observability.export.TelemetryExport`
boundary check enforce.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import ContextManager, Iterator

from repro.observability.metrics import (
    DEFAULT_RATIO_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
)
from repro.observability.slo import SLOMonitor
from repro.observability.tracing import Tracer
from repro.utils.timer import monotonic

__all__ = [
    "Observability",
    "enable",
    "disable",
    "active",
    "is_enabled",
    "enabled",
    "record_cloak",
    "record_cache_event",
    "record_candidates",
    "note_candidates",
    "record_phase",
    "phase_scope",
    "record_batch",
    "record_query",
    "query_scope",
    "record_server_request",
    "note_server_request",
    "record_monitor_flush",
    "record_safe_region_event",
    "record_validity_lifetime",
    "record_fault",
    "note_fault",
    "record_retry",
    "note_retry",
    "record_fallback_cloak",
    "note_fallback_cloak",
    "record_recovery",
    "note_recovery",
    "record_shard_cloak",
    "record_shard_op",
    "record_shard_occupancy",
    "record_worker_roundtrip",
    "record_worker_batch",
    "record_worker_event",
]


class Observability:
    """One observability session: metrics + traces + SLO windows."""

    __slots__ = ("metrics", "tracer", "slo")

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        slo: SLOMonitor | None = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.slo = slo if slo is not None else SLOMonitor()

    @property
    def is_empty(self) -> bool:
        """True while nothing has been recorded (the state a test must
        leave the global session in, if it leaves one at all)."""
        return (
            len(self.metrics) == 0
            and not self.tracer.finished
            and self.tracer.open_depth == 0
            and len(self.slo) == 0
        )

    def clear(self) -> None:
        self.metrics.clear()
        self.tracer.clear()
        self.slo.clear()


_active: Observability | None = None


def active() -> Observability | None:
    """The installed session, or ``None`` (the no-op default)."""
    return _active


def is_enabled() -> bool:
    return _active is not None


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


# ----------------------------------------------------------------------
# Record helpers — the metric catalogue lives here (see
# docs/observability.md for the operator-facing view).
# ----------------------------------------------------------------------
def record_cloak(
    obs: Observability,
    anonymizer: str,
    seconds: float,
    area: float,
    a_min: float,
    achieved_k: int,
    requested_k: int,
) -> None:
    """One successful cloak: latency, privacy-contract ratios, SLOs.

    This runs once per cloak inside the benchmark-gated hot path, so
    the resolved instruments are memoized in the registry's
    ``handle_cache`` — the steady state is three ``observe`` calls, one
    counter increment and the SLO window appends.
    """
    m = obs.metrics
    handles = m.handle_cache.get(("cloak", anonymizer))
    if handles is None:
        labels = (("anonymizer", anonymizer),)
        handles = (
            m.counter(
                "casper_cloak_requests_total", labels,
                help="cloaking requests served",
            ),
            m.histogram(
                "casper_cloak_seconds", labels,
                help="anonymizer cloaking latency",
            ),
            m.histogram(
                "casper_cloak_k_ratio", labels,
                boundaries=DEFAULT_RATIO_BUCKETS,
                help="achieved k over requested k (>= 1 when the "
                     "contract holds)",
            ),
        )
        m.handle_cache[("cloak", anonymizer)] = handles
    requests, latency, k_hist = handles
    requests.inc()
    latency.observe(seconds)
    k_ratio = achieved_k / requested_k if requested_k > 0 else 1.0
    k_hist.observe(k_ratio)
    slo_record = obs.slo.record
    slo_record("cloak_latency_seconds", seconds)
    slo_record("k_satisfaction", k_ratio)
    if a_min > 0.0:
        area_ratio = area / a_min
        area_hist = m.handle_cache.get(("cloak_area", anonymizer))
        if area_hist is None:
            area_hist = m.histogram(
                "casper_cloak_area_ratio", (("anonymizer", anonymizer),),
                boundaries=DEFAULT_RATIO_BUCKETS,
                help="cloaked area over A_min (>= 1 when the contract "
                     "holds)",
            )
            m.handle_cache[("cloak_area", anonymizer)] = area_hist
        area_hist.observe(area_ratio)
        slo_record("cloak_area_ratio", area_ratio)


def record_cache_event(
    obs: Observability, event: str, shard: str | None = None
) -> None:
    """Cloak-cache traffic: event in hit/miss/invalidation/eviction.

    Sharded runtimes pass their cache's shard label (a shard id or
    ``"spine"``) so per-shard hit rates stay distinguishable; the
    single-pyramid anonymizers keep the unlabelled stream.  Either way
    the label set is bounded — event kind times fleet size.
    """
    m = obs.metrics
    key = ("cache_event", event, shard)
    handle = m.handle_cache.get(key)
    if handle is None:
        labels = (("event", event),)
        if shard is not None:
            labels += (("shard", shard),)
        handle = m.counter(
            "casper_cloak_cache_events_total", labels,
            help="cloak-cache lookups by outcome",
        )
        m.handle_cache[key] = handle
    handle.inc()


def record_candidates(obs: Observability, size: int) -> None:
    """One candidate list produced by the query processor."""
    obs.metrics.histogram(
        "casper_candidate_list_size", (),
        boundaries=DEFAULT_SIZE_BUCKETS,
        help="candidate-list fan-out shipped to clients",
    ).observe(float(size))
    obs.slo.record("candidate_list_size", float(size))


def note_candidates(size: int) -> None:
    """Null-safe :func:`record_candidates` — a no-op while disabled."""
    obs = _active
    if obs is not None:
        record_candidates(obs, size)


#: Shared do-nothing context for disabled-telemetry phase scopes
#: (``nullcontext`` is stateless, so one instance serves every site).
_NULL_SCOPE: ContextManager[None] = nullcontext()


def phase_scope(phase: str, data_kind: str) -> ContextManager[None]:
    """Null-safe :func:`record_phase` — a shared no-op context while
    disabled, so instrumented processor phases read as one ``with``."""
    obs = _active
    if obs is None:
        return _NULL_SCOPE
    return record_phase(obs, phase, data_kind)


@contextmanager
def record_phase(
    obs: Observability, phase: str, data_kind: str
) -> Iterator[None]:
    """Time one Algorithm 2 phase (filter / extension / candidates) as
    both a child span and a phase-latency histogram."""
    start = monotonic()
    with obs.tracer.span(f"processor.{phase}", data=data_kind):
        yield
    obs.metrics.histogram(
        "casper_processor_phase_seconds",
        (("phase", phase), ("data", data_kind)),
        help="query-processor phase latency",
    ).observe(monotonic() - start)


def record_batch(
    obs: Observability, size: int, computed: int, seconds: float
) -> None:
    """One BatchQueryEngine.run: sizes, dedup savings, latency."""
    m = obs.metrics
    m.counter(
        "casper_batch_runs_total", (), help="batch-engine executions"
    ).inc()
    m.counter(
        "casper_batch_requests_total", (("outcome", "computed"),),
        help="batch requests by dedup outcome",
    ).inc(computed)
    m.counter(
        "casper_batch_requests_total", (("outcome", "deduplicated"),),
        help="batch requests by dedup outcome",
    ).inc(size - computed)
    m.histogram(
        "casper_batch_size", (),
        boundaries=DEFAULT_SIZE_BUCKETS,
        help="requests per batch run",
    ).observe(float(size))
    m.histogram(
        "casper_batch_seconds", (), help="batch-engine run latency"
    ).observe(seconds)


def record_query(obs: Observability, query_type: str, seconds: float) -> None:
    """One facade-level private query, end to end."""
    labels = (("query_type", query_type),)
    m = obs.metrics
    m.counter(
        "casper_queries_total", labels, help="facade queries served"
    ).inc()
    m.histogram(
        "casper_query_seconds", labels, help="facade query latency"
    ).observe(seconds)


@contextmanager
def _query_recorder(obs: Observability, query_type: str) -> Iterator[None]:
    start = monotonic()
    with obs.tracer.span("casper.query", query_type=query_type):
        yield
    record_query(obs, query_type, monotonic() - start)


def query_scope(query_type: str) -> ContextManager[None]:
    """Null-safe facade-query scope: a ``casper.query`` root span (under
    which processor phase spans nest as children) plus the end-to-end
    latency histogram.  A shared no-op context while disabled."""
    obs = _active
    if obs is None:
        return _NULL_SCOPE
    return _query_recorder(obs, query_type)


def record_server_request(obs: Observability, operation: str) -> None:
    """One privacy-aware server operation (by method name)."""
    obs.metrics.counter(
        "casper_server_requests_total", (("operation", operation),),
        help="location-server operations by kind",
    ).inc()


def note_server_request(operation: str) -> None:
    """Null-safe :func:`record_server_request` — a no-op while disabled."""
    obs = _active
    if obs is not None:
        record_server_request(obs, operation)


def record_fault(obs: Observability, kind: str, channel: str) -> None:
    """One injected fault.  ``channel`` is the channel *class*
    (``update`` / ``response`` / ``anonymizer``), never a per-user or
    per-request id — label cardinality stays bounded."""
    obs.metrics.counter(
        "casper_faults_injected_total",
        (("kind", kind), ("channel", channel)),
        help="faults injected by the resilience layer, by kind and channel class",
    ).inc()


def note_fault(kind: str, channel: str) -> None:
    """Null-safe :func:`record_fault` — a no-op while disabled."""
    obs = _active
    if obs is not None:
        record_fault(obs, kind, channel)


def record_retry(obs: Observability, operation: str) -> None:
    """One retransmission attempt (``operation``: ``update`` / ``response``)."""
    obs.metrics.counter(
        "casper_retries_total", (("operation", operation),),
        help="message retransmissions by operation",
    ).inc()


def note_retry(operation: str) -> None:
    """Null-safe :func:`record_retry` — a no-op while disabled."""
    obs = _active
    if obs is not None:
        record_retry(obs, operation)


def record_fallback_cloak(obs: Observability, mode: str) -> None:
    """One degraded-mode cloak served (``mode``: ``stale`` /
    ``escalated`` / ``cold_start``)."""
    obs.metrics.counter(
        "casper_fallback_cloaks_total", (("mode", mode),),
        help="cloaks served from a degradation-ladder rung, by rung",
    ).inc()


def note_fallback_cloak(mode: str) -> None:
    """Null-safe :func:`record_fallback_cloak` — a no-op while disabled."""
    obs = _active
    if obs is not None:
        record_fallback_cloak(obs, mode)


def record_recovery(obs: Observability, kind: str) -> None:
    """One successful recovery action (``kind``: ``restore`` /
    ``reregister``)."""
    obs.metrics.counter(
        "casper_recoveries_total", (("kind", kind),),
        help="recovery actions after crash or state loss, by kind",
    ).inc()


def note_recovery(kind: str) -> None:
    """Null-safe :func:`record_recovery` — a no-op while disabled."""
    obs = _active
    if obs is not None:
        record_recovery(obs, kind)


def record_shard_cloak(obs: Observability, shard: int, route: str) -> None:
    """One cloak served by a shard, by routing outcome.  ``route`` is
    ``local`` (settled strictly below the block level), ``boundary``
    (settled on block roots — sibling reads may have crossed shards
    through the spine) or ``spine`` (escalated above the block level).
    Labels carry the shard *id* only — never a cell or coordinate."""
    m = obs.metrics
    key = ("shard_cloak", shard, route)
    handle = m.handle_cache.get(key)
    if handle is None:
        handle = m.counter(
            "casper_shard_cloaks_total",
            (("shard", str(shard)), ("route", route)),
            help="cloaks served per shard, by spine-routing outcome",
        )
        m.handle_cache[key] = handle
    handle.inc()


def record_shard_op(
    obs: Observability, shard: int, op: str, times: int = 1
) -> None:
    """``times`` maintenance operations of one kind routed to a shard
    (``op``: ``register`` / ``deregister`` / ``update`` / ``rehome`` /
    ``restore``)."""
    m = obs.metrics
    key = ("shard_op", shard, op)
    handle = m.handle_cache.get(key)
    if handle is None:
        handle = m.counter(
            "casper_shard_ops_total",
            (("shard", str(shard)), ("op", op)),
            help="maintenance operations routed per shard, by kind",
        )
        m.handle_cache[key] = handle
    handle.inc(times)


def record_shard_occupancy(obs: Observability, occupancy: list[int]) -> None:
    """Instantaneous per-shard population (user counts only — the shard
    id is the sole label, bounded by the fleet size)."""
    for shard, users in enumerate(occupancy):
        obs.metrics.gauge(
            "casper_shard_users", (("shard", str(shard)),),
            help="registered users homed per shard",
        ).set(float(users))


def record_worker_roundtrip(
    obs: Observability, shard: int, seconds: float
) -> None:
    """One parent<->worker frame exchange: wire round-trip latency,
    labelled by shard id only (never an envelope's contents)."""
    m = obs.metrics
    key = ("worker_roundtrip", shard)
    handle = m.handle_cache.get(key)
    if handle is None:
        handle = m.histogram(
            "casper_worker_roundtrip_seconds", (("shard", str(shard)),),
            help="parent-to-worker frame round-trip latency",
        )
        m.handle_cache[key] = handle
    handle.observe(seconds)


def record_worker_batch(obs: Observability, shard: int, envelopes: int) -> None:
    """Queue depth drained into one frame: how many envelopes a worker's
    pending queue held when it was flushed across the IPC boundary."""
    m = obs.metrics
    key = ("worker_batch", shard)
    handle = m.handle_cache.get(key)
    if handle is None:
        handle = m.histogram(
            "casper_worker_batch_envelopes", (("shard", str(shard)),),
            boundaries=DEFAULT_SIZE_BUCKETS,
            help="envelopes per frame flushed to a shard worker",
        )
        m.handle_cache[key] = handle
    handle.observe(float(envelopes))


def record_worker_event(obs: Observability, shard: int, event: str) -> None:
    """One worker-pool lifecycle or transport event (``spawn`` /
    ``shutdown`` / ``crash`` / ``heal`` / ``retransmit`` / ``nack`` /
    ``timeout``), labelled by shard id only."""
    m = obs.metrics
    key = ("worker_event", shard, event)
    handle = m.handle_cache.get(key)
    if handle is None:
        handle = m.counter(
            "casper_worker_events_total",
            (("shard", str(shard)), ("event", event)),
            help="shard-worker lifecycle and transport events, by kind",
        )
        m.handle_cache[key] = handle
    handle.inc()


def record_monitor_flush(
    obs: Observability, dirty: int, changed: int, seconds: float
) -> None:
    """One continuous-monitor flush cycle."""
    m = obs.metrics
    m.counter(
        "casper_monitor_flushes_total", (), help="continuous-monitor flushes"
    ).inc()
    m.counter(
        "casper_monitor_reevaluations_total", (),
        help="continuous queries re-evaluated",
    ).inc(dirty)
    m.counter(
        "casper_monitor_answer_changes_total", (),
        help="continuous queries whose answer changed",
    ).inc(changed)
    m.histogram(
        "casper_monitor_flush_seconds", (), help="flush latency"
    ).observe(seconds)


def record_safe_region_event(obs: Observability, event: str) -> None:
    """One safe-region bookkeeping event on the continuous monitor.

    ``event`` is the outcome *class* of a registered moving-kNN query
    at a flush boundary — ``evaluation`` (the server was re-queried),
    ``suppressed`` (the cloak moved but stayed inside its validity
    region, so the stale candidate list was provably still exact) or
    ``validity_exit`` (the cloak left the region and forced the
    re-query).  The suppressed/evaluation quotient is the re-query-rate
    the ``continuous_mobility`` bench gates on.
    """
    obs.metrics.counter(
        "casper_monitor_safe_region_events_total", (("event", event),),
        help="safe-region moving-kNN outcomes at flush boundaries, by class",
    ).inc()


def record_validity_lifetime(obs: Observability, ticks: int) -> None:
    """How many monitor ticks one validity region survived before its
    query had to be re-evaluated (recorded at re-evaluation time)."""
    obs.metrics.histogram(
        "casper_monitor_validity_lifetime_ticks", (),
        boundaries=(0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
        help="ticks a safe-region candidate list stayed valid",
    ).observe(float(ticks))
