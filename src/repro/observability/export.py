"""``TelemetryExport`` — the sanctioned way telemetry crosses the
anonymizer boundary.

The paper's trust model (Figure 1) allows exactly one location-shaped
value to leave the anonymizer: the ``(k, A_min)``-cloaked region.  A
metrics pipeline is a second egress path, so it gets the same
treatment: the only object that may carry anonymizer-side telemetry to
an untrusted sink is a :class:`TelemetryExport`, whose constructor
re-screens **every** free-text field — metric label values and help
strings, span names and attributes — against the coordinate-pair
pattern and rejects the export outright on a hit
(:class:`~repro.observability.metrics.TelemetryLeakError`).  The name
is on the CSP001 ``safe_imports`` allowlist next to ``CloakedRegion``;
shipping a raw ``MetricsRegistry`` across the boundary is a lint
violation.

Two wire formats: a JSON document (machine consumption, exact — the
metrics portion round-trips through
:meth:`~repro.observability.metrics.MetricsRegistry.from_snapshot`)
and Prometheus text exposition format (scraping; floats rendered with
``repr`` precision).  Both carry ``slos``: the catalogue's objectives
evaluated on the exported histograms.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Mapping

from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TelemetryLeakError,
    ensure_safe_label_value,
)
from repro.observability.runtime import CATALOGUE, Observability

__all__ = ["TelemetryExport", "OBJECTIVE_MIN_SAMPLES"]

#: A labelled histogram's mean is judged against its catalogue
#: objective only from this many samples up.
OBJECTIVE_MIN_SAMPLES = 16


def _screen_metrics_snapshot(snapshot: Mapping[str, object]) -> list[Any]:
    """The snapshot's metric entries, every free-text field screened."""
    entries = snapshot.get("metrics", [])
    if not isinstance(entries, list):
        raise TelemetryLeakError("malformed metrics snapshot")
    for entry in entries:
        name = entry.get("name", "<unnamed>")
        ensure_safe_label_value(entry.get("help", ""), context=f"metric {name!r} help")
        for key, value in entry.get("labels", []):
            ensure_safe_label_value(
                value, context=f"metric {name!r} label {key!r}"
            )
    return entries


def _screen_span_dict(span: Mapping[str, object]) -> None:
    name = ensure_safe_label_value(span.get("name", "<unnamed>"), "span name")
    attributes = span.get("attributes", {})
    if isinstance(attributes, dict):
        for key, value in attributes.items():
            ensure_safe_label_value(
                value, context=f"span {name!r} attribute {key!r}"
            )
    children = span.get("children", [])
    if isinstance(children, list):
        for child in children:
            _screen_span_dict(child)


def _objectives(entries: list[Any]) -> dict[str, object]:
    """The catalogue's objectives judged on a snapshot's entries: one
    status per labelled histogram of a row that has one, and the
    statuses whose mean — over the session, from
    :data:`OBJECTIVE_MIN_SAMPLES` samples up — is out of bounds."""
    objectives, breaches = [], []
    for entry in entries:
        row = CATALOGUE.get(entry.get("name"))
        if row is None or row.objective is None or entry.get("kind") != row.kind:
            continue
        (kind, bound), samples = row.objective, entry["count"]
        mean = float(Fraction(*entry["sum"]) / samples) if samples else 0.0
        status = {
            "metric": entry["name"], "labels": entry["labels"],
            "kind": kind, "bound": bound, "samples": samples, "mean": mean,
        }
        objectives.append(status)
        if samples >= OBJECTIVE_MIN_SAMPLES and (
            mean > bound if kind == "upper" else mean < bound
        ):
            breaches.append(status)
    return {"objectives": objectives, "breaches": breaches}


class TelemetryExport:
    """An immutable, screened snapshot of one observability session."""

    __slots__ = ("metrics", "spans", "slos")

    def __init__(
        self,
        metrics: Mapping[str, object],
        spans: tuple[Mapping[str, object], ...] = (),
    ) -> None:
        self.slos = _objectives(_screen_metrics_snapshot(metrics))
        for span in spans:
            _screen_span_dict(span)
        self.metrics = metrics
        self.spans = spans

    @classmethod
    def from_observability(cls, session: Observability) -> "TelemetryExport":
        """Snapshot a live session; raises ``TelemetryLeakError`` if any
        label value, help string, span name or span attribute is
        location-shaped."""
        return cls(session.metrics.snapshot(), tuple(session.tracer.snapshot()))

    def restore_metrics(self) -> MetricsRegistry:
        """Rebuild the metrics registry this export was taken from."""
        return MetricsRegistry.from_snapshot(self.metrics)

    # -- wire formats ----------------------------------------------------
    def as_dict(self) -> dict[str, object]:
        return {
            "metrics": self.metrics,
            "spans": list(self.spans),
            "slos": self.slos,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        registry = self.restore_metrics()
        lines: list[str] = []
        seen_headers: set[str] = set()
        for metric in registry:
            prom_name = metric.name
            if prom_name not in seen_headers:
                seen_headers.add(prom_name)
                if metric.help:
                    lines.append(f"# HELP {prom_name} {metric.help}")
                lines.append(f"# TYPE {prom_name} {metric.kind}")
            if isinstance(metric, Counter):
                lines.append(
                    f"{prom_name}{_labels(metric.labels)} {metric.value}"
                )
            elif isinstance(metric, Gauge):
                lines.append(
                    f"{prom_name}{_labels(metric.labels)} {_num(metric.value)}"
                )
            elif isinstance(metric, Histogram):
                cumulative = 0
                for boundary, count in zip(
                    metric.boundaries, metric.bucket_counts
                ):
                    cumulative += count
                    lines.append(
                        f"{prom_name}_bucket"
                        f"{_labels(metric.labels, le=_num(boundary))} "
                        f"{cumulative}"
                    )
                cumulative += metric.bucket_counts[-1]
                lines.append(
                    f"{prom_name}_bucket"
                    f"{_labels(metric.labels, le='+Inf')} {cumulative}"
                )
                lines.append(
                    f"{prom_name}_sum{_labels(metric.labels)} "
                    f"{_num(metric.sum)}"
                )
                lines.append(
                    f"{prom_name}_count{_labels(metric.labels)} {metric.count}"
                )
        return "\n".join(lines) + "\n" if lines else ""


def _num(value: float) -> str:
    """Prometheus float rendering (no exponent surprises for ints)."""
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels(pairs: tuple[tuple[str, object], ...], le: str | None = None) -> str:
    rendered = [f'{key}="{_escape(str(value))}"' for key, value in pairs]
    if le is not None:
        rendered.append(f'le="{le}"')
    if not rendered:
        return ""
    return "{" + ",".join(rendered) + "}"
