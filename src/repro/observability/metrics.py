"""Dependency-free metrics primitives: counters, gauges, histograms.

Design constraints, in order:

* **Privacy.**  Telemetry is the one data stream that routinely escapes
  the trusted anonymizer in production deployments, so label values are
  restricted to strings, ints and bools (never floats — a coordinate is
  a float pair) and every string value is screened against a
  coordinate-pair pattern at record time.  The static CSP008 lint rule
  enforces the same property at the call-site level.
* **Determinism.**  Snapshots are pure functions of the *multiset* of
  recorded observations: counters are integer-valued, histogram bucket
  counts are integers, and histogram sums are accumulated as exact
  rationals (:class:`fractions.Fraction`), so two interleavings of the
  same observations produce bit-identical snapshots and merging is
  associative and commutative.  Bucket boundaries are fixed at
  registration — never derived from the data.
* **Zero dependencies.**  Standard library only; the registry must be
  importable from the untrusted processor/server side without dragging
  anything tainted along (see the CSP001 module-graph rule).
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LabelPair",
    "Labels",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "DEFAULT_RATIO_BUCKETS",
    "TelemetryLeakError",
    "ensure_safe_label_value",
    "looks_like_coordinates",
]

LabelValue = Union[str, int, bool]
LabelPair = tuple[str, LabelValue]
Labels = tuple[LabelPair, ...]

#: Latency buckets in seconds — fixed, deterministic, roughly
#: quarter-decade spacing from 10 µs to 10 s.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 10.0,
)

#: Size buckets (candidate lists, batch sizes) — powers of two.
DEFAULT_SIZE_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
)

#: Ratio buckets (area / A_min, achieved_k / k).
DEFAULT_RATIO_BUCKETS: tuple[float, ...] = (
    0.5, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0,
)


class TelemetryLeakError(ValueError):
    """A telemetry value would carry location-shaped data."""


#: Two decimal numbers separated by a comma/semicolon (with optional
#: parentheses) — the textual shape of a coordinate pair — or an
#: explicit ``Point(...)`` rendering.
_COORD_PAIR_RE = re.compile(
    r"(?:\bpoint\s*\()"
    r"|(?:\(?\s*[-+]?\d+\.\d+\s*[,;]\s*[-+]?\d+\.\d+\s*\)?)",
    re.IGNORECASE,
)


def looks_like_coordinates(text: str) -> bool:
    """True when ``text`` parses as a coordinate pair or ``Point`` repr."""
    return _COORD_PAIR_RE.search(text) is not None


def ensure_safe_label_value(value: object, context: str = "label") -> LabelValue:
    """Validate one label value / span attribute against the telemetry
    trust-boundary rule; returns the value unchanged.

    Floats are rejected outright (exact coordinates are float pairs and
    a single coordinate is already half a location); strings are
    screened against the coordinate-pair pattern.
    """
    if isinstance(value, bool) or isinstance(value, int):
        return value
    if isinstance(value, float):
        raise TelemetryLeakError(
            f"{context} value {value!r} is a float; telemetry labels must "
            "be str/int/bool so raw coordinates cannot ride along"
        )
    if isinstance(value, str):
        if looks_like_coordinates(value):
            raise TelemetryLeakError(
                f"{context} value {value!r} looks like a coordinate pair "
                "and may not cross the telemetry boundary"
            )
        return value
    raise TelemetryLeakError(
        f"{context} value {value!r} has type {type(value).__name__}; only "
        "str/int/bool are allowed in telemetry"
    )


def _normalise_labels(labels: Iterable[LabelPair]) -> Labels:
    pairs = tuple(labels)
    for key, value in pairs:
        if not isinstance(key, str) or not key:
            raise ValueError(f"label key {key!r} must be a non-empty string")
        ensure_safe_label_value(value, context=f"label {key!r}")
    return tuple(sorted(pairs, key=lambda pair: pair[0]))


def _fraction_from_parts(parts: object) -> Fraction:
    if (
        not isinstance(parts, (list, tuple))
        or len(parts) != 2
        or not all(isinstance(p, int) and not isinstance(p, bool) for p in parts)
    ):
        raise ValueError(f"expected [numerator, denominator] ints, got {parts!r}")
    return Fraction(parts[0], parts[1])


class Counter:
    """A monotone integer counter."""

    kind = "counter"
    __slots__ = ("name", "labels", "help", "value")

    def __init__(self, name: str, labels: Labels = (), help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (a non-negative int) to the counter."""
        if isinstance(amount, bool) or not isinstance(amount, int):
            raise TypeError("counters are integer-valued")
        if amount < 0:
            raise ValueError("counters are monotone; amount must be >= 0")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def as_dict(self) -> dict[str, object]:
        return {"value": self.value}

    def restore(self, state: Mapping[str, object]) -> None:
        value = state["value"]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValueError(f"invalid counter value {value!r}")
        self.value = value


class Gauge:
    """A last-write-wins instantaneous value."""

    kind = "gauge"
    __slots__ = ("name", "labels", "help", "value")

    def __init__(self, name: str, labels: Labels = (), help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError("gauge values must be finite")
        self.value = value

    def merge(self, other: "Gauge") -> None:
        # Gauges have no order-free merge; keep the other's value (the
        # convention restore/merge tests rely on: merging a snapshot in
        # adopts its gauge readings).
        self.value = other.value

    def as_dict(self) -> dict[str, object]:
        return {"value": self.value.hex()}

    def restore(self, state: Mapping[str, object]) -> None:
        raw = state["value"]
        if not isinstance(raw, str):
            raise ValueError(f"invalid gauge value {raw!r}")
        self.value = float.fromhex(raw)


class Histogram:
    """A fixed-bucket histogram with an exact (order-independent) sum.

    ``boundaries`` are inclusive upper bounds; an implicit ``+inf``
    bucket catches everything above the last boundary.  The running sum
    is an exact rational, so recording the same multiset of observations
    in any order — or merging partial histograms in any grouping —
    yields bit-identical state.
    """

    kind = "histogram"
    __slots__ = (
        "name", "labels", "help", "boundaries", "bucket_counts",
        "count", "_exact_sum", "_pending", "minimum", "maximum",
    )

    def __init__(
        self,
        name: str,
        labels: Labels = (),
        boundaries: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        help: str = "",
    ) -> None:
        if not boundaries:
            raise ValueError("histogram needs at least one bucket boundary")
        ordered = tuple(float(b) for b in boundaries)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError("bucket boundaries must be strictly increasing")
        if not all(math.isfinite(b) for b in ordered):
            raise ValueError("bucket boundaries must be finite")
        self.name = name
        self.labels = labels
        self.help = help
        self.boundaries = ordered
        self.bucket_counts = [0] * (len(ordered) + 1)
        self.count = 0
        self._exact_sum = Fraction(0)
        self._pending: list[float] = []
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation (finite float)."""
        value = float(value)
        if not math.isfinite(value):
            raise ValueError("histogram observations must be finite")
        self.bucket_counts[bisect_left(self.boundaries, value)] += 1
        self.count += 1
        # The exact-rational sum is folded lazily (see _fold): the hot
        # path only appends the raw float, which keeps instrumented
        # benchmark numbers honest.
        self._pending.append(value)
        if len(self._pending) >= 4096:
            self._fold()
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def _fold(self) -> None:
        """Fold pending observations into the exact rational sum.

        Every float is a dyadic rational (``as_integer_ratio`` returns a
        power-of-two denominator), so the batch is summed with integer
        shifts and one final ``Fraction`` — exact, hence independent of
        both observation order and fold timing.
        """
        pending = self._pending
        if not pending:
            return
        acc_num, acc_exp = 0, 0  # running sum == acc_num / 2**acc_exp
        for value in pending:
            num, den = value.as_integer_ratio()
            exp = den.bit_length() - 1
            if exp > acc_exp:
                acc_num <<= exp - acc_exp
                acc_exp = exp
            acc_num += num << (acc_exp - exp)
        self._exact_sum += Fraction(acc_num, 1 << acc_exp)
        pending.clear()

    @property
    def sum(self) -> float:
        """The sum of observations (float view of the exact rational)."""
        self._fold()
        return float(self._exact_sum)

    @property
    def mean(self) -> float:
        self._fold()
        return float(self._exact_sum / self.count) if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` in; both must share bucket boundaries."""
        if other.boundaries != self.boundaries:
            raise ValueError("cannot merge histograms with different buckets")
        self._fold()
        other._fold()
        for i, n in enumerate(other.bucket_counts):
            self.bucket_counts[i] += n
        self.count += other.count
        self._exact_sum += other._exact_sum
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    def as_dict(self) -> dict[str, object]:
        self._fold()
        return {
            "boundaries": [b.hex() for b in self.boundaries],
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": [self._exact_sum.numerator, self._exact_sum.denominator],
            "min": self.minimum.hex() if self.count else None,
            "max": self.maximum.hex() if self.count else None,
        }

    def restore(self, state: Mapping[str, object]) -> None:
        boundaries = state["boundaries"]
        if not isinstance(boundaries, list):
            raise ValueError("invalid histogram boundaries")
        restored = tuple(float.fromhex(b) for b in boundaries)
        if restored != self.boundaries:
            raise ValueError("snapshot bucket boundaries differ")
        counts = state["bucket_counts"]
        if (
            not isinstance(counts, list)
            or len(counts) != len(self.bucket_counts)
            or not all(isinstance(c, int) and c >= 0 for c in counts)
        ):
            raise ValueError("invalid histogram bucket counts")
        count = state["count"]
        if not isinstance(count, int) or count != sum(counts):
            raise ValueError("histogram count inconsistent with buckets")
        self.bucket_counts = list(counts)
        self.count = count
        self._exact_sum = _fraction_from_parts(state["sum"])
        self._pending.clear()
        raw_min, raw_max = state.get("min"), state.get("max")
        self.minimum = (
            float.fromhex(raw_min) if isinstance(raw_min, str) else math.inf
        )
        self.maximum = (
            float.fromhex(raw_max) if isinstance(raw_max, str) else -math.inf
        )


Metric = Union[Counter, Gauge, Histogram]

_METRIC_TYPES: dict[str, type] = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
}

_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricsRegistry:
    """All metric families of one observability session.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first
    call for a ``(name, labels)`` pair registers the instrument, later
    calls return the same object (kind and, for histograms, bucket
    boundaries must match).  Iteration and snapshots are deterministic:
    instruments are ordered by ``(name, labels)``.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, Labels], Metric] = {}
        #: The emit path's memo (``runtime.count`` / ``observe`` /
        #: ``set_gauge``): ``(name, label values)`` as the call site
        #: spells them -> the registered instrument.  Living on the
        #: registry means :meth:`clear` can never strand a handle
        #: pointing at an unregistered instrument.
        self.handles: dict[tuple[str, tuple[object, ...]], Metric] = {}

    # -- registration ----------------------------------------------------
    def _get_or_create(
        self, cls: type, name: str, labels: Iterable[LabelPair], **kwargs: object
    ) -> Metric:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        key = (name, _normalise_labels(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(
        self, name: str, labels: Iterable[LabelPair] = (), help: str = ""
    ) -> Counter:
        metric = self._get_or_create(Counter, name, labels, help=help)
        assert isinstance(metric, Counter)
        return metric

    def gauge(
        self, name: str, labels: Iterable[LabelPair] = (), help: str = ""
    ) -> Gauge:
        metric = self._get_or_create(Gauge, name, labels, help=help)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        labels: Iterable[LabelPair] = (),
        boundaries: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        help: str = "",
    ) -> Histogram:
        metric = self._get_or_create(
            Histogram, name, labels, boundaries=boundaries, help=help
        )
        assert isinstance(metric, Histogram)
        if metric.boundaries != boundaries and metric.boundaries != tuple(
            float(b) for b in boundaries
        ):
            raise ValueError(
                f"histogram {name!r} already registered with different buckets"
            )
        return metric

    # -- introspection ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        return iter(
            self._metrics[key] for key in sorted(self._metrics, key=_sort_key)
        )

    def get(self, name: str, labels: Iterable[LabelPair] = ()) -> Metric | None:
        return self._metrics.get((name, _normalise_labels(labels)))

    def clear(self) -> None:
        self._metrics.clear()
        self.handles.clear()

    # -- snapshot / restore / merge --------------------------------------
    def snapshot(self) -> dict[str, object]:
        """A deterministic JSON-safe view of every instrument."""
        out = []
        for key in sorted(self._metrics, key=_sort_key):
            metric = self._metrics[key]
            entry: dict[str, object] = {
                "name": metric.name,
                "kind": metric.kind,
                "labels": [[k, v] for k, v in metric.labels],
                "help": metric.help,
            }
            entry.update(metric.as_dict())
            out.append(entry)
        return {"version": 1, "metrics": out}

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, object]) -> "MetricsRegistry":
        """Rebuild a registry that snapshots back to ``snapshot`` exactly."""
        if snapshot.get("version") != 1:
            raise ValueError("unsupported metrics snapshot version")
        registry = cls()
        entries = snapshot.get("metrics")
        if not isinstance(entries, list):
            raise ValueError("snapshot has no metric list")
        for entry in entries:
            kind = entry.get("kind")
            metric_cls = _METRIC_TYPES.get(kind)  # type: ignore[arg-type]
            if metric_cls is None:
                raise ValueError(f"unknown metric kind {kind!r}")
            labels = tuple(
                (str(k), v) for k, v in entry.get("labels", [])
            )
            kwargs: dict[str, object] = {"help": str(entry.get("help", ""))}
            if metric_cls is Histogram:
                kwargs["boundaries"] = tuple(
                    float.fromhex(b) for b in entry["boundaries"]
                )
            metric = registry._get_or_create(
                metric_cls, str(entry["name"]), labels, **kwargs
            )
            metric.restore(entry)
        return registry

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's instruments in (sums add, gauges
        adopt the incoming reading)."""
        for key in sorted(other._metrics, key=_sort_key):
            theirs = other._metrics[key]
            kwargs: dict[str, object] = {"help": theirs.help}
            if isinstance(theirs, Histogram):
                kwargs["boundaries"] = theirs.boundaries
            mine = self._get_or_create(
                type(theirs), theirs.name, theirs.labels, **kwargs
            )
            mine.merge(theirs)  # type: ignore[arg-type]


def _sort_key(key: tuple[str, Labels]) -> tuple[str, str]:
    name, labels = key
    return name, repr(labels)
