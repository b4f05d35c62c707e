"""What every workload shares: the result record, latency summaries,
the brute-force oracles, memory sampling and the per-layer metric table.
"""

from __future__ import annotations

import gc
import hashlib
import math
import multiprocessing
import os
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.anonymizer import CloakedRegion, PrivacyProfile
from repro.geometry import Point

from benchmarks.service.tracing import ROOT_SPAN, Tracer

__all__ = [
    "ORACLE_EVERY",
    "PER_LAYER",
    "Failures",
    "MachineSpeed",
    "Measurement",
    "Samples",
    "TargetOracle",
    "both_views",
    "cache_counts",
    "check_cloak",
    "digest_arrays",
    "latency_detail",
    "layer_table",
    "median_rate",
    "nearest_other",
    "peak_rss_mb",
    "percentile",
    "rate",
    "traced_measurement",
    "window_percentile",
    "window_rate",
    "worker_telemetry",
]

#: Every ``ORACLE_EVERY``-th query and cloak is checked against brute
#: force (2 % of operations; the issue asks for at least 1 %).
ORACLE_EVERY = 50

#: Every per-layer metric, with its unit and better direction.  Each
#: traced run reports all of them; a layer a workload never enters
#: reports 0 — which is the "should not move" prediction in README.md.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("anonymizer.update_s", "s", "lower"),
    ("anonymizer.update_count", "count", "lower"),
    ("anonymizer.adaptive_update_s", "s", "lower"),
    ("anonymizer.adaptive_update_count", "count", "lower"),
    ("anonymizer.cloak_s", "s", "lower"),
    ("anonymizer.cloak_count", "count", "lower"),
    ("anonymizer.other_s", "s", "lower"),
    ("anonymizer.cache_hit_rate", "ratio", "higher"),
    ("anonymizer.counter_updates_per_update", "count", "lower"),
    ("anonymizer.area_over_amin_mean", "ratio", "lower"),
    ("anonymizer.k_achieved_over_k_mean", "ratio", "lower"),
    ("wire.encode_s", "s", "lower"),
    ("wire.decode_s", "s", "lower"),
    ("wire.bytes_up", "bytes", "lower"),
    ("wire.bytes_down", "bytes", "lower"),
    ("wire.frames", "count", "lower"),
    ("wire.envelopes_per_frame", "count", "higher"),
    ("wire.bytes_per_update", "bytes", "lower"),
    ("frontdoor.rtt_s", "s", "lower"),
    ("frontdoor.self_s", "s", "lower"),
    ("workers.self_s", "s", "lower"),
    ("workers.roundtrips", "count", "lower"),
    ("workers.roundtrip_s", "s", "lower"),
    ("workers.envelopes_per_roundtrip", "count", "higher"),
    ("workers.crashes", "count", "lower"),
    ("workers.heals", "count", "lower"),
    ("fleet.self_s", "s", "lower"),
    ("database.store_private_s", "s", "lower"),
    ("database.store_private_count", "count", "lower"),
    ("database.private_index_size", "count", "lower"),
    ("processor.nn_public_s", "s", "lower"),
    ("processor.knn_public_s", "s", "lower"),
    ("processor.range_public_s", "s", "lower"),
    ("processor.nn_private_s", "s", "lower"),
    ("processor.other_s", "s", "lower"),
    ("processor.candidates_mean.nn_public", "count", "lower"),
    ("processor.candidates_mean.knn_public", "count", "lower"),
    ("processor.candidates_mean.range_public", "count", "lower"),
    ("processor.candidates_mean.nn_private", "count", "lower"),
    ("processor.answer_over_candidates", "ratio", "higher"),
    ("codec.encode_s", "s", "lower"),
    ("codec.decode_s", "s", "lower"),
    ("codec.bytes", "bytes", "lower"),
    ("codec.bytes_per_query", "bytes", "lower"),
    ("client.refine_s", "s", "lower"),
    ("casper.self_s", "s", "lower"),
    ("monitor.on_users_moved_self_s", "s", "lower"),
    ("monitor.flush_s", "s", "lower"),
    ("monitor.knn_evaluations", "count", "lower"),
    ("monitor.suppressed", "count", "higher"),
    ("monitor.validity_exits", "count", "lower"),
    ("monitor.requery_rate", "ratio", "lower"),
    ("monitor.candidates_mean", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
)

#: Span name -> the per-layer self-time metric it accumulates into.
#: Spans of a proxied layer that are not listed fall into that layer's
#: ``other_s`` (or the layer's single self-time metric).
_SPAN_METRIC = {
    "anonymizer.update": "anonymizer.update_s",
    "anonymizer.update_batch": "anonymizer.update_s",
    "adaptive.update": "anonymizer.adaptive_update_s",
    "adaptive.update_batch": "anonymizer.adaptive_update_s",
    "anonymizer.cloak": "anonymizer.cloak_s",
    "anonymizer.cloak_many": "anonymizer.cloak_s",
    "adaptive.cloak": "anonymizer.cloak_s",
    "server.store_private": "database.store_private_s",
    "server.nn_public": "processor.nn_public_s",
    "server.knn_public": "processor.knn_public_s",
    "server.knn_public_with_validity": "processor.knn_public_s",
    "server.range_public": "processor.range_public_s",
    "server.nn_private": "processor.nn_private_s",
    "codec.encode": "codec.encode_s",
    "codec.decode": "codec.decode_s",
    "client.refine": "client.refine_s",
    "wire.encode": "wire.encode_s",
    "wire.decode": "wire.decode_s",
    "frontdoor.rtt": "frontdoor.rtt_s",
    "monitor.on_users_moved": "monitor.on_users_moved_self_s",
    "monitor.flush": "monitor.flush_s",
}
_LAYER_DEFAULT = {
    "anonymizer": "anonymizer.other_s",
    "adaptive": "anonymizer.other_s",
    "server": "processor.other_s",
    "casper": "casper.self_s",
}
#: Counts that are one per span; move counts are set by the workloads
#: (one ``update_batch`` span applies a whole tick of moves).
_SPAN_COUNT = {
    "anonymizer.cloak": "anonymizer.cloak_count",
    "adaptive.cloak": "anonymizer.cloak_count",
    "server.store_private": "database.store_private_count",
}

#: The decomposition self-check rejects a per-layer table that leaves
#: more than this share of the traced wall-clock unattributed.
MAX_UNATTRIBUTED = 0.10


@dataclass
class Failures:
    """Operations attempted and failed, by cause."""

    attempted: int = 0
    oracle_checks: int = 0
    causes: dict[str, int] = field(default_factory=dict)

    def fail(self, cause: str, count: int = 1) -> None:
        self.causes[cause] = self.causes.get(cause, 0) + count

    def absorb(self, other: "Failures") -> None:
        """Add another pass's tallies to this one."""
        self.attempted += other.attempted
        self.oracle_checks += other.oracle_checks
        for cause, count in other.causes.items():
            self.fail(cause, count)

    @property
    def failed(self) -> int:
        return sum(self.causes.values())


@dataclass
class Measurement:
    """One run's outcome: contract metrics plus named detail."""

    metrics: dict[str, tuple[float, str]]
    failures: Failures
    #: Workload-specific named numbers (the per-class latencies, byte
    #: costs and sample counts README.md documents); printed, and kept
    #: in ``--out`` reports, but outside the driver's contract.
    detail: dict[str, tuple[float, str]] = field(default_factory=dict)
    valid: bool = True
    notes: list[str] = field(default_factory=list)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (``q`` in [0, 100])."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def rate(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


#: Seconds ``reference_work`` takes on the reference box in a quiet
#: minute.  Only its ratio to a run's own samples matters; the constant
#: keeps corrected times in real units.
REFERENCE_NOMINAL_S = 0.00155

_REFERENCE_ARRAY = np.arange(20000, dtype=np.float64)[::-1]


def reference_work() -> float:
    """Time a fixed computation that touches no code of the program:
    an interpreter loop, dict inserts, a keyed sort and a numpy sort —
    the same kinds of work the pipeline does.  The collector is off
    while it runs: its allocations must not pay for (or trigger) a
    collection of whatever heap the workload has built."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        total = 0
        for i in range(20000):
            total += i * i
        table = {}
        for i in range(3000):
            table[i] = (i, total)
        sorted(table.values(), key=lambda pair: -pair[0])
        np.sort(_REFERENCE_ARRAY)
        return perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class MachineSpeed:
    """How fast this box is right now, relative to its quiet self.

    The reference box is a shared VM whose speed drifts by 10-50 % over
    minutes and by as much within a turbulent minute (same code, same
    seed, same inputs).  Window medians cannot cancel that: a slow
    minute slows every window.  So every run also times
    ``reference_work`` between its windows, outside the timers, and
    every timed sample is kept twice (:class:`Samples`): as timed, and
    divided by ``current`` — the median of the last few reference times
    over the nominal one.  The contract's numbers come from the
    corrected samples, the ``raw.*`` detail rows from the timed ones.
    A change to the program cannot move the reference, so a regression
    shows undiminished; on a quiet box the factor is 1.
    """

    #: Reference samples behind ``current``.
    LOCAL = 5

    def __init__(self, active: bool = True) -> None:
        #: An inactive instance never samples and corrects by 1: what a
        #: traced pass hands the code it shares with timed runs.
        self.active = active
        self.samples: list[float] = []
        #: > 1 while the box is slower than nominal.
        self.current = 1.0

    def sample(self, times: int = 1) -> None:
        if not self.active:
            return
        for _ in range(times):
            self.samples.append(reference_work())
        self.current = median(self.samples[-self.LOCAL :]) / REFERENCE_NOMINAL_S

    @property
    def factor(self) -> float:
        """The whole run's factor (what ``setup_s`` is corrected by)."""
        return median(self.samples) / REFERENCE_NOMINAL_S if self.samples else 1.0


class Samples:
    """Timed samples, as timed and corrected to nominal machine speed."""

    __slots__ = ("raw", "corrected")

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.corrected: list[float] = []

    def add(self, seconds: float, factor: float) -> None:
        self.raw.append(seconds)
        self.corrected.append(seconds / factor)

    def __len__(self) -> int:
        return len(self.raw)


def both_views(
    contract: Callable[[str], dict[str, tuple[float, str]]],
) -> tuple[dict, dict]:
    """``contract("corrected")`` as the metrics, ``contract("raw")`` as
    ``raw.*`` detail rows: one formula, two views of the samples."""
    raw = {f"raw.{name}": row for name, row in contract("raw").items()}
    return contract("corrected"), raw


# A run's headline numbers are medians over windows of the run, never
# totals over the whole run: on a shared box interference is one-sided
# and bursty, and a median of window values moves far less between
# identical runs than a mean does (README.md, "Steadiness").
def _windows(samples: Sequence[float], size: int) -> list[Sequence[float]]:
    """Consecutive full windows; the whole run when it is shorter."""
    full = [samples[i : i + size] for i in range(0, len(samples) - size + 1, size)]
    return full or [samples]


def window_rate(samples: Sequence[float], size: int) -> float:
    """Median over windows of operations per second in the window."""
    return median(rate(len(window), sum(window)) for window in _windows(samples, size))


def window_percentile(samples: Sequence[float], size: int, q: float) -> float:
    """Median over windows of the window's ``q``-th percentile."""
    return median(percentile(window, q) for window in _windows(samples, size))


def median_rate(count: int, seconds: Sequence[float]) -> float:
    """Median over equal chunks of work (ticks, batches) of ``count``
    operations per chunk second."""
    return median(rate(count, spent) for spent in seconds)


def latency_detail(
    prefix: str, samples: Sequence[float]
) -> dict[str, tuple[float, str]]:
    """Median latency in ms with its sample count, as detail rows."""
    if not samples:
        return {}
    return {
        f"{prefix}_p50_ms": (median(samples) * 1e3, "ms"),
        f"{prefix}_samples": (float(len(samples)), "count"),
    }


def digest_arrays(arrays: Iterable[np.ndarray]) -> str:
    """SHA-256 over the raw bytes of the generated inputs, so two runs
    can prove they fed the program identical inputs."""
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


def _vm_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live worker
    processes (``VmHWM``); sample before tearing workers down."""
    pids = [os.getpid()] + [
        child.pid for child in multiprocessing.active_children() if child.pid
    ]
    return sum(_vm_hwm_kib(pid) for pid in pids) / 1024.0


# ----------------------------------------------------------------------
# Oracles (always called outside timed regions)
# ----------------------------------------------------------------------
_TOLERANCE = 1e-9


class TargetOracle:
    """Brute-force exact answers over the public targets."""

    def __init__(self, targets: dict[str, Point]) -> None:
        self._index = {oid: i for i, oid in enumerate(targets)}
        self._xy = np.array([(p.x, p.y) for p in targets.values()])

    def _distances(self, location: Point) -> np.ndarray:
        return np.hypot(self._xy[:, 0] - location.x, self._xy[:, 1] - location.y)

    def check(
        self, kind: str, answer: object, location: Point, k: int, radius: float
    ) -> bool:
        distances = self._distances(location)
        if kind == "nn_public":
            got = distances[self._index[answer]]
            return bool(abs(got - distances.min()) <= _TOLERANCE)
        if kind == "knn_public":
            got = np.array([distances[self._index[oid]] for oid in answer])
            want = np.sort(distances)[:k]
            return len(got) == len(want) and bool(
                np.all(np.abs(got - want) <= _TOLERANCE)
            )
        if kind == "range_public":
            got = {self._index[oid] for oid in answer}
            must = set(np.flatnonzero(distances <= radius - _TOLERANCE).tolist())
            may = set(np.flatnonzero(distances <= radius + _TOLERANCE).tolist())
            return must <= got <= may
        raise ValueError(f"no target oracle for {kind!r}")


def nearest_other(xy: np.ndarray, uid: int) -> int:
    """The user truly nearest to ``uid`` by exact position — the answer
    an inclusive private-over-private candidate list must contain."""
    distances = np.hypot(xy[:, 0] - xy[uid, 0], xy[:, 1] - xy[uid, 1])
    distances[uid] = np.inf
    return int(distances.argmin())


def check_cloak(
    region: CloakedRegion, profile: PrivacyProfile, xy: np.ndarray
) -> bool:
    """The paper's contract for one cloak: at least ``k`` users inside
    the region and an area of at least ``A_min``."""
    rect = region.region
    inside = int(
        np.count_nonzero(
            (xy[:, 0] >= rect.x_min) & (xy[:, 0] <= rect.x_max)
            & (xy[:, 1] >= rect.y_min) & (xy[:, 1] <= rect.y_max)
        )
    )
    return inside >= profile.k and rect.area >= profile.a_min - 1e-15


# ----------------------------------------------------------------------
# Per-layer table
# ----------------------------------------------------------------------
def cache_counts(anonymizer: object) -> tuple[int, int]:
    """Cloak-cache ``(hits, misses)`` of any deployment shape."""
    stats = getattr(anonymizer, "cache_stats", None)
    if stats is not None:
        totals = stats()
        return totals["hits"], totals["misses"]
    cache = anonymizer.cloak_cache  # type: ignore[attr-defined]
    return cache.hits, cache.misses


def worker_telemetry(session: object) -> dict[str, float]:
    """Parent-to-worker round trips, read from the program's own
    telemetry registry (enabled in traced passes only)."""
    roundtrips = envelopes = 0
    seconds = 0.0
    for metric in session.metrics:  # type: ignore[attr-defined]
        if metric.name == "casper_worker_roundtrip_seconds":
            roundtrips += metric.count
            seconds += metric.sum
        elif metric.name == "casper_worker_batch_envelopes":
            envelopes += int(metric.sum)
    return {
        "workers.roundtrips": float(roundtrips),
        "workers.roundtrip_s": seconds,
        "workers.envelopes_per_roundtrip": envelopes / roundtrips if roundtrips else 0.0,
    }


def layer_table(tracer: Tracer) -> dict[str, float]:
    """Fold a tracer's spans into the per-layer self-time and count
    metrics; every metric starts at 0 so absent layers read 0."""
    table = {name: 0.0 for name, _unit, _better in PER_LAYER}
    totals, counts = tracer.self_times()
    wall = tracer.root_seconds()
    unattributed = 0.0
    for span, seconds in totals.items():
        if span == ROOT_SPAN:
            unattributed += seconds
            continue
        metric = _SPAN_METRIC.get(span) or _LAYER_DEFAULT[span.split(".")[0]]
        table[metric] += seconds
    for span, metric in _SPAN_COUNT.items():
        table[metric] += counts.get(span, 0)
    table["trace.wall_s"] = wall
    table["trace.unattributed_share"] = unattributed / wall if wall else 0.0
    return table


def traced_measurement(
    workload: str,
    table: dict[str, float],
    tracer: Tracer,
    failures: Failures,
    plain_seconds: float,
    traced_seconds: float,
    same_outputs: bool,
    out_dir: Path,
) -> Measurement:
    """Close a traced pass: overhead ratio, the decomposition
    self-check, and the span log written next to the benchmark."""
    table["trace.overhead_ratio"] = (
        traced_seconds / plain_seconds if plain_seconds > 0 else 0.0
    )
    notes = []
    if not same_outputs:
        notes.append("outputs through the timed proxies differ from the plain pass")
    if table["trace.unattributed_share"] > MAX_UNATTRIBUTED:
        notes.append(
            f"trace.unattributed_share {table['trace.unattributed_share']:.3f} "
            f"exceeds {MAX_UNATTRIBUTED}"
        )
    tracer.write(out_dir / f"trace_{workload}.json")
    units = {name: unit for name, unit, _better in PER_LAYER}
    return Measurement(
        metrics={name: (table[name], units[name]) for name in units},
        failures=failures,
        valid=not notes,
        notes=notes,
    )
