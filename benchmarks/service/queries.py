"""The closed-loop ad-hoc query client of ``query_static`` and
``commuter_service``.

One operation is what a mobile client waits for: the facade call (cloak
→ privacy-aware processor → local refinement), the candidate list
encoded to the paper's 64-byte records, and the list decoded again —
request to decoded candidate list.  The same code runs untraced (one
timer around the operation) and traced (a root span plus codec spans;
the layers below are timed by the injected proxies).
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from statistics import median

import numpy as np

from repro.errors import CasperError
from repro.geometry import Point
from repro.server.codec import decode_candidate_list, encode_candidate_list

from benchmarks.service.harness import (
    ORACLE_EVERY,
    Failures,
    MachineSpeed,
    Samples,
    TargetOracle,
    check_cloak,
    latency_detail,
    nearest_other,
    percentile,
    rate,
    window_percentile,
)
from benchmarks.service.inputs import KNN_K, QUERY_KINDS, RANGE_RADIUS, Inputs
from benchmarks.service.tracing import Operation, Tracer, span_of

__all__ = ["QueryClient"]

_CALLS = {
    "nn_public": lambda casper, uid: casper.query_nearest_public(uid),
    "knn_public": lambda casper, uid: casper.query_k_nearest_public(uid, KNN_K),
    "range_public": lambda casper, uid: casper.query_range_public(uid, RANGE_RADIUS),
    "nn_private": lambda casper, uid: casper.query_nearest_private(uid),
}


class QueryClient:
    """Issues queries one at a time and keeps every sample."""

    def __init__(
        self,
        casper: object,
        inputs: Inputs,
        failures: Failures,
        tracer: Tracer | None = None,
        speed: MachineSpeed | None = None,
    ) -> None:
        self._casper = casper
        #: Sampled every 50th query; traced passes get an inactive one.
        self.speed = speed if speed is not None else MachineSpeed(active=False)
        self._profiles = inputs.population.profiles
        self._oracle = TargetOracle(inputs.targets)
        self._failures = failures
        self._tracer = tracer
        #: Exact user positions right now, for the oracles; the workload
        #: re-points this whenever it moves the population.
        self.xy: np.ndarray = inputs.population.start_xy
        #: Latencies per query class, and all of them in issue order.
        self.latencies: dict[str, Samples] = defaultdict(Samples)
        self.sequence = Samples()
        self.candidates: dict[str, int] = defaultdict(int)
        self.answers = 0
        self.payload_bytes = 0
        self.encoded = hashlib.sha256()
        self.area_over_amin: list[float] = []
        self.k_over_k: list[float] = []
        self._issued = 0
        self.speed.sample(MachineSpeed.LOCAL)

    def issue(self, kind: str, uid: int) -> float:
        """Run one query; returns its latency (0.0 when it failed)."""
        tracer = self._tracer
        self._failures.attempted += 1
        self._issued += 1
        try:
            with Operation(tracer) as op:
                result = _CALLS[kind](self._casper, uid)
                with span_of(tracer, "codec.encode"):
                    payload = encode_candidate_list(result.candidates)
                with span_of(tracer, "codec.decode"):
                    decoded = decode_candidate_list(payload)
        except (CasperError, ValueError) as error:
            self._failures.fail(f"error:{type(error).__name__}")
            return 0.0
        self.latencies[kind].add(op.seconds, self.speed.current)
        self.sequence.add(op.seconds, self.speed.current)
        self.candidates[kind] += len(decoded)
        self.payload_bytes += len(payload)
        self.encoded.update(payload)
        answer = result.answer
        self.answers += len(answer) if isinstance(answer, (list, tuple)) else 1
        profile = self._profiles[uid]
        self.area_over_amin.append(result.cloak.accuracy_area(profile))
        self.k_over_k.append(result.cloak.accuracy_k(profile))
        if self._issued % ORACLE_EVERY == 0:
            self._check(kind, uid, result, decoded)
            self.speed.sample()
        return op.seconds

    def _check(self, kind: str, uid: int, result: object, decoded: object) -> None:
        self._failures.oracle_checks += 1
        xy = self.xy
        if kind == "nn_private":
            # Inclusiveness: the truly nearest other user must be among
            # the candidates the client received.
            truth = str(nearest_other(xy, uid))
            correct = any(oid == truth for oid, _rect in decoded.items)
        else:
            location = Point(float(xy[uid, 0]), float(xy[uid, 1]))
            correct = self._oracle.check(
                kind, result.answer, location, KNN_K, RANGE_RADIUS
            )
        if not correct:
            self._failures.fail(f"oracle:{kind}")
        if not check_cloak(result.cloak, self._profiles[uid], xy):
            self._failures.fail("oracle:cloak")

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return len(self.sequence)

    @property
    def busy(self) -> float:
        return sum(self.sequence.raw)

    def detail(self) -> dict[str, tuple[float, str]]:
        """The per-class rows README.md documents, as timed."""
        samples = self.sequence.raw
        rows: dict[str, tuple[float, str]] = {
            "query_qps": (rate(len(samples), sum(samples)), "1/s"),
            "query_p99_ms": (percentile(samples, 99) * 1e3, "ms"),
            "candidate_bytes_per_query": (
                self.payload_bytes / max(self.count, 1), "bytes",
            ),
        }
        for kind in QUERY_KINDS:
            rows.update(latency_detail(kind, self.latencies[kind].raw))
        return rows

    def layer_counts(self) -> dict[str, float]:
        """Per-layer counts this client observes at its call sites."""
        table = {
            f"processor.candidates_mean.{kind}": (
                self.candidates[kind] / len(self.latencies[kind])
                if len(self.latencies[kind]) else 0.0
            )
            for kind in QUERY_KINDS
        }
        total_candidates = sum(self.candidates.values())
        table["processor.answer_over_candidates"] = (
            self.answers / total_candidates if total_candidates else 0.0
        )
        table["codec.bytes"] = float(self.payload_bytes)
        table["codec.bytes_per_query"] = self.payload_bytes / max(self.count, 1)
        if self.area_over_amin:
            table["anonymizer.area_over_amin_mean"] = float(np.mean(self.area_over_amin))
            table["anonymizer.k_achieved_over_k_mean"] = float(np.mean(self.k_over_k))
        return table

    def headline(self, window: int, view: str) -> dict[str, tuple[float, str]]:
        """The contract's request metrics over every query class:
        window medians, so one burst of interference moves nothing."""
        samples = getattr(self.sequence, view)
        return {
            "request_p50_ms": (median(samples) * 1e3, "ms"),
            "request_p95_ms": (window_percentile(samples, window, 95) * 1e3, "ms"),
        }
