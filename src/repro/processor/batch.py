"""The server's one door into Algorithm 2, with a memo per index version.

Under grid-based cloaking many queries arrive with the *same* cloaked
area — every user sharing a pyramid cell and profile cloaks to an
identical rectangle — and Algorithm 2 spends most of its time on
per-area work (filter selection and ``A_EXT`` construction) that does
not depend on which user asked, only on the area and the index
contents.  :class:`BatchQueryEngine` keeps that work, one ``(A_EXT,
filter oids)`` entry per ``(query type, area, num_filters[, k])``, in
one memo per index, tagged with the index's
:attr:`~repro.spatial.SpatialIndex.version`: every write moves the
version and the next request drops the memo, and so does a memo that
holds more entries than the index holds rows.  A single query
(:meth:`BatchQueryEngine.answer`) and a batch (:meth:`BatchQueryEngine.run`,
which also answers each *distinct* request exactly once and fans the
frozen :class:`~repro.processor.candidate.CandidateList` objects back
out in request order) share it.

There is no batch implementation of any query kind: every request runs
the same :func:`~repro.processor.executor.answer` as the memo-free
per-query functions (``private_nn_over_*``, ``private_knn_over_*``,
``private_range_over_*``), phase telemetry included — a memo hit simply
skips the phases whose work it saved.

This engine is the downstream half of the per-tick batch pipeline: a
tick of moves enters through the anonymizer's batched update kernel
(:meth:`repro.server.casper.Casper.update_locations` — see
``docs/vectorization.md``), and the dirty queries it produces drain
through :meth:`BatchQueryEngine.run` at the continuous monitor's flush,
where movers sharing a cloaked cell collapse to one execution.
"""

from __future__ import annotations

from typing import Sequence

from repro.observability import runtime as _telemetry
from repro.processor import executor
from repro.processor.candidate import CandidateList
from repro.processor.executor import BatchRequest
from repro.spatial import SpatialIndex
from repro.utils.timer import monotonic

__all__ = ["BatchQueryEngine"]


class BatchQueryEngine:
    """Memoizing, deduplicating executor for privacy-aware queries.

    Beside references to the server's two indexes the engine holds one
    memo per index, valid for the index version it was built at, so an
    index written between two requests — through any of its write
    methods — never serves a stale answer.
    """

    def __init__(
        self,
        public_index: SpatialIndex | None = None,
        private_index: SpatialIndex | None = None,
    ) -> None:
        self.public_index = public_index
        self.private_index = private_index
        # Cumulative counters for observability / benchmarks.
        self.requests_seen = 0
        self.requests_computed = 0
        self._memos: dict[SpatialIndex, tuple[int, dict]] = {}

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, requests: Sequence[BatchRequest]) -> list[CandidateList]:
        """Answer every request; returns candidate lists in request
        order.  Identical requests share one computation (and one frozen
        ``CandidateList`` instance)."""
        traced = _telemetry.active() is not None
        start = monotonic() if traced else 0.0
        computed_before = self.requests_computed
        results: dict[BatchRequest, CandidateList] = {}
        out: list[CandidateList] = []
        for request in requests:
            self.requests_seen += 1
            cached = results.get(request)
            if cached is None:
                self.requests_computed += 1
                cached = results[request] = self.answer(request)
            out.append(cached)
        if traced:
            computed = self.requests_computed - computed_before
            saved = len(out) - computed
            _telemetry.count("casper_batch_runs_total")
            _telemetry.count("casper_batch_requests_total", "computed", n=computed)
            _telemetry.count("casper_batch_requests_total", "deduplicated", n=saved)
            _telemetry.observe("casper_batch_size", len(out))
            _telemetry.observe("casper_batch_seconds", monotonic() - start)
        return out

    def answer(self, request: BatchRequest) -> CandidateList:
        """One request, through the memo of its index's current version."""
        index = self._index_for(request)
        version, memo = self._memos.get(index, (None, {}))
        if version != index.version or len(memo) > len(index):
            memo = {}
            self._memos[index] = (index.version, memo)
        return executor.answer(index, request, memo)

    @property
    def dedup_rate(self) -> float:
        """Fraction of requests answered without recomputation."""
        if not self.requests_seen:
            return 0.0
        return 1.0 - self.requests_computed / self.requests_seen

    def _index_for(self, request: BatchRequest) -> SpatialIndex:
        index = (
            self.public_index
            if request.query_type.endswith("public")
            else self.private_index
        )
        if index is None:
            raise ValueError(
                f"engine has no index for query type {request.query_type!r}"
            )
        return index
