"""The privacy-aware location-based database server.

Stores the two data kinds of Section 5 side by side:

* **public data** — exact point locations (gas stations, hospitals,
  police cars) inserted directly, bypassing the anonymizer;
* **private data** — cloaked rectangles received from the location
  anonymizer, keyed by (pseudonymous) object id.

and exposes the privacy-aware query operations over them.  The server is
deliberately index-agnostic: it serves from the R-tree, and any
``SpatialIndex`` factory — the brute-force oracle, or a subclass of
your own — can stand in for it.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable

from repro.geometry import Point, Rect
from repro.observability import runtime as _telemetry
from repro.processor import (
    BatchQueryEngine,
    BatchRequest,
    CandidateList,
    OverlapPolicy,
    RangeCountResult,
    SafeRegionResult,
    naive_center_nn,
    naive_send_all,
    private_knn_over_public,
    private_knn_with_validity,
    private_nn_over_private,
    private_nn_over_public,
    private_range_over_private,
    private_range_over_public,
    public_range_count_over_private,
)
from repro.spatial import RTreeIndex, SpatialIndex

__all__ = ["LocationServer"]


class LocationServer:
    """Location-based database server with an embedded privacy-aware
    query processor."""

    def __init__(
        self, index_factory: Callable[[], SpatialIndex] = RTreeIndex
    ) -> None:
        self.public_index = index_factory()
        self.private_index = index_factory()
        self.batch_engine = BatchQueryEngine(self.public_index, self.private_index)

    # ------------------------------------------------------------------
    # Data maintenance
    # ------------------------------------------------------------------
    def add_public(self, oid: object, point: Point) -> None:
        """Store (or move) a public target's exact location."""
        self.public_index.insert_point(oid, point)

    def add_public_bulk(self, entries: dict[object, Point]) -> None:
        """Bulk-load public targets (uses the index's packing algorithm)."""
        self.public_index.bulk_load(
            {oid: Rect.point(p) for oid, p in entries.items()}
        )

    def remove_public(self, oid: object) -> None:
        self.public_index.remove(oid)

    def store_private(self, oid: object, region: Rect) -> None:
        """Store (or refresh) a private object's cloaked region — the
        only location information the server ever sees for it."""
        self.private_index.insert(oid, region)

    def store_private_bulk(self, entries: dict[object, Rect]) -> None:
        self.private_index.bulk_load(dict(entries))

    def remove_private(self, oid: object) -> None:
        self.private_index.remove(oid)

    @property
    def num_public(self) -> int:
        return len(self.public_index)

    @property
    def num_private(self) -> int:
        return len(self.private_index)

    # ------------------------------------------------------------------
    # Privacy-aware queries
    # ------------------------------------------------------------------
    def nn_public(self, cloaked_area: Rect, num_filters: int = 4) -> CandidateList:
        """Private NN query over public data (Section 5.1)."""
        _telemetry.count("casper_server_requests_total", "nn_public")
        return private_nn_over_public(self.public_index, cloaked_area, num_filters)

    def nn_private(
        self,
        cloaked_area: Rect,
        num_filters: int = 4,
        policy: OverlapPolicy | None = None,
        exclude: object = None,
    ) -> CandidateList:
        """Private NN query over private data (Section 5.2).

        ``exclude`` hides one object (typically the requester's own
        cloaked record) for the duration of the query; the store is the
        same before and after, tie order included.
        """
        _telemetry.count("casper_server_requests_total", "nn_private")
        index = self.private_index
        hiding = exclude is not None and exclude in index
        with index.hidden(exclude) if hiding else nullcontext():
            return private_nn_over_private(index, cloaked_area, num_filters, policy)

    def knn_public(
        self, cloaked_area: Rect, k: int, num_filters: int = 4
    ) -> CandidateList:
        """Private kNN query over public data (snapshot form)."""
        _telemetry.count("casper_server_requests_total", "knn_public")
        return private_knn_over_public(
            self.public_index, cloaked_area, k, num_filters
        )

    def knn_public_with_validity(
        self,
        cloaked_area: Rect,
        k: int,
        num_filters: int = 4,
        margin: float = 0.0,
    ) -> SafeRegionResult:
        """Private kNN over public data with a validity region: the
        moving-client form (see :mod:`repro.processor.safe_region`)."""
        _telemetry.count("casper_server_requests_total", "knn_public_safe")
        return private_knn_with_validity(
            self.public_index, cloaked_area, k, num_filters, margin
        )

    def range_public(self, cloaked_area: Rect, radius: float) -> CandidateList:
        """Private range query over public data."""
        _telemetry.count("casper_server_requests_total", "range_public")
        return private_range_over_public(self.public_index, cloaked_area, radius)

    def range_private(
        self,
        cloaked_area: Rect,
        radius: float,
        policy: OverlapPolicy | None = None,
    ) -> CandidateList:
        """Private range query over private data."""
        _telemetry.count("casper_server_requests_total", "range_private")
        return private_range_over_private(
            self.private_index, cloaked_area, radius, policy
        )

    def run_batch(self, requests: list[BatchRequest]) -> list[CandidateList]:
        """Answer a batch of privacy-aware queries at once, sharing the
        filter/extension work between requests with the same cloaked
        area and answering duplicate requests exactly once."""
        _telemetry.count("casper_server_requests_total", "run_batch")
        return self.batch_engine.run(requests)

    def count_private(self, region: Rect) -> RangeCountResult:
        """Public aggregate query over private data (Section 5's second
        query type): how many private objects are in ``region``."""
        _telemetry.count("casper_server_requests_total", "count_private")
        return public_range_count_over_private(self.private_index, region)

    # ------------------------------------------------------------------
    # Naive baselines (Figure 4)
    # ------------------------------------------------------------------
    def nn_public_naive_center(self, cloaked_area: Rect) -> CandidateList:
        return naive_center_nn(self.public_index, cloaked_area)

    def nn_public_naive_all(self, cloaked_area: Rect) -> CandidateList:
        return naive_send_all(self.public_index, cloaked_area)
