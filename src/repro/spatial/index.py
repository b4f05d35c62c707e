"""The ``SpatialIndex`` contract shared by every index implementation.

The privacy-aware query processor (Section 5) is explicitly independent of
the underlying nearest-neighbor and range algorithms — "it can be employed
using R-tree or any other methods".  We honour that by programming the
processor against this abstract interface and providing four concrete
implementations: an R-tree, a uniform grid, a PR quadtree and a
brute-force reference.

Indexed entries are ``(oid, Rect)`` pairs.  Point data (public targets)
is stored as degenerate rectangles, so public and private (cloaked)
targets flow through the identical machinery.
"""

from __future__ import annotations

import abc
import heapq
from collections.abc import Iterator
from contextlib import contextmanager

from repro.errors import EmptyDatasetError
from repro.geometry import Point, Rect
from repro.geometry.block import Block, rect_block

__all__ = ["SpatialIndex"]


class SpatialIndex(abc.ABC):
    """Abstract dynamic spatial index over ``(oid, Rect)`` entries.

    Implementations must keep :attr:`_entries` (oid -> Rect) up to date;
    the base class supplies bookkeeping, validation, and generic
    (non-accelerated) fallbacks that subclasses override when they can do
    better.

    Tie-breaking contract: whenever two entries are at exactly the same
    distance from a query point, every query ranks them by *insertion
    order* (tracked in :attr:`_seq`; re-inserting an oid assigns a fresh
    sequence number).  The brute-force oracle gets this for free from
    dict iteration order; the accelerated indexes implement it
    explicitly, which is what makes their answers byte-identical to the
    oracle's even under coincident coordinates.
    """

    def __init__(self) -> None:
        self._entries: dict[object, Rect] = {}
        self._seq: dict[object, int] = {}
        self._next_seq = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, oid: object, rect: Rect) -> None:
        """Add an entry; replaces any existing entry with the same oid."""
        if oid in self._entries:
            self.remove(oid)
        self._entries[oid] = rect
        self._assign_seq(oid)
        try:
            self._insert_impl(oid, rect)
        except Exception:
            del self._entries[oid]
            del self._seq[oid]
            raise

    def _assign_seq(self, oid: object) -> None:
        """Give ``oid`` the next insertion-order sequence number."""
        self._seq[oid] = self._next_seq
        self._next_seq += 1

    def insert_point(self, oid: object, point: Point) -> None:
        """Convenience: add a point entry as a degenerate rectangle."""
        self.insert(oid, Rect.point(point))

    def remove(self, oid: object) -> None:
        """Remove an entry; raises ``KeyError`` for unknown oids."""
        rect = self._entries.pop(oid)
        self._seq.pop(oid, None)
        self._remove_impl(oid, rect)

    def bulk_load(self, entries: dict[object, Rect]) -> None:
        """Replace the index contents with ``entries`` in one pass.

        The default implementation just inserts sequentially; indexes with
        a packing algorithm (STR for the R-tree) override it.
        """
        self.clear()
        for oid, rect in entries.items():
            self.insert(oid, rect)

    def clear(self) -> None:
        """Drop all entries."""
        self._entries.clear()
        self._seq.clear()
        self._clear_impl()

    @contextmanager
    def hidden(self, oid: object) -> Iterator[None]:
        """Hide ``oid`` from every query inside the ``with`` block.

        The entry comes back with the insertion order it had, so a read
        that excludes someone (a requester's own record) leaves every
        later tie where it was.  The block may only query the index.
        """
        rect, seq = self._entries[oid], self._seq[oid]
        self.remove(oid)
        try:
            yield
        finally:
            self.insert(oid, rect)
            self._seq[oid] = seq

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, oid: object) -> bool:
        return oid in self._entries

    def rect_of(self, oid: object) -> Rect:
        """The stored rectangle of ``oid``."""
        return self._entries[oid]

    def items(self) -> Iterator[tuple[object, Rect]]:
        """Iterate over all ``(oid, rect)`` entries."""
        return iter(self._entries.items())

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def range_search(self, region: Rect) -> list[object]:
        """All oids whose rectangle intersects the closed ``region``."""
        return self._range_impl(region)

    def range_columns(self, region: Rect) -> tuple[list[object], Block]:
        """:meth:`range_search` as columns: the oids in ``str(oid)``
        order and the ``(n, 4)`` block of their rectangles — the two
        halves of a candidate list.  An index that keeps its entries in
        a coordinate array overrides this to index the block out of it.
        """
        ids = sorted(self.range_search(region), key=str)
        return ids, rect_block([self._entries[oid] for oid in ids])

    def nearest(self, point: Point) -> object:
        """The oid minimising min-distance from ``point`` to its rect.

        Ties go to the earliest-inserted entry, as in every query;
        raises :class:`EmptyDatasetError` when the index is empty.
        """
        result = self.k_nearest(point, 1)
        return result[0]

    def k_nearest(self, point: Point, k: int) -> list[object]:
        """The ``k`` entries with smallest min-distance, nearest first."""
        if not self._entries:
            raise EmptyDatasetError("spatial index is empty")
        if k <= 0:
            raise ValueError("k must be positive")
        return self._k_nearest_impl(point, min(k, len(self._entries)))

    def k_nearest_by_max_distance(self, point: Point, k: int) -> list[object]:
        """The ``k`` entries with smallest *max*-distance, best first.

        The k-th element's max-distance is the pessimistic kNN bound
        :math:`d_v^k` used by private kNN queries over private data: k
        targets are guaranteed within that distance of ``point`` no
        matter where inside their cloaks they really are.  Subclasses
        override :meth:`_k_nearest_by_max_distance_impl` with a pruned
        branch-and-bound search; the fallback is a heap-based scan.
        """
        if not self._entries:
            raise EmptyDatasetError("spatial index is empty")
        if k <= 0:
            raise ValueError("k must be positive")
        return self._k_nearest_by_max_distance_impl(
            point, min(k, len(self._entries))
        )

    def _k_nearest_by_max_distance_impl(self, point: Point, k: int) -> list[object]:
        scored = heapq.nsmallest(
            k,
            self._entries.items(),
            key=lambda item: (
                item[1].max_distance_to_point(point),
                self._seq[item[0]],
            ),
        )
        return [oid for oid, _rect in scored]

    # ------------------------------------------------------------------
    # Implementation hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _insert_impl(self, oid: object, rect: Rect) -> None: ...

    @abc.abstractmethod
    def _remove_impl(self, oid: object, rect: Rect) -> None: ...

    @abc.abstractmethod
    def _clear_impl(self) -> None: ...

    @abc.abstractmethod
    def _range_impl(self, region: Rect) -> list[object]: ...

    @abc.abstractmethod
    def _k_nearest_impl(self, point: Point, k: int) -> list[object]: ...
