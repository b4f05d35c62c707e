"""Brute-force reference index.

Linear scans over the entry dictionary — the correctness oracle that the
R-tree is property-tested against, and a perfectly adequate index for
small datasets.
"""

from __future__ import annotations

from repro.geometry import Rect
from repro.spatial.index import SpatialIndex

__all__ = ["BruteForceIndex"]


class BruteForceIndex(SpatialIndex):
    """O(n) implementation of every query; O(1) maintenance."""

    def _insert_impl(self, oid: object, rect: Rect) -> None:
        pass  # the base-class entry dict is the whole data structure

    def _remove_impl(self, oid: object, rect: Rect) -> None:
        pass

    def _clear_impl(self) -> None:
        pass

    def _range_impl(self, region: Rect) -> list[object]:
        return [oid for oid, rect in self._entries.items() if rect.intersects(region)]
