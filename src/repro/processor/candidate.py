"""Candidate lists — the privacy-aware query processor's answer format.

Because the server never sees exact locations, it cannot return "the"
nearest neighbor; instead it returns a *candidate list* guaranteed to
contain the exact answer (inclusiveness, Theorems 1 and 3) while being
as small as the chosen filters allow (minimality, Theorems 2 and 4).
The client evaluates the query locally over the candidate list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry import Point, Rect
from repro.utils.units import transmission_seconds

__all__ = ["CandidateList"]

#: ``by`` -> sort key over ``(oid, rect)`` items, given the client's
#: exact location: optimistic, pessimistic, or center distance.
_RANKINGS = {
    "min": lambda at: lambda item: item[1].min_distance_to_point(at),
    "max": lambda at: lambda item: item[1].max_distance_to_point(at),
    "center": lambda at: lambda item: item[1].center.distance_to(at),
}


def _ranking(by: str, location: Point):
    if by not in _RANKINGS:
        raise ValueError(f"unknown ranking {by!r}")
    return _RANKINGS[by](location)


@dataclass(frozen=True)
class CandidateList:
    """The server's answer to a private query.

    Attributes
    ----------
    items:
        ``(oid, rect)`` pairs; for public targets the rects are
        degenerate (exact points), for private targets they are the
        targets' cloaked regions.
    search_region:
        The extended area ``A_EXT`` whose range query produced the items.
    num_filters:
        How many filter targets were used (1, 2 or 4).
    filters:
        The filter target oids selected in step 1 of Algorithm 2.
    """

    items: tuple[tuple[object, Rect], ...]
    search_region: Rect
    num_filters: int
    filters: tuple[object, ...] = ()

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, oid: object) -> bool:
        return any(item_oid == oid for item_oid, _rect in self.items)

    def oids(self) -> list[object]:
        """The candidate object ids."""
        return [oid for oid, _rect in self.items]

    # ------------------------------------------------------------------
    # Client-side local evaluation
    # ------------------------------------------------------------------
    def refine_nearest(self, location: Point, by: str = "min") -> object:
        """The client's local step: evaluate the NN query exactly.

        ``location`` is the client's private exact position, which never
        left the client.  ``by`` selects the ranking distance for cloaked
        (private-data) candidates: ``"min"`` (optimistic), ``"max"``
        (pessimistic) or ``"center"``.  For public point data all three
        coincide.
        """
        if not self.items:
            raise ValueError("cannot refine an empty candidate list")
        return min(self.items, key=_ranking(by, location))[0]

    def refine_k_nearest(
        self, location: Point, k: int, by: str = "min"
    ) -> list[object]:
        """Local refinement of a kNN query: the k candidates nearest to
        the client's exact position, nearest first."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if not self.items:
            raise ValueError("cannot refine an empty candidate list")
        ranked = sorted(self.items, key=_ranking(by, location))
        return [oid for oid, _rect in ranked[:k]]

    def refine_within(self, location: Point, radius: float) -> list[object]:
        """Local refinement of a range query: candidates whose region
        could lie within ``radius`` of the client."""
        return [
            oid
            for oid, rect in self.items
            if rect.min_distance_to_point(location) <= radius
        ]

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def transmission_time(
        self, record_bytes: int = 64, bandwidth_mbps: float = 100.0
    ) -> float:
        """Seconds to ship this list to the client under the paper's
        Figure 17 model (64-byte records over 100 Mbps)."""
        return transmission_seconds(len(self.items), record_bytes, bandwidth_mbps)
