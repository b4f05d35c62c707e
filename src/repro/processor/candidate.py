"""Candidate lists — the privacy-aware query processor's answer format.

Because the server never sees exact locations, it cannot return "the"
nearest neighbor; instead it returns a *candidate list* guaranteed to
contain the exact answer (inclusiveness, Theorems 1 and 3) while being
as small as the chosen filters allow (minimality, Theorems 2 and 4).
The client evaluates the query locally over the candidate list.

A list is held the way the paper ships it (Figure 17's 64-byte record):
one ``(n, 4)`` float64 block of regions plus an id column, with the
ids' wire forms beside it (:class:`CandidateColumns`).  ``(oid, Rect)``
pairs exist only while someone iterates ``items``; the codec reads and
writes the block and the wire column whole, and local refinement runs
over the block with numpy.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.geometry import Point, Rect
from repro.geometry.block import max_distances, min_distances, near, rect_block
from repro.spatial.index import wire_columns
from repro.utils.units import transmission_seconds

__all__ = ["CandidateColumns", "CandidateList"]


class CandidateColumns(Sequence):
    """The items of a candidate list, stored as columns.

    ``ids[i]`` is the object id of candidate ``i`` (the object the index
    stored, or the ``str`` a decoded record carried) and ``coords[i]``
    its region as ``(x_min, y_min, x_max, y_max)``.  As a sequence it
    reads as the ``(oid, Rect)`` pairs it replaces — same length, order,
    equality and hash as the tuple of pairs — building each ``Rect`` on
    access and keeping none.  :meth:`wire_forms` gives the ids as the
    codec writes them.
    """

    __slots__ = ("ids", "coords", "_wire")

    def __init__(
        self,
        ids: Sequence[object],
        coords: np.ndarray,
        wire: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        if coords.shape != (len(ids), 4):
            raise ValueError(f"{len(ids)} ids need a ({len(ids)}, 4) coordinate block")
        self.ids = ids
        self.coords = coords
        self._wire = wire

    def wire_forms(self) -> tuple[np.ndarray, np.ndarray]:
        """``(wire, marks)``: ``wire[i]`` is ``str(ids[i])`` in UTF-8 and
        ``marks[i]`` why the record cannot carry it, if it cannot
        (:func:`~repro.spatial.index.wire_columns`).  The index that
        produced the list decided both when it stored the entry; for
        other lists they are computed on first use."""
        if self._wire is None:
            wire, _lengths, marks = wire_columns(self.ids)
            self._wire = wire, marks
        return self._wire

    @classmethod
    def from_rects(cls, ids: Iterable[object], rects: Sequence[Rect]) -> "CandidateColumns":
        """The columns of parallel id and region sequences."""
        coords = rect_block(rects)
        coords.flags.writeable = False
        return cls(tuple(ids), coords)

    def rect(self, i: int) -> Rect:
        """The region of candidate ``i``."""
        return Rect(*self.coords[i].tolist())

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[tuple[object, Rect]]:
        return zip(self.ids, (Rect(*row) for row in self.coords.tolist()))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        return self.ids[i], self.rect(i)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CandidateColumns):
            return tuple(self.ids) == tuple(other.ids) and np.array_equal(
                self.coords, other.coords
            )
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


def _center_distances(coords: np.ndarray, at: Point) -> np.ndarray:
    x_min, y_min, x_max, y_max = coords.T
    return np.hypot((x_min + x_max) / 2.0 - at.x, (y_min + y_max) / 2.0 - at.y)


#: ``by`` -> (vector kernel over the coordinate block, the scalar
#: distance that defines the ranking), given the client's exact
#: location: optimistic, pessimistic, or center distance.  The vector
#: kernel only shortlists and the scalar distance ranks — the rule of
#: :mod:`repro.geometry.block`.
_RANKINGS = {
    "min": (min_distances, Rect.min_distance_to_point),
    "max": (max_distances, Rect.max_distance_to_point),
    "center": (_center_distances, lambda rect, at: rect.center.distance_to(at)),
}

def _vector_distances(kernel, coords: np.ndarray, at: Point) -> np.ndarray:
    # inf - inf among the coordinates yields NaN, which near() hands to
    # the scalar ranking; no warning is owed for that.
    with np.errstate(invalid="ignore"):
        return kernel(coords, at)


@dataclass(frozen=True)
class CandidateList:
    """The server's answer to a private query.

    Attributes
    ----------
    items:
        ``(oid, rect)`` pairs; for public targets the rects are
        degenerate (exact points), for private targets they are the
        targets' cloaked regions.  Given as a tuple of pairs or as
        :class:`CandidateColumns`, held as the latter.
    search_region:
        The extended area ``A_EXT`` whose range query produced the items.
    num_filters:
        How many filter targets were used (1, 2 or 4).
    filters:
        The filter target oids selected in step 1 of Algorithm 2.
    """

    items: Sequence[tuple[object, Rect]]
    search_region: Rect
    num_filters: int
    filters: tuple[object, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.items, CandidateColumns):
            pairs = tuple(self.items)
            columns = CandidateColumns.from_rects(
                [oid for oid, _rect in pairs], [rect for _oid, rect in pairs]
            )
            object.__setattr__(self, "items", columns)

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, oid: object) -> bool:
        return oid in self.items.ids

    def oids(self) -> list[object]:
        """The candidate object ids."""
        return list(self.items.ids)

    # ------------------------------------------------------------------
    # Client-side local evaluation
    # ------------------------------------------------------------------
    def _shortlist(self, location: Point, by: str, k: int):
        """Ascending indices of every candidate that can be among the
        ``k`` nearest, and the exact distance of an index — the key that
        ``min`` / ``sorted`` rank the shortlist by, ties in list order,
        as they ranked the items."""
        columns = self.items
        if not len(columns):
            raise ValueError("cannot refine an empty candidate list")
        if by not in _RANKINGS:
            raise ValueError(f"unknown ranking {by!r}")
        vector, scalar = _RANKINGS[by]
        values = _vector_distances(vector, columns.coords, location)
        kth = min(k, len(columns)) - 1
        shortlist = near(values, np.partition(values, kth)[kth]).tolist()
        return shortlist, lambda i: scalar(columns.rect(i), location)

    def refine_nearest(self, location: Point, by: str = "min") -> object:
        """The client's local step: evaluate the NN query exactly.

        ``location`` is the client's private exact position, which never
        left the client.  ``by`` selects the ranking distance for cloaked
        (private-data) candidates: ``"min"`` (optimistic), ``"max"``
        (pessimistic) or ``"center"``.  For public point data all three
        coincide.
        """
        shortlist, exact = self._shortlist(location, by, 1)
        return self.items.ids[min(shortlist, key=exact)]

    def refine_k_nearest(
        self, location: Point, k: int, by: str = "min"
    ) -> list[object]:
        """Local refinement of a kNN query: the k candidates nearest to
        the client's exact position, nearest first."""
        if k < 1:
            raise ValueError("k must be >= 1")
        shortlist, exact = self._shortlist(location, by, k)
        return [self.items.ids[i] for i in sorted(shortlist, key=exact)[:k]]

    def refine_within(self, location: Point, radius: float) -> list[object]:
        """Local refinement of a range query: candidates whose region
        could lie within ``radius`` of the client."""
        columns = self.items
        values = _vector_distances(min_distances, columns.coords, location)
        inside = values <= radius
        for i in near(values, radius, below=False).tolist():
            inside[i] = columns.rect(i).min_distance_to_point(location) <= radius
        return [columns.ids[i] for i in np.flatnonzero(inside).tolist()]

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def transmission_time(
        self, record_bytes: int = 64, bandwidth_mbps: float = 100.0
    ) -> float:
        """Seconds to ship this list to the client under the paper's
        Figure 17 model (64-byte records over 100 Mbps)."""
        return transmission_seconds(len(self.items), record_bytes, bandwidth_mbps)
