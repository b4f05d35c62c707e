"""The ``SpatialIndex`` contract shared by every index implementation.

The privacy-aware query processor (Section 5) is explicitly independent of
the underlying nearest-neighbor and range algorithms — "it can be employed
using R-tree or any other methods".  We honour that by programming the
processor against this abstract interface and providing two concrete
implementations: the R-tree that serves queries and the brute-force
reference every test holds it to.

Indexed entries are ``(oid, Rect)`` pairs.  Point data (public targets)
is stored as degenerate rectangles, so public and private (cloaked)
targets flow through the identical machinery.

An id travels to the client as ``str(oid)`` in UTF-8 (the candidate
record's 24-byte field), and a candidate list is in that order.
:func:`wire_columns` decides an id's wire form once: bytes that sort
like the text, and a mark for an id the record cannot carry.
"""

from __future__ import annotations

import abc
import heapq
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager

import numpy as np
import numpy.typing as npt

from repro.errors import EmptyDatasetError
from repro.geometry import Point, Rect
from repro.geometry.block import Block, rect_block

__all__ = [
    "SpatialIndex", "WIRE_ID_BYTES", "refuse", "wire_columns", "wire_form"
]

#: The longest id, in UTF-8 bytes, that a candidate record carries.
WIRE_ID_BYTES = 24
#: Why an id cannot go on the wire, in the order an encoder meets the
#: faults (the worst mark of a list names the id it refuses): it ends
#: in NUL, which the NUL-padded field would drop; it is longer than
#: the field; it has no UTF-8 encoding (a lone surrogate).
WIRE_OK, WIRE_NUL_END, WIRE_TOO_LONG, WIRE_NOT_UTF8 = range(4)

#: ``(wire, lengths, marks)`` of some ids (:func:`wire_columns`).
WireColumns = tuple[npt.NDArray[np.bytes_], npt.NDArray[np.int32], npt.NDArray[np.uint8]]
#: ``(ids, coords, wire, marks)``: the columns of a candidate list.
Columns = tuple[list[object], Block, npt.NDArray[np.bytes_], npt.NDArray[np.uint8]]


def wire_form(oid: object) -> tuple[bytes, int, int]:
    """``str(oid)`` in UTF-8, its length, and why a record cannot carry
    it, if so.

    The bytes are ``surrogatepass`` UTF-8, which keeps code-point order:
    they sort exactly as the text does, a lone surrogate included.  Only
    their first ``WIRE_ID_BYTES + 1`` are kept — enough to order any id
    against one the record can carry; ids longer than that tie on them
    and are refused anyway."""
    text = str(oid)
    data = text.encode("utf-8", "surrogatepass")
    size, kept = len(data), data[: WIRE_ID_BYTES + 1]
    if not data.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            return kept, size, WIRE_NOT_UTF8
    if size > WIRE_ID_BYTES:
        return kept, size, WIRE_TOO_LONG
    return data, size, WIRE_NUL_END if data.endswith(b"\0") else WIRE_OK


def wire_columns(ids: Sequence[object]) -> WireColumns:
    """The wire forms of ``ids``, their byte lengths and their marks.

    The forms are one ``S`` column as wide as the longest (at most
    ``WIRE_ID_BYTES + 1``).  An ``S`` comparison ignores trailing NULs,
    so ``'a'`` and ``'a\\x00'`` tie there; the lengths tell them apart."""
    return _wire_arrays([wire_form(oid) for oid in ids])


def _wire_arrays(forms: Sequence[tuple[bytes, int, int]]) -> WireColumns:
    """:func:`wire_columns` from the ids' :func:`wire_form` tuples."""
    data = [form[0] for form in forms]
    width = max(map(len, data), default=0) or 1
    return (
        np.array(data, dtype=f"S{width}"),
        np.fromiter((form[1] for form in forms), np.int32, len(forms)),
        np.fromiter((form[2] for form in forms), np.uint8, len(forms)),
    )


def refuse(ids: Sequence[object], marks: npt.NDArray[np.uint8]) -> None:
    """Raise for the first of ``ids`` with the worst of their ``marks``
    — the error a per-id encoder meets first — if any is marked."""
    if not marks.any():
        return
    worst = marks.max()
    oid = ids[int(np.argmax(marks == worst))]
    if worst == WIRE_NOT_UTF8:
        str(oid).encode()  # raises the codec's own UnicodeEncodeError
    if worst == WIRE_TOO_LONG:
        raise ValueError(f"object id too long for the wire format: {oid!r}")
    raise ValueError(f"object id ends in NUL, which the wire format drops: {oid!r}")


class SpatialIndex(abc.ABC):
    """Abstract dynamic spatial index over ``(oid, Rect)`` entries.

    Implementations must keep :attr:`_entries` (oid -> Rect) up to date;
    the base class supplies bookkeeping, validation, and the linear
    scans of the brute-force oracle, which the R-tree overrides.

    Tie-breaking contract: whenever two entries are at exactly the same
    distance from a query point, every query ranks them by *insertion
    order* (tracked in :attr:`_seq`; re-inserting an oid assigns a fresh
    sequence number).  The brute-force oracle gets this for free from
    dict iteration order; the R-tree implements it explicitly, which is
    what makes its answers byte-identical to the oracle's even under
    coincident coordinates.

    :attr:`version` moves on every write (``insert_many``, ``remove``,
    ``clear``, and on entering and leaving ``hidden``), so a reader can
    keep work derived from the contents for as long as it reads the
    version it built that work at.
    """

    def __init__(self) -> None:
        self._entries: dict[object, Rect] = {}
        self._seq: dict[object, int] = {}
        self._next_seq = 0
        self.version = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, oid: object, rect: Rect) -> None:
        """Add an entry; replaces any existing entry with the same oid."""
        self.insert_many(((oid, rect),))

    def insert_many(self, pairs: Iterable[tuple[object, Rect]]) -> None:
        """Insert each ``(oid, rect)`` pair in turn — one fresh sequence
        number per pair, so an oid named twice ends as its last pair —
        after refusing the whole batch for a NaN bound anywhere.  This
        loop is the brute-force oracle's; the R-tree writes at once."""
        pairs = list(pairs)
        self._refuse_nan(rect for _oid, rect in pairs)
        self.version += 1
        for oid, rect in pairs:
            if oid in self._entries:
                self.remove(oid)
            self._entries[oid] = rect
            self._assign_seq(oid)

    @staticmethod
    def _refuse_nan(rects: Iterable[Rect]) -> None:
        """Raise for a rect with a NaN bound, before anything is stored:
        no comparison orders it, and the R-tree marks a blank row with
        NaN.  Infinite bounds are legal, hence comparisons, not a sum."""
        for rect in rects:
            if not (rect.x_min <= rect.x_max and rect.y_min <= rect.y_max):
                raise ValueError(f"rect with a NaN bound: {rect}")

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
        self.version += 1
        self._remove_impl(oid, rect)

    def bulk_load(self, entries: dict[object, Rect]) -> None:
        """Replace the index contents with ``entries``, one batch insert
        (which the R-tree packs with Sort-Tile-Recursive in one pass)."""
        self._refuse_nan(entries.values())
        self.clear()
        self.insert_many(entries.items())

    def clear(self) -> None:
        """Drop all entries."""
        self._entries.clear()
        self._seq.clear()
        self.version += 1
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

    def range_columns(self, region: Rect) -> Columns:
        """:meth:`range_search` as the columns of a candidate list.

        They are the oids in ``str(oid)`` order (equal text by insertion
        order), the ``(n, 4)`` block of their rectangles, and their wire
        forms and marks (:func:`wire_columns`).  An index that keeps
        these columns per entry overrides this to take them by row.
        """
        seq = self._seq
        ids = sorted(self.range_search(region), key=lambda oid: (str(oid), seq[oid]))
        wire, _lengths, marks = wire_columns(ids)
        return ids, rect_block([self._entries[oid] for oid in ids]), wire, marks

    def nearest(self, point: Point) -> object:
        """The oid minimising min-distance from ``point`` to its rect.

        Ties go to the earliest-inserted entry, as in every query;
        raises :class:`EmptyDatasetError` when the index is empty.
        """
        return self.k_nearest(point, 1)[0]

    def _checked_k(self, k: int) -> int:
        """``k`` clamped to the entry count, for a kNN query that has one."""
        if not self._entries:
            raise EmptyDatasetError("spatial index is empty")
        if k <= 0:
            raise ValueError("k must be positive")
        return min(k, len(self._entries))

    def k_nearest(self, point: Point, k: int) -> list[object]:
        """The ``k`` entries with smallest min-distance, nearest first."""
        return self.k_nearest_each((point,), k)[0]

    def k_nearest_each(self, points: Sequence[Point], k: int) -> list[list[object]]:
        """:meth:`k_nearest` from each of ``points`` (a query's anchors):
        the default searches once per point, the R-tree once for all."""
        k = self._checked_k(k)
        return [self._scan(point, k, Rect.min_distance_to_point) for point in points]

    def k_nearest_by_max_distance(self, point: Point, k: int) -> list[object]:
        """The ``k`` entries with smallest *max*-distance, best first.

        The k-th element's max-distance is the pessimistic kNN bound
        :math:`d_v^k` used by private kNN queries over private data: k
        targets are guaranteed within that distance of ``point`` no
        matter where inside their cloaks they really are.
        """
        return self.k_nearest_by_max_distance_each((point,), k)[0]

    def k_nearest_by_max_distance_each(
        self, points: Sequence[Point], k: int
    ) -> list[list[object]]:
        """:meth:`k_nearest_by_max_distance` from each of ``points``."""
        k = self._checked_k(k)
        return [self._scan(point, k, Rect.max_distance_to_point) for point in points]

    def _scan(
        self, point: Point, k: int, distance: Callable[[Rect, Point], float]
    ) -> list[object]:
        """The default kNN, a heap over every entry by ``(distance,
        insertion order)``: the ranking every index must match."""
        scored = heapq.nsmallest(
            k,
            self._entries.items(),
            key=lambda item: (distance(item[1], point), self._seq[item[0]]),
        )
        return [oid for oid, _rect in scored]

    # ------------------------------------------------------------------
    # Implementation hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _remove_impl(self, oid: object, rect: Rect) -> None: ...

    @abc.abstractmethod
    def _clear_impl(self) -> None: ...

    @abc.abstractmethod
    def _range_impl(self, region: Rect) -> list[object]: ...
