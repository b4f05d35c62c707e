"""An STR-packed R-tree whose nodes are arrays.

This is the "traditional location-based database server" index that the
privacy-aware query processor plugs into.  Entries are the rows of one
float64 coordinate block — :mod:`repro.geometry.block`'s, which is also
a candidate list's, held transposed as ``(4, n)`` so that each kernel
reads contiguous columns — with an insertion-sequence column, an oid
column, an ``oid -> row`` dict and the ids' wire forms (an ``S`` column
with their byte lengths and marks, decided once per stored entry)
beside it.  A Sort-Tile-Recursive pack orders the rows so that leaf
``j`` *is* rows ``[jM, (j+1)M)``; each level above is a ``(4, m)``
array of minimum bounding rectangles over ``M`` consecutive nodes of
the level below, and levels stop once one is small enough to scan
whole, so a small tree has none at all.

Queries run a level at a time: one mask or one distance kernel over the
surviving nodes of a level, whose children ``node * M + arange(M)`` are
the next level's input; a kNN search takes all the anchors of a query
through one such descent.  Writes do not touch the packed part:
``insert_many`` (``insert`` is its one-pair batch) appends rows to an
unpacked *tail* that every query also scans flat, ``remove`` blanks its
row to NaN — which no comparison admits and no bounding rectangle
(taken with ``fmin`` / ``fmax``) is widened by — and the pack runs
again, over the live rows only, once the writes since the last one pass
a fixed fraction of the live count.
Beside each level the tree keeps how many live rows each node holds:
set by the pack, counted down by a remove and around ``hidden``.

A vector distance only shortlists (see :mod:`repro.geometry.block`): the
scalar :class:`~repro.geometry.Rect` distance ranks the shortlist and
ties go to the lower sequence number, which is what makes every answer
equal the brute-force oracle's, order included.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager

import numpy as np
import numpy.typing as npt

from repro.geometry import EPSILON, Point, Rect
from repro.geometry.block import (
    Block,
    max_distances,
    min_distances,
    rect_block,
    slack,
)
from repro.spatial.index import (
    WIRE_ID_BYTES,
    Columns,
    SpatialIndex,
    WireColumns,
    _wire_arrays,
    wire_columns,
    wire_form,
)

__all__ = ["RTreeIndex"]

#: A level (or a whole index) of at most this many nodes is scanned
#: flat: below it one more numpy round costs more than the rows it skips.
_FLAT = 1024
#: Writes (appended plus blanked rows) tolerated before a repack: this
#: fraction of the live count, and at least the floor.
_CHURN = 0.125
_CHURN_FLOOR = 64

#: The box of a node over padding rows only: infinitely far.
_EMPTY = np.array(((np.inf,), (np.inf,), (-np.inf,), (-np.inf,)))

_Rows = npt.NDArray[np.intp]
_Distances = Callable[[Block, Block], Block]
_Choose = Callable[[_Rows, int], "_Rows | npt.NDArray[np.bool_]"]


def _str_order(coords: Block, cap: int) -> _Rows:
    """Sort-Tile-Recursive order of the ``(4, n)`` rows ``coords``:
    vertical slices of ``ceil(sqrt(leaves))`` leaves by center x, then
    center y within a slice, so every run of ``cap`` rows is a compact
    leaf."""
    n = coords.shape[1]
    with np.errstate(invalid="ignore"):  # an infinite strip has no center
        x, y = coords[0] + coords[2], coords[1] + coords[3]
    per_slice = math.ceil(math.sqrt(max(1, math.ceil(n / cap)))) * cap
    by_x = np.argsort(x, kind="stable")
    return by_x[np.lexsort((y[by_x], np.arange(n) // per_slice))]


def _loose(bounds: Block, slacks: int) -> Block:
    """``bounds`` plus at least ``slacks`` times their slack, in two
    array operations: 2**-47 of a normal value is 32 ulps or more, and
    the sum covers 0 and subnormals (an infinite bound stays one)."""
    loose: Block = bounds * (1.0 + slacks * 2.0**-47) + slacks * slack(0.0)
    return loose


def _bound(far: Block, k: int, held: _Rows | None = None) -> Block:
    """Per anchor (row), the least ``far`` value within which ``k`` live
    rows lie, as a column (NaN where none is): ``held`` rows behind each
    value, else one behind each real one (a blank row is NaN)."""
    if held is None:
        if far.shape[1] < k:
            return np.full((len(far), 1), np.nan)
        kth: Block = np.partition(far, k - 1, axis=1)[:, k - 1 : k]
        return kth
    order = np.argsort(far, axis=1)
    enough = np.cumsum(np.take_along_axis(held, order, 1), axis=1) >= k
    first = np.take_along_axis(far, order, 1)[np.arange(len(far)), enough.argmax(1)]
    bound: Block = np.where(enough[:, -1], first, np.nan)[:, None]
    return bound


class RTreeIndex(SpatialIndex):
    """Packed R-tree over ``(oid, Rect)`` entries.

    Parameters
    ----------
    max_entries:
        Node capacity ``M``: rows per leaf and nodes per parent.
    """

    def __init__(self, max_entries: int = 16) -> None:
        super().__init__()
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        self.max_entries = max_entries
        self._fan = np.arange(max_entries)
        self._row: dict[object, int] = {}
        self._hiding = 0  # open hidden() blocks: a repack would move their rows
        self._clear_impl()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _pack(
        self,
        oids: list[object],
        coords: Block,
        seqs: npt.NDArray[np.int64],
        wire: WireColumns,
    ) -> None:
        """Rebuild rows and levels from parallel live columns."""
        cap = self.max_entries
        live = len(oids)
        order = _str_order(coords, cap)
        # Levels stop at one of <= _FLAT nodes; rows are padded with
        # blanks to whole top-level subtrees, so every node of every
        # level has all ``cap`` children in range.
        top, height = live, 0
        while top > _FLAT:
            top, height = -(-top // cap), height + 1
        size = top * cap**height
        self._spare = max(_CHURN_FLOOR, int(_CHURN * live))
        room = size + self._spare + 1
        self._coords = np.full((4, room), np.nan)
        self._coords[:, :live] = coords[:, order]
        self._seqs = np.zeros(room, dtype=np.int64)
        self._seqs[:live] = seqs[order]
        self._wire = np.zeros(room, dtype=wire[0].dtype)
        self._wire_len = np.zeros(room, dtype=np.int32)
        self._marks = np.zeros(room, dtype=np.uint8)
        for column, values in zip((self._wire, self._wire_len, self._marks), wire):
            column[:live] = values[order]
        self._oids = np.empty(room, dtype=object)
        self._oids[:live] = np.fromiter(oids, object, live)[order]
        self._row.update(zip(self._oids[:live].tolist(), range(live)))
        self._rows = np.arange(room)
        self._levels: list[Block] = []
        self._held: list[_Rows] = []  # live rows under each node, by level
        boxes, held = self._coords[:, :size], (self._rows[:size] < live).astype(np.intp)
        for _ in range(height):
            groups = boxes.reshape(4, -1, cap)
            boxes = np.concatenate(
                (np.fmin.reduce(groups[:2], axis=2), np.fmax.reduce(groups[2:], axis=2))
            )
            boxes[:, np.isnan(boxes[0])] = _EMPTY  # padding: infinitely far
            held = held.reshape(-1, cap).sum(axis=1)
            self._levels.append(boxes)
            self._held.append(held)
        self._packed = size if height else 0
        self._n = size

    def _tally(self, row: int, change: int) -> None:
        """Count a packed row in or out of the nodes above it."""
        for depth, held in enumerate(self._held if row < self._packed else [], 1):
            held[row // self.max_entries**depth] += change

    def _live(self) -> tuple[list[object], Block, npt.NDArray[np.int64], WireColumns]:
        """The live rows' columns, in the order they were written."""
        rows = np.fromiter(self._row.values(), np.intp, len(self._row))
        wire = (self._wire[rows], self._wire_len[rows], self._marks[rows])
        return list(self._row), self._coords[:, rows], self._seqs[rows], wire

    def _wrote(self, writes: int = 1) -> None:
        self._spare -= writes
        if self._spare < 0 and not self._hiding:
            self._pack(*self._live())

    def _clear_impl(self) -> None:
        self._row.clear()
        self._pack([], np.empty((4, 0)), np.empty(0, dtype=np.int64), wire_columns(()))

    def insert_many(self, pairs: Iterable[tuple[object, Rect]]) -> None:
        """The batch in one pass: each pair blanks its oid's live row and
        takes the next sequence number, as the loop of inserts would, and
        has its row written at the tail; at most one repack follows.  A
        batch the tail has no room for, or the first batch of an empty
        tree (so a bulk load is a pack), is packed in with the live rows
        instead."""
        pairs = list(pairs)
        self._refuse_nan(rect for _oid, rect in pairs)
        forms = [wire_form(oid) for oid, _rect in pairs]  # str() may raise: before writes
        self.version += 1
        start, stop = self._n, self._n + len(pairs)
        packing = stop > self._coords.shape[1] or not self._row
        fresh: dict[object, int] = {}  # when packing: each oid's last pair, in order
        writes = len(pairs)
        for at, ((oid, rect), form) in enumerate(zip(pairs, forms)):
            live = self._row.pop(oid, None)
            if live is not None:
                self._coords[:, live] = np.nan
                self._tally(live, -1)
                writes += 1
            self._entries.pop(oid, None)
            self._seq.pop(oid, None)
            self._entries[oid] = rect
            self._assign_seq(oid)
            if packing:
                fresh.pop(oid, None)
                fresh[oid] = at
                continue
            row = start + at
            if len(form[0]) > self._wire.itemsize:
                self._wire = self._wire.astype(f"S{len(form[0])}")
            self._coords[:, row] = rect.as_tuple()
            self._seqs[row], self._oids[row], self._row[oid] = self._seq[oid], oid, row
            self._wire[row], self._wire_len[row], self._marks[row] = form
        if not packing:
            self._n = stop
            self._wrote(writes)
            return
        oids, kept = list(fresh), fresh.values()
        live_oids, live_coords, live_seqs, live_wire = self._live()
        coords = np.hstack((live_coords, rect_block([pairs[i][1] for i in kept]).T))
        seqs = np.append(live_seqs, [self._seq[oid] for oid in oids])
        wire = zip(live_wire, _wire_arrays([forms[i] for i in kept]))
        self._pack(live_oids + oids, coords, seqs, tuple(map(np.concatenate, wire)))

    def _remove_impl(self, oid: object, rect: Rect) -> None:
        row = self._row.pop(oid)
        self._coords[:, row] = np.nan
        self._tally(row, -1)
        self._wrote()

    @contextmanager
    def hidden(self, oid: object) -> Iterator[None]:
        """Blank the row of ``oid`` for the block: O(1), and the entry
        keeps its row, hence its insertion order for every later tie."""
        row = self._row[oid]
        rect, seq = self._entries.pop(oid), self._seq.pop(oid)
        self._coords[:, row] = np.nan
        self._tally(row, -1)
        self._hiding += 1
        self.version += 1  # the base class's hidden() moves it by remove / insert
        try:
            yield
        finally:
            self._hiding -= 1
            self._coords[:, row] = rect.as_tuple()
            self._tally(row, 1)
            self._entries[oid], self._seq[oid] = rect, seq
            self.version += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _descend(self, choose: _Choose) -> _Rows:
        """The rows under the nodes that ``choose(nodes, depth)`` keeps
        of each level's surviving ``nodes`` — top level first, the
        leaves' at depth 0 — and the tail after them."""
        rows = self._rows[self._packed : self._n]
        if self._levels:
            nodes = self._rows[: self._levels[-1].shape[1]]
            for depth in reversed(range(len(self._levels))):
                nodes = nodes[choose(nodes, depth)]
                nodes = (nodes[:, None] * self.max_entries + self._fan).ravel()
            rows = np.concatenate((nodes, rows))
        return rows

    def _range_rows(self, region: Rect) -> _Rows:
        """Rows whose rectangle intersects the closed ``region``."""
        # Rect.intersects, operand for operand: the tolerance is added
        # to the same side of each of its four comparisons.
        low = np.array(((region.x_min,), (region.y_min,)))
        high = np.array(((region.x_max + EPSILON,), (region.y_max + EPSILON,)))

        def hits(boxes: Block) -> _Rows:
            inside = (boxes[:2] <= high) & (low <= boxes[2:] + EPSILON)
            return np.flatnonzero(inside[0] & inside[1])

        rows = self._descend(lambda nodes, depth: hits(self._levels[depth].take(nodes, 1)))
        return rows[hits(self._coords.take(rows, axis=1))]

    def _range_impl(self, region: Rect) -> list[object]:
        rows = self._range_rows(region)
        rows = rows[np.argsort(self._seqs[rows])]  # insertion order
        ids: list[object] = self._oids[rows].tolist()
        return ids

    def range_columns(self, region: Rect) -> Columns:
        """The columns, taken out of the tree's own by row.

        The rows are ordered by one stable sort of the wire column:
        bytes in ``str`` order, then the length (ids equal up to
        trailing NULs), then the sequence number (equal text).  Ids too
        long for the wire keep only a prefix there, so ids sharing it
        are ordered by their text, in the places the sort gave them."""
        rows = self._range_rows(region)
        rows = rows[
            np.lexsort((self._seqs[rows], self._wire_len[rows], self._wire[rows]))
        ]
        if self._wire.itemsize > WIRE_ID_BYTES:  # a long id was stored
            at = np.flatnonzero(self._wire_len[rows] > WIRE_ID_BYTES)
            oids, seqs = self._oids, self._seqs
            rows[at] = sorted(rows[at], key=lambda row: (str(oids[row]), seqs[row]))
        return (
            self._oids[rows].tolist(),
            np.ascontiguousarray(self._coords.take(rows, axis=1).T),
            self._wire[rows],
            self._marks[rows],
        )

    def _shortlists(
        self, anchors: Sequence[Point], k: int, distances: _Distances
    ) -> list[npt.NDArray[np.object_]]:
        """For each of ``anchors``, the ids that can be among the ``k``
        smallest ``distances`` from it, all found in one descent.

        Each level is one ``(P, m)`` kernel: each anchor's L∞ gap
        ``max(dx, dy)`` to each surviving node, a lower bound on both
        rankings of every row under it that needs no ``hypot``.  The
        nodes an anchor is nearest by gap bound its k-th distance from
        above, tighter level by level; a node stays while some anchor's
        bound, plus slack, reaches its gap.  Each shortlist is every row
        found within the slack of the anchor's k-th vector distance."""
        at = np.array([(anchor.x, anchor.y) for anchor in anchors])
        xs, ys = at[:, :1], at[:, 1:]
        reach = np.full((len(anchors), 1), np.inf)

        def keep(nodes: _Rows, depth: int) -> npt.NDArray[np.bool_]:
            nonlocal reach
            boxes = self._levels[depth].take(nodes, axis=1)
            gaps = np.maximum(
                np.maximum(boxes[0] - xs, xs - boxes[2]),
                np.maximum(boxes[1] - ys, ys - boxes[3]),
            )
            count = min(len(nodes), k // self.max_entries + 1)  # enough when full
            if count == 1:
                nearest = gaps.argmin(axis=1)[:, None]
            else:
                nearest = np.argpartition(gaps, count - 1, axis=1)[:, :count]
            if depth:  # every row lies within its node's max-distance
                far = max_distances(boxes.take(nearest, axis=1).T, at)
                bound = _bound(far, k, self._held[depth][nodes[nearest]])
            else:  # a leaf's rows are bounded by their own distances
                rows = nodes[nearest][..., None] * self.max_entries + self._fan
                rows = rows.reshape(len(at), -1)
                bound = _bound(distances(self._coords.take(rows, axis=1).T, at), k)
            reach = np.fmin(reach, bound)
            kept: npt.NDArray[np.bool_] = (gaps <= _loose(reach, 2)).any(axis=0)
            return kept

        rows = self._descend(keep)
        found = distances(self._coords.take(rows, axis=1).T, at)
        oids = self._oids.take(rows)
        return [oids[within] for within in found <= _loose(_bound(found, k), 1)]

    def _k_best(
        self,
        points: Sequence[Point],
        k: int,
        distances: _Distances,
        exact: Callable[[Rect, Point], float],
    ) -> list[list[object]]:
        """The ``k`` entries first by the scalar ``(exact distance,
        sequence number)`` key from each of ``points``, the finite ones
        shortlisted together by the vector ``distances``."""
        sure = [point for point in points if math.isfinite(point.x + point.y)]
        shortlists = iter(self._shortlists(sure, k, distances) if sure else ())
        entries, seq = self._entries, self._seq
        best = []
        for point in points:  # beyond the kernels' error analysis, rank all
            finite = math.isfinite(point.x + point.y)
            pool = next(shortlists).tolist() if finite else entries
            best.append(
                sorted(pool, key=lambda oid: (exact(entries[oid], point), seq[oid]))[:k]
            )
        return best

    def k_nearest_each(self, points: Sequence[Point], k: int) -> list[list[object]]:
        return self._k_best(
            points, self._checked_k(k), min_distances, Rect.min_distance_to_point
        )

    def k_nearest_by_max_distance_each(
        self, points: Sequence[Point], k: int
    ) -> list[list[object]]:
        # An entry's max-distance is at least its min-distance: the gap
        # bounds both rankings from below, the node bound both from above.
        return self._k_best(
            points, self._checked_k(k), max_distances, Rect.max_distance_to_point
        )

    # ------------------------------------------------------------------
    # Diagnostics (used by structural tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert the packed form's invariants; raises AssertionError."""
        cap = self.max_entries
        assert self._row.keys() == self._entries.keys(), "row set mismatch"
        for oid, row in self._row.items():
            assert self._oids[row] == oid, "oid column stale"
            assert tuple(self._coords[:, row]) == self._entries[oid].as_tuple(), "row stale"
            assert self._seqs[row] == self._seq[oid], "sequence column stale"
            data, size, mark = wire_form(oid)
            assert (self._wire[row], self._wire_len[row], self._marks[row]) == (
                data.rstrip(b"\0"), size, mark  # S access drops trailing NULs
            ), "wire column stale"
        blank = np.isnan(self._coords).all(axis=0)
        assert blank[self._n :].all(), "row in use past the end"
        assert len(blank) - blank.sum() == len(self._row), "dead row not blanked"
        assert self._packed % cap == 0 and self._packed <= self._n <= len(blank)
        below = self._coords[:, : self._packed]
        held = (~blank[: self._packed]).astype(np.intp)
        for boxes, counts in zip(self._levels, self._held):
            assert boxes.shape[1] * cap == below.shape[1], "level size"
            parents = np.repeat(boxes, cap, axis=1)
            inside = (parents[:2] <= below[:2]) & (below[2:] <= parents[2:])
            assert (inside | np.isnan(below[:2])).all(), "MBR too small"
            held = held.reshape(-1, cap).sum(axis=1)
            assert (counts == held).all(), "live-row count stale"
            below = boxes
        assert below.shape[1] <= _FLAT, "top level too large"
