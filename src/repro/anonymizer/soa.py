"""Structure-of-arrays pyramid state (Morton-indexed, numpy-backed).

One python object per user and one ``CellId`` walk per update caps
throughput far below the paper's "millions of users" regime, so the
anonymizers keep their state as flat numpy arrays:

* :class:`PyramidSoA` — per-level flat ``int64`` arrays mapping the
  Morton (Z-order) index of a cell to its occupancy count and its
  cloak-cache generation.  Morton indexing makes every hierarchy walk a
  bit shift (``parent = m >> 2``) and keeps the four children of any
  cell contiguous (``4p .. 4p+3``), so batched ancestor-chain deltas
  are ``np.add.at`` scatters and the child-sum invariant is one
  ``reshape(-1, 4).sum(axis=1)`` per level.
* :class:`UserTable` — a contiguous slot-indexed table of every
  registered user's ``(x, y, k, A_min, lowest-level Morton cell)``, the
  "hash table" of Section 4.1 flattened into parallel arrays so
  occupancy scans and profile gates are vectorized reductions.

Everything here replicates the scalar reference pyramid
(``tests/reference_pyramid.py``) *exactly* — same truncation, same
epsilons, same cost accounting; the spec machine
(``tests/test_spec_machine.py``) runs the two as lanes, diffed
operation by operation.  See ``docs/vectorization.md`` for the layout and the
testing story.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np
import numpy.typing as npt

from repro.anonymizer.cells import CellGrid, CellId
from repro.anonymizer.profile import PrivacyProfile
from repro.errors import DuplicateUserError, UnknownUserError
from repro.geometry import EPSILON, Point, Rect
from repro.morton import morton_decode, morton_encode, morton_rank

__all__ = [
    "MAX_SOA_HEIGHT",
    "MAX_TABLE_HEIGHT",
    "Population",
    "PyramidSoA",
    "TableSnapshot",
    "UserTable",
    "check_soa_height",
    "leaf_mortons",
    "move_levels",
    "points_in_rect",
]

IntArray = npt.NDArray[np.int64]
FloatArray = npt.NDArray[np.float64]
BoolArray = npt.NDArray[np.bool_]
#: One user as ``(uid, point, profile)``.
Row = tuple[object, Point, PrivacyProfile]
#: The row: a user table's (and its snapshot's) parallel columns.
_COLUMNS = ("xs", "ys", "ks", "a_mins", "cells")

#: Deepest complete pyramid supported: level arrays are allocated
#: *complete* (``4**level`` slots), so the cap keeps the worst case
#: (level 13: ~67M cells) inside commodity memory.  The adaptive
#: policy's dict-held cut is sparse and has no such cap.
MAX_SOA_HEIGHT = 13

#: Deepest pyramid any policy supports: a :class:`UserTable` row holds
#: its lowest-level Morton code (``2 * height`` bits) in an int64.
MAX_TABLE_HEIGHT = 31


def check_soa_height(height: int) -> None:
    """Reject pyramid heights the complete per-level arrays cannot hold
    — the one check every ``basic`` deployment seam runs up front (in
    the parent process, before any worker is spawned)."""
    if not 0 <= height <= MAX_SOA_HEIGHT:
        raise ValueError(
            f"the basic policy keeps complete per-level arrays and supports "
            f"pyramid heights 0..{MAX_SOA_HEIGHT}, got {height}; use the "
            f"adaptive policy (sparse cut, heights up to {MAX_TABLE_HEIGHT}) "
            f"for deeper pyramids"
        )


# Cached per-level decode of every Morton index, for flat <-> (side,
# side) grid conversions (canonical snapshot format).  Levels are tiny
# below MAX_SOA_HEIGHT and the content is deterministic, so a plain
# module-level memo is safe.
_DECODE_CACHE: dict[int, tuple[IntArray, IntArray]] = {}


def _level_decode(level: int) -> tuple[IntArray, IntArray]:
    cached = _DECODE_CACHE.get(level)
    if cached is None:
        cached = morton_decode(np.arange(4**level, dtype=np.int64))
        _DECODE_CACHE[level] = cached
    return cached


# ----------------------------------------------------------------------
# Point location and the move rule, for a whole batch at once
#
# Each is the array statement of one scalar rule, and every host that
# handles a tick of moves — the pyramid kernels below, and through them
# the sharded fleet and the worker pool's parent — takes it from here.
# ----------------------------------------------------------------------
def points_in_rect(
    rect: Rect, xs: FloatArray, ys: FloatArray, tol: float = EPSILON
) -> BoolArray:
    """Closed-rectangle membership of many points: the array form of
    :meth:`repro.geometry.Rect.contains_point`, same default tolerance
    (so ``points_in_rect(grid.bounds, ...)`` is exactly
    :meth:`~repro.anonymizer.cells.CellGrid.contains`)."""
    return (
        (xs >= rect.x_min - tol)
        & (xs <= rect.x_max + tol)
        & (ys >= rect.y_min - tol)
        & (ys <= rect.y_max + tol)
    )


def _grid_coords(
    grid: CellGrid, xs: FloatArray, ys: FloatArray, level: int
) -> tuple[IntArray, IntArray]:
    """``(ix, iy)`` at ``level`` of many in-bounds points: the same
    truncation-then-clamp as ``CellGrid.cell_of`` (``astype`` truncates
    toward zero exactly like ``int()``)."""
    side = 1 << level
    bounds = grid.bounds
    fx = (xs - bounds.x_min) / bounds.width
    fy = (ys - bounds.y_min) / bounds.height
    ix = np.clip((fx * side).astype(np.int64), 0, side - 1)
    iy = np.clip((fy * side).astype(np.int64), 0, side - 1)
    return ix, iy


def leaf_mortons(grid: CellGrid, xs: FloatArray, ys: FloatArray) -> IntArray:
    """Morton codes of the lowest-level cells of many in-bounds points."""
    return morton_encode(*_grid_coords(grid, xs, ys, grid.height))


def move_levels(
    height: int, old_ms: IntArray, new_ms: IntArray
) -> tuple[IntArray, IntArray]:
    """``(ancestor_levels, costs)`` of many leaf-to-leaf moves.

    A move touches both branches strictly below the deepest common
    ancestor of its old and new leaf, and the highest differing bit
    pair of the XOR'd Morton codes names that ancestor's level, so the
    counter-update cost is ``2 * (height - level)`` — level ``height``
    and cost 0 for a move that stays in its cell.  ``bit_length`` via
    ``frexp`` is exact below ``2**53``; Morton codes have
    ``2 * height <= 52`` bits under :data:`MAX_SOA_HEIGHT`.
    """
    _mant, exp = np.frexp((old_ms ^ new_ms).astype(np.float64))
    levels = height - ((exp.astype(np.int64) + 1) >> 1)
    return levels, 2 * (height - levels)


# ----------------------------------------------------------------------
# The complete pyramid as flat per-level arrays
# ----------------------------------------------------------------------
class PyramidSoA:
    """Per-level flat counts and generations for a complete pyramid.

    ``counts[level][m]`` is the population of the cell with Morton
    index ``m``; ``gens`` mirrors it with the cloak-cache generation
    counters (bumped on every count change, monotone across restores).
    """

    def __init__(self, height: int) -> None:
        check_soa_height(height)
        self.height = height
        self.counts: list[IntArray] = [
            np.zeros(4**level, dtype=np.int64) for level in range(height + 1)
        ]
        self.gens: list[IntArray] = [
            np.zeros(4**level, dtype=np.int64) for level in range(height + 1)
        ]
        #: The same buffers as ``(counts, gens)`` memoryviews per level,
        #: lowest level first, for the scalar chain walks: an item of a
        #: memoryview reads and writes a python int at a third of a numpy
        #: scalar's cost.  The arrays are only ever written in place.
        self._chain = [
            (memoryview(counts), memoryview(gens))
            for counts, gens in zip(self.counts[::-1], self.gens[::-1])
        ]

    # -- scalar chain walks (single register/deregister/update) --------
    def apply_chain(self, m: int, delta: int) -> None:
        """Apply ``delta`` along the ancestor chain of leaf ``m``
        (lowest level to root), bumping every touched generation."""
        for counts, gens in self._chain:
            counts[m] += delta
            gens[m] += 1
            m >>= 2

    def move_chain(self, old_m: int, new_m: int) -> int:
        """Move one user between leaf cells ``old_m`` and ``new_m``,
        touching both branches strictly below their common ancestor;
        returns the counter-update cost (2 per touched level)."""
        cost = 0
        for counts, gens in self._chain:
            if old_m == new_m:
                break
            counts[old_m] -= 1
            counts[new_m] += 1
            gens[old_m] += 1
            gens[new_m] += 1
            cost += 2
            old_m >>= 2
            new_m >>= 2
        return cost

    # -- the batched update-tick kernel ---------------------------------
    def apply_moves(self, old_ms: IntArray, new_ms: IntArray) -> IntArray:
        """Apply a batch of *distinct-user* leaf moves in one pass.

        For every move the touched levels are exactly those strictly
        below the common ancestor of ``old`` and ``new`` — computed for
        the whole batch by :func:`move_levels`.  Counter deltas and
        generation bumps are ``np.add.at`` scatters per level, which
        commute across distinct users, so the resulting state is
        identical to the sequential scalar walk in any order.

        Returns the per-move cost array (``2 *`` touched levels; 0 for
        moves that stay in their cell).
        """
        costs = np.zeros(len(old_ms), dtype=np.int64)
        changed = old_ms != new_ms
        if not bool(changed.any()):
            return costs
        old_c = old_ms[changed]
        new_c = new_ms[changed]
        ancestor_level, costs[changed] = move_levels(self.height, old_c, new_c)
        deepest_shared = int(ancestor_level.min())
        for level in range(self.height, deepest_shared, -1):
            mask = ancestor_level < level
            shift = 2 * (self.height - level)
            old_idx = old_c[mask] >> shift
            new_idx = new_c[mask] >> shift
            counts = self.counts[level]
            gens = self.gens[level]
            np.subtract.at(counts, old_idx, 1)
            np.add.at(counts, new_idx, 1)
            np.add.at(gens, old_idx, 1)
            np.add.at(gens, new_idx, 1)
        return costs

    # -- canonical (side, side) grid conversions ------------------------
    def counts_grid(self) -> list[npt.NDArray[np.int64]]:
        """The counts as per-level ``(side, side)`` arrays indexed
        ``[ix, iy]`` — the snapshot format's (and the reference
        pyramid's) canonical layout."""
        out: list[npt.NDArray[np.int64]] = []
        for level in range(self.height + 1):
            side = 1 << level
            ix, iy = _level_decode(level)
            grid = np.zeros((side, side), dtype=np.int64)
            grid[ix, iy] = self.counts[level]
            out.append(grid)
        return out

    def load_counts_grid(self, grids: list[npt.NDArray[np.int64]]) -> None:
        """Replace the counts from canonical ``(side, side)`` arrays
        (the inverse of :meth:`counts_grid`); generations are untouched
        — they are monotone observability state."""
        if len(grids) != self.height + 1:
            raise ValueError("snapshot height mismatch")
        for level, grid in enumerate(grids):
            ix, iy = _level_decode(level)
            self.counts[level][:] = grid[ix, iy]

    # -- diagnostics ----------------------------------------------------
    def check_child_sums(self) -> None:
        """Assert every non-leaf counter equals the sum of its four
        children — contiguous in Morton order, so one reshape per
        level."""
        for level in range(self.height):
            summed = self.counts[level + 1].reshape(-1, 4).sum(axis=1)
            assert np.array_equal(self.counts[level], summed), (
                f"level {level} counters inconsistent with level {level + 1}"
            )

    def nbytes(self) -> int:
        """Resident bytes of the count/generation arrays."""
        return sum(a.nbytes for a in self.counts) + sum(
            a.nbytes for a in self.gens
        )


# ----------------------------------------------------------------------
# The user hash table as parallel arrays
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class TableSnapshot:
    """A by-value copy of a population: one ``(x, y, k, A_min, cell)``
    row per uid, in registration order.  The columns carry no slot
    layout, so the reference pyramids (which have no slots) build and
    read the same shape; two snapshots are equal when they hold the
    same rows for the same uids and, holding arrays, do not hash."""

    uids: tuple[object, ...]
    xs: FloatArray
    ys: FloatArray
    ks: IntArray
    a_mins: FloatArray
    cells: IntArray

    def _columns(self) -> tuple[list[Any], ...]:
        return tuple(getattr(self, name).tolist() for name in _COLUMNS)

    def rows(self) -> Iterator[Row]:
        """The population as ``(uid, point, profile)`` rows (the cell
        column is a function of the point)."""
        for uid, x, y, k, a_min, _cell in zip(self.uids, *self._columns()):
            yield uid, Point(x, y), PrivacyProfile(k, a_min)

    def __len__(self) -> int:
        return len(self.uids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TableSnapshot):
            return NotImplemented
        mine, theirs = (
            dict(zip(s.uids, zip(*s._columns()))) for s in (self, other)
        )
        return mine == theirs


class UserTable:
    """Slot-indexed structure-of-arrays user store — the one per-user
    structure of every policy and every deployment.

    Each registered user occupies one slot across five parallel arrays:
    exact coordinates, profile ``(k, A_min)``, and the Morton index of
    their lowest-level cell in ``grid``.  A uid -> slot dict and a
    freelist keep slot assignment O(1); arrays grow by doubling.
    Registration order is the insertion order of the uid dict.

    One admission rule, for :meth:`admit`, :meth:`move` and
    :meth:`apply_moves` alike — **locate, then write**:
    ``grid.cell_of(point)`` is the bounds check, its Morton code is the
    row's ``cells`` value, and nothing is written before it returns, so
    a refused point leaves no trace and every stored point is inside
    the service area.
    """

    _INITIAL = 64

    def __init__(self, grid: CellGrid) -> None:
        if grid.height > MAX_TABLE_HEIGHT:
            raise ValueError(
                f"the user table holds lowest-level Morton codes in an int64 "
                f"and supports pyramid heights 0..{MAX_TABLE_HEIGHT}, "
                f"got {grid.height}"
            )
        self.grid = grid
        n = self._INITIAL
        self.xs: FloatArray = np.empty(n, dtype=np.float64)
        self.ys: FloatArray = np.empty(n, dtype=np.float64)
        self.ks: IntArray = np.zeros(n, dtype=np.int64)
        self.a_mins: FloatArray = np.zeros(n, dtype=np.float64)
        self.cells: IntArray = np.zeros(n, dtype=np.int64)
        self.active: BoolArray = np.zeros(n, dtype=np.bool_)
        self._slots: dict[object, int] = {}
        self._free: list[int] = list(range(n - 1, -1, -1))

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, uid: object) -> bool:
        return uid in self._slots

    def require(self, uid: object) -> int:
        """The slot of a registered ``uid``; raises for a stranger."""
        slot = self._slots.get(uid)
        if slot is None:
            raise UnknownUserError(uid)
        return slot

    def uids(self) -> Iterator[object]:
        """Registered uids in registration order."""
        return iter(self._slots)

    def items(self) -> Iterator[tuple[object, int]]:
        """``(uid, slot)`` pairs in registration order."""
        return iter(self._slots.items())

    def ordered_slots(self) -> IntArray:
        """Every registered user's slot, in registration order (slot
        order differs once a slot has been reused)."""
        return np.fromiter(
            self._slots.values(), dtype=np.int64, count=len(self._slots)
        )

    @property
    def capacity(self) -> int:
        """Slots allocated so far (every slot handed out is below it)."""
        return len(self.xs)

    def _grow(self) -> None:
        old = len(self.xs)
        new = old * 2
        for name in (*_COLUMNS, "active"):
            arr = getattr(self, name)
            grown = np.zeros(new, dtype=arr.dtype)
            grown[:old] = arr
            setattr(self, name, grown)
        self._free.extend(range(new - 1, old - 1, -1))

    def admit(
        self, uid: object, point: Point, profile: PrivacyProfile
    ) -> tuple[int, CellId]:
        """Register ``uid`` at ``point``: a new row; returns its slot
        and the lowest-level cell the point was located in."""
        if uid in self._slots:
            raise DuplicateUserError(uid)
        cell = self.grid.cell_of(point)
        if not self._free:
            self._grow()
        slot = self._free.pop()
        self._slots[uid] = slot
        self.xs[slot] = point.x
        self.ys[slot] = point.y
        self.ks[slot] = profile.k
        self.a_mins[slot] = profile.a_min
        self.cells[slot] = morton_rank(cell)
        self.active[slot] = True
        return slot, cell

    def move(self, uid: object, point: Point) -> tuple[int, int, int, CellId]:
        """Move ``uid`` to ``point``; returns the slot, the previous
        and the new lowest-level Morton cell, and that new cell."""
        slot = self._slots.get(uid)
        if slot is None:
            raise UnknownUserError(uid)
        cell = self.grid.cell_of(point)
        old_m, new_m = int(self.cells[slot]), morton_rank(cell)
        self.xs[slot] = point.x
        self.ys[slot] = point.y
        if new_m != old_m:
            self.cells[slot] = new_m
        return slot, old_m, new_m, cell

    def set_profile(self, uid: object, profile: PrivacyProfile) -> int:
        """Change ``uid``'s ``(k, A_min)``; returns the slot."""
        slot = self.require(uid)
        self.ks[slot] = profile.k
        self.a_mins[slot] = profile.a_min
        return slot

    def remove(self, uid: object) -> int:
        """Release ``uid``'s slot; returns it (for a final read)."""
        slot = self.require(uid)
        del self._slots[uid]
        self.active[slot] = False
        self._free.append(slot)
        return slot

    def point_at(self, slot: int) -> Point:
        return Point(float(self.xs[slot]), float(self.ys[slot]))

    def profile_at(self, slot: int) -> PrivacyProfile:
        return PrivacyProfile(int(self.ks[slot]), float(self.a_mins[slot]))

    def count_in_rect(self, rect: Rect, tol: float = EPSILON) -> int:
        """Exact population of a closed rectangle — the vectorized
        ``users_in_rect`` kernel."""
        inside = self.active & points_in_rect(rect, self.xs, self.ys, tol)
        return int(np.count_nonzero(inside))

    def locate_moves(
        self, moves: list[tuple[object, Point]]
    ) -> tuple[IntArray, FloatArray, FloatArray, IntArray]:
        """Locate the longest prefix of ``moves`` that names registered
        users at points inside the service area — what a batched update
        applies before the first move the sequential loop would refuse
        (the caller replays that one for its exception) — writing
        nothing: its slots, coordinates and lowest-level Morton cells."""
        n = len(moves)
        slot_list = [self._slots.get(uid) for uid, _ in moves]
        xs = np.fromiter((p.x for _, p in moves), dtype=np.float64, count=n)
        ys = np.fromiter((p.y for _, p in moves), dtype=np.float64, count=n)
        stop = slot_list.index(None) if None in slot_list else n
        inside = points_in_rect(self.grid.bounds, xs, ys)
        if not bool(inside.all()):
            stop = min(stop, int(inside.argmin()))
        slots = np.asarray(slot_list[:stop], dtype=np.int64)
        xs, ys = xs[:stop], ys[:stop]
        return slots, xs, ys, leaf_mortons(self.grid, xs, ys)

    def apply_moves(
        self, moves: list[tuple[object, Point]]
    ) -> tuple[IntArray, IntArray]:
        """Write :meth:`locate_moves`' prefix and return those moves'
        ``(old, new)`` lowest-level Morton cells."""
        slots, xs, ys, new_ms = self.locate_moves(moves)
        old_ms = self.cells[slots]
        self.xs[slots], self.ys[slots], self.cells[slots] = xs, ys, new_ms
        return old_ms, new_ms

    def slots_array(self, uids: Sequence[object]) -> IntArray:
        """The slots of many uids as one array; raises for the first
        stranger among them."""
        slots = self._slots
        try:
            return np.fromiter(
                (slots[uid] for uid in uids), dtype=np.int64, count=len(uids)
            )
        except KeyError as exc:
            raise UnknownUserError(exc.args[0]) from None

    # -- crash recovery and diagnostics ---------------------------------
    def snapshot(self) -> TableSnapshot:
        """Copy the rows out in registration order."""
        slots = self.ordered_slots()
        return TableSnapshot(
            tuple(self._slots), *(getattr(self, name)[slots] for name in _COLUMNS)
        )

    def restore(self, rows: TableSnapshot) -> None:
        """Replace the whole population with a :meth:`snapshot` copy
        (re-copied: one snapshot serves any number of restores)."""
        n = len(rows)
        while self.capacity < n:
            self._grow()
        self._slots = dict(zip(rows.uids, range(n)))
        self._free = list(range(self.capacity - 1, n - 1, -1))
        self.active[:] = False
        self.active[:n] = True
        for name in _COLUMNS:
            getattr(self, name)[:n] = getattr(rows, name)

    def check(self) -> None:
        """Assert the one cached derived column is fresh: every row's
        cell is where its point locates."""
        active = self.active
        assert int(np.count_nonzero(active)) == len(self._slots)
        assert np.array_equal(
            leaf_mortons(self.grid, self.xs[active], self.ys[active]),
            self.cells[active],
        ), "stale cell in the user table"

    def nbytes(self) -> int:
        """Resident bytes of the parallel arrays (the dict and freelist
        are python-side overhead, reported separately by benchmarks)."""
        return int(sum(getattr(self, n).nbytes for n in (*_COLUMNS, "active")))


class Population:
    """The population reads, answered from ``self.table`` — the same
    five answers on a single policy and on every sharded deployment."""

    table: UserTable

    @property
    def num_users(self) -> int:
        return len(self.table)

    def __contains__(self, uid: object) -> bool:
        return uid in self.table

    def profile_of(self, uid: object) -> PrivacyProfile:
        """The registered privacy profile of ``uid``."""
        return self.table.profile_at(self.table.require(uid))

    def location_of(self, uid: object) -> Point:
        """The exact location of ``uid`` — known only to this trusted
        third party, never shipped to the database server."""
        return self.table.point_at(self.table.require(uid))

    def users_in_rect(self, rect: Rect) -> int:
        """Exact population of an arbitrary rectangle (one mask
        reduction over the user table)."""
        return self.table.count_in_rect(rect)
