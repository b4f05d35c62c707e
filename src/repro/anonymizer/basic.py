"""The *basic* location anonymizer (Section 4.1).

Maintains a complete pyramid: every level from the root down to the
configured height holds a counter per grid cell, kept consistent under
continuous location updates.  A hash table maps each registered user to
``(profile, lowest-level cell)``.  Cloaking runs Algorithm 1 starting
from the user's lowest-level cell.

The pyramid is held as per-level flat Morton-indexed numpy arrays and
the user table as parallel arrays (:mod:`repro.anonymizer.soa`), with a
batched update kernel (:meth:`BasicAnonymizer.update_batch`) for
per-tick streams.  The per-object scalar pyramid it replaced lives on as
the test oracle ``tests/reference_pyramid.py``; the differential suite
(``tests/test_reference_equivalence.py``) asserts the two are
bit-identical on every operation, snapshot and cache epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.anonymizer.cache import CloakCache
from repro.anonymizer.cells import CellId
from repro.anonymizer.cloak import CloakedRegion
from repro.anonymizer.engine import PyramidEngine
from repro.anonymizer.profile import PrivacyProfile
from repro.anonymizer.soa import IntArray, PyramidSoA, UserTable, leaf_mortons
from repro.errors import DuplicateUserError
from repro.geometry import Point, Rect
from repro.morton import cell_of_morton, morton_of_xy

__all__ = ["BasicAnonymizer"]


@dataclass
class _UserRecord:
    profile: PrivacyProfile
    point: Point
    cell: CellId


@dataclass(frozen=True, eq=False)
class _BasicSnapshot:
    """Deep copy of a :class:`BasicAnonymizer`'s population state.

    The format is representation-independent — counts as per-level
    ``(side, side)`` arrays indexed ``[ix, iy]`` plus a user-record
    dict — so the reference pyramid and this class restore each
    other's snapshots (part of the equivalence contract).  Snapshots
    compare by value (the generated dataclass ``==`` cannot compare a
    list of arrays) and, holding mutable state, do not hash.
    """

    counts: list[IntArray]
    users: dict[object, _UserRecord]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _BasicSnapshot):
            return NotImplemented
        return (
            self.users == other.users
            and len(self.counts) == len(other.counts)
            and all(map(np.array_equal, self.counts, other.counts))
        )


class BasicAnonymizer(PyramidEngine):
    """Complete-pyramid location anonymizer.

    Parameters
    ----------
    bounds:
        The service area.
    height:
        Pyramid height ``H``; the lowest level has ``4**H`` cells.
        Capped at :data:`~repro.anonymizer.soa.MAX_SOA_HEIGHT` (the
        level arrays are complete); deeper pyramids raise
        ``ValueError`` — use the adaptive policy there.
    """

    label = "basic"

    def __init__(
        self,
        bounds: Rect,
        height: int = 9,
        cloak_cache_size: int = 8192,
    ) -> None:
        self._init_pyramid(bounds, height)
        self._epoch = 0
        self.cloak_cache = CloakCache(cloak_cache_size)

    def _init_pyramid(self, bounds: Rect, height: int) -> None:
        """The population state: grid, statistics, flat Morton-indexed
        per-level count/generation arrays (the constructor enforces the
        height cap) and the slot-indexed user table; see
        :mod:`repro.anonymizer.soa` for the layout.  Cache and epoch
        state is the host's — one of each here, one per shard in
        :class:`~repro.sharding.basic.ShardedBasicAnonymizer`."""
        self._init_engine(bounds, height)
        self._soa = PyramidSoA(height)
        self._table = UserTable()

    # ------------------------------------------------------------------
    # The mutation seam: what did this mutation touch?
    #
    # Every count write funnels through one of these four calls — once
    # per mutation or per batch, never per level — so a host that keys
    # its caches more finely than "anything changed" (the sharded
    # fleet's per-shard and boundary epochs) overrides them and inherits
    # the kernels untouched.
    # ------------------------------------------------------------------
    def _touched_chain(self, uid: object, m: int, delta: int) -> None:
        """``uid`` registered (``delta`` +1) or deregistered (-1) at
        leaf ``m``: its whole ancestor chain changed."""
        self._epoch += 1

    def _touched_move(self, uid: object, old_m: int, new_m: int) -> None:
        """``uid`` moved between two different leaves: both branches
        below their common ancestor changed."""
        self._epoch += 1

    def _touched_moves(
        self, uids: list[object], old_ms: IntArray, new_ms: IntArray
    ) -> None:
        """A batch of distinct users moved (``old_ms[i] == new_ms[i]``
        where a move stayed in its cell)."""
        self._epoch += int(np.count_nonzero(old_ms != new_ms))

    def _touched_all(self) -> None:
        """A restore rewrote counts without generation bumps: every
        cached cloak is suspect."""
        self._epoch += 1
        self.cloak_cache.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_users(self) -> int:
        return len(self._table)

    def __contains__(self, uid: object) -> bool:
        return uid in self._table

    def profile_of(self, uid: object) -> PrivacyProfile:
        """The registered privacy profile of ``uid``."""
        return self._table.profile_at(self._table.require(uid))

    def location_of(self, uid: object) -> Point:
        """The exact location of ``uid`` — known only to this trusted
        third party, never shipped to the database server."""
        return self._table.point_at(self._table.require(uid))

    def cell_count(self, cell: CellId) -> int:
        """The number of users currently inside ``cell``."""
        return self._soa.count_of(cell.level, morton_of_xy(cell.ix, cell.iy))

    def users_in_rect(self, rect: Rect) -> int:
        """Exact population of an arbitrary rectangle (one mask
        reduction over the user table)."""
        return self._table.count_in_rect(rect)

    def _record_at(self, slot: int) -> _UserRecord:
        """The table row as a record — a value copy, not live state."""
        table = self._table
        return _UserRecord(
            table.profile_at(slot),
            table.point_at(slot),
            cell_of_morton(self.height, int(table.cells[slot])),
        )

    def _record(self, uid: object) -> _UserRecord:
        return self._record_at(self._table.require(uid))

    # ------------------------------------------------------------------
    # Registration and location updates
    # ------------------------------------------------------------------
    def register(self, uid: object, point: Point, profile: PrivacyProfile) -> None:
        """Register a new user at ``point`` with the given profile."""
        if uid in self._table:
            raise DuplicateUserError(uid)
        cell = self.grid.cell_of(point)
        m = morton_of_xy(cell.ix, cell.iy)
        self._table.add(uid, point.x, point.y, profile.k, profile.a_min, m)
        self._soa.apply_chain(m, +1)
        self._touched_chain(uid, m, +1)
        self.stats.counter_updates += self.height + 1
        self.stats.registrations += 1

    def deregister(self, uid: object) -> None:
        """Remove a user entirely (quitting the service)."""
        slot = self._table.require(uid)
        m = int(self._table.cells[slot])
        self._table.remove(uid)
        self._soa.apply_chain(m, -1)
        self._touched_chain(uid, m, -1)
        self.stats.counter_updates += self.height + 1
        self.stats.deregistrations += 1

    def set_profile(self, uid: object, profile: PrivacyProfile) -> None:
        """Change a user's privacy profile (the flexibility requirement)."""
        slot = self._table.require(uid)
        self._table.ks[slot] = profile.k
        self._table.a_mins[slot] = profile.a_min

    def update(self, uid: object, point: Point) -> int:
        """Process a location update; returns the number of counter
        updates it required (the Figure 10b cost unit)."""
        slot = self._table.require(uid)
        new_cell = self.grid.cell_of(point)
        table = self._table
        table.xs[slot] = point.x
        table.ys[slot] = point.y
        self.stats.location_updates += 1
        new_m = morton_of_xy(new_cell.ix, new_cell.iy)
        old_m = int(table.cells[slot])
        if new_m == old_m:
            return 0
        cost = self._soa.move_chain(old_m, new_m)
        table.cells[slot] = new_m
        self._touched_move(uid, old_m, new_m)
        self.stats.counter_updates += cost
        self.stats.cell_changes += 1
        return cost

    def update_batch(self, moves: list[tuple[object, Point]]) -> list[int]:
        """Apply a tick's worth of location updates in one kernel pass.

        Distinct users' updates commute — counter deltas, generation
        bumps and epoch advances are all additive and no cloak
        interleaves — so the end state and the returned per-move costs
        are identical to the sequential :meth:`update` loop (the
        reference pyramid's implementation).  A batch naming the same
        user twice is order-sensitive and falls back to arrival order.

        Error semantics also match the sequential loop: on the first
        unknown uid or out-of-bounds point, every earlier move has been
        applied and the same exception is raised.
        """
        if len(moves) < 2:
            return [self.update(uid, point) for uid, point in moves]
        uids = [uid for uid, _ in moves]
        if len(set(uids)) != len(moves):
            return [self.update(uid, point) for uid, point in moves]
        old_ms, new_ms = self._table.apply_moves(moves, self.grid)
        stop = len(old_ms)
        costs = self._soa.apply_moves(old_ms, new_ms)
        self._touched_moves(uids[:stop], old_ms, new_ms)
        self.stats.add_moves(costs)
        if stop < len(moves):
            # Replay the failing move through the single-move path so the
            # exception (unknown uid before out-of-bounds, matching the
            # sequential loop) is raised with applied-prefix state.
            uid, point = moves[stop]
            self.update(uid, point)
            raise AssertionError("unreachable: single-move replay must raise")
        per_move: list[int] = costs.tolist()
        return per_move

    def _gen_of(self, cell: CellId) -> int:
        return self._soa.gen_of(cell.level, morton_of_xy(cell.ix, cell.iy))

    # ------------------------------------------------------------------
    # Cloaking
    # ------------------------------------------------------------------
    def cloak(self, uid: object) -> CloakedRegion:
        """Blur ``uid``'s current location per their privacy profile."""
        slot = self._table.require(uid)
        cell = cell_of_morton(self.height, int(self._table.cells[slot]))
        return self._cloak_cell(self._table.profile_at(slot), cell)

    def cloak_location(self, point: Point, profile: PrivacyProfile) -> CloakedRegion:
        """Blur an arbitrary location under ``profile`` without
        registering it — used for one-shot query cloaking."""
        return self._cloak_cell(profile, self.grid.cell_of(point))

    def _cloak_cell(self, profile: PrivacyProfile, cell: CellId) -> CloakedRegion:
        return self._cloak_via(
            self.cloak_cache, self.cell_count, self._gen_of, self._epoch,
            profile, cell,
        )

    # ------------------------------------------------------------------
    # Crash recovery (snapshot/restore of pyramid + user table)
    # ------------------------------------------------------------------
    def snapshot(self) -> object:
        """An opaque, immutable-by-convention copy of the anonymizer's
        state (counters + user table) for crash recovery.  Generation
        counters and statistics are deliberately excluded: they are
        monotone observability state, not population state.  The format
        is the canonical grid arrays + record dict of
        :class:`_BasicSnapshot`."""
        return _BasicSnapshot(
            counts=self._soa.counts_grid(),
            users={
                uid: self._record_at(slot) for uid, slot in self._table.items()
            },
        )

    def restore(self, state: object) -> None:
        """Replace the population state with a :meth:`snapshot` copy.

        The snapshot itself is copied again, so the same snapshot can
        restore any number of later crashes.  Generations are left
        monotone and the cloak cache is dropped wholesale — counters
        changed without generation bumps, so every cached entry is
        suspect.
        """
        if not isinstance(state, _BasicSnapshot):
            raise TypeError("not a BasicAnonymizer snapshot")
        self._soa.load_counts_grid(state.counts)
        table = self._table
        table.clear()
        for uid, rec in state.users.items():
            table.add(
                uid, rec.point.x, rec.point.y,
                rec.profile.k, rec.profile.a_min,
                morton_of_xy(rec.cell.ix, rec.cell.iy),
            )
        self._touched_all()

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert pyramid consistency; O(cells + users)."""
        # Each non-leaf counter equals the sum of its children, the
        # lowest level counts the table's cells (so the root counts the
        # registered population), and every table cell contains its
        # user's point.
        soa, table = self._soa, self._table
        soa.check_child_sums()
        assert soa.count_of(0, 0) == len(table)
        active = table.active
        leaves = table.cells[active]
        assert np.array_equal(
            soa.counts[self.height],
            np.bincount(leaves, minlength=4**self.height),
        ), "lowest-level counters inconsistent with the user table"
        assert np.array_equal(
            leaf_mortons(self.grid, table.xs[active], table.ys[active]), leaves
        ), "stale cell in the user table"
