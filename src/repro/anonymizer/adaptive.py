"""The *adaptive* location anonymizer (Section 4.2).

Maintains an *incomplete* pyramid [Aref & Samet 1990]: only cells that
could actually serve as cloaking regions for the current user population
exist.  The maintained cells form a quadtree cut — the root always
exists, and a cell is either a *leaf* (its children are not maintained)
or fully split (all four children maintained).  The per-user hash table
points at the lowest *maintained* cell, so both location updates and
Algorithm 1 touch far fewer cells than the basic anonymizer when users
have strict privacy profiles.

The split/merge decisions and the cut-maintenance walk live in
:mod:`repro.anonymizer.policies.adaptive`; this class is its host: it
holds the cell dict, generations, mutation epoch and user records the
walk works on, and the engine's instrumented cloak.  Sharded
deployments run whole replicas of this class (see
:mod:`repro.sharding.replicated`) — the cut is shaped by global counts,
so there is no partitioned form.

The maintained cut stays a dict — it is sparse by design, so it has no
height cap — but every per-user scan (the split gate and exact check,
the merge blocker, ``users_in_rect``) runs as a numpy reduction over a
slot-indexed gate table (:class:`repro.anonymizer.soa.UserTable`)
mirroring the user records.  The per-user scalar decisions it replaced
live on in the test oracle ``tests/reference_pyramid.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.anonymizer.cache import CloakCache
from repro.anonymizer.cells import CellId
from repro.anonymizer.cloak import CloakedRegion
from repro.anonymizer.engine import PyramidEngine
from repro.anonymizer.policies.adaptive import CutCell, CutMaintainer
from repro.anonymizer.profile import PrivacyProfile
from repro.anonymizer.soa import UserTable
from repro.errors import DuplicateUserError, UnknownUserError
from repro.geometry import Point, Rect

__all__ = ["AdaptiveAnonymizer"]


@dataclass
class _UserRecord:
    profile: PrivacyProfile
    point: Point
    leaf: CellId


@dataclass(frozen=True)
class _AdaptiveSnapshot:
    """Deep copy of an :class:`AdaptiveAnonymizer`'s population state."""

    cells: dict[CellId, CutCell]
    users: dict[object, _UserRecord]


class AdaptiveAnonymizer(CutMaintainer, PyramidEngine):
    """Incomplete-pyramid location anonymizer."""

    label = "adaptive"

    def __init__(
        self,
        bounds: Rect,
        height: int = 9,
        cloak_cache_size: int = 8192,
    ) -> None:
        self._init_engine(bounds, height)
        self._cells: dict[CellId, CutCell] = {CellId(0, 0, 0): CutCell()}
        self._users: dict[object, _UserRecord] = {}
        # Generation counters outlive the cells they describe: a merged
        # (deleted) cell's count reads as 0, which is still a change the
        # cloak cache must observe, so gens live in their own dict.
        self._gens: dict[CellId, int] = {}
        self._epoch = 0
        self.cloak_cache = CloakCache(cloak_cache_size)
        # Gate table: parallel (x, y, k, A_min) arrays mirroring the
        # user records, scanned by the split/merge/rect reductions.  The
        # cell column is unused here — the incomplete pyramid tracks
        # leaves in the records themselves.
        self._table = UserTable()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_users(self) -> int:
        return len(self._users)

    @property
    def num_maintained_cells(self) -> int:
        """Size of the incomplete pyramid (the adaptive structure's
        memory footprint; the basic anonymizer's equivalent is fixed at
        ``sum(4**level)``)."""
        return len(self._cells)

    def __contains__(self, uid: object) -> bool:
        return uid in self._users

    def profile_of(self, uid: object) -> PrivacyProfile:
        return self._record(uid).profile

    def location_of(self, uid: object) -> Point:
        return self._record(uid).point

    def cell_count(self, cell: CellId) -> int:
        """Population of a *maintained* cell (0 for absent cells, which
        only occurs below the maintained cut, where the population would
        indeed require splitting to know)."""
        entry = self._cells.get(cell)
        return entry.count if entry is not None else 0

    def users_in_rect(self, rect: Rect) -> int:
        """Exact population of an arbitrary rectangle (verification aid)."""
        return self._table.count_in_rect(rect)

    def _record(self, uid: object) -> _UserRecord:
        try:
            return self._users[uid]
        except KeyError:
            raise UnknownUserError(uid) from None

    def _gen_of(self, cell: CellId) -> int:
        return self._gens.get(cell, 0)

    # ------------------------------------------------------------------
    # Registration and location updates
    # ------------------------------------------------------------------
    def register(self, uid: object, point: Point, profile: PrivacyProfile) -> None:
        if uid in self._users:
            raise DuplicateUserError(uid)
        leaf = self.leaf_for_point(point)
        self._users[uid] = _UserRecord(profile, point, leaf)
        self._table.add(uid, point.x, point.y, profile.k, profile.a_min, 0)
        self._add_to_leaf(uid, leaf)
        self.stats.registrations += 1
        self._maybe_split(leaf)

    def deregister(self, uid: object) -> None:
        record = self._record(uid)
        self._remove_from_leaf(uid, record.leaf)
        del self._users[uid]
        self._table.remove(uid)
        self.stats.deregistrations += 1
        self._maybe_merge(record.leaf)

    def set_profile(self, uid: object, profile: PrivacyProfile) -> None:
        """Change a user's profile; may reshape the pyramid around them."""
        record = self._record(uid)
        record.profile = profile
        slot = self._table.slot_of(uid)
        assert slot is not None
        self._table.ks[slot] = profile.k
        self._table.a_mins[slot] = profile.a_min
        self._maybe_split(record.leaf)
        self._maybe_merge(record.leaf)

    def update(self, uid: object, point: Point) -> int:
        """Process a location update; returns its counter-update cost."""
        record = self._record(uid)
        record.point = point
        slot = self._table.slot_of(uid)
        assert slot is not None
        self._table.xs[slot] = point.x
        self._table.ys[slot] = point.y
        self.stats.location_updates += 1
        new_leaf = self.leaf_for_point(point)
        if new_leaf == record.leaf:
            return 0
        old_leaf = record.leaf
        cost = self._move_between_leaves(uid, old_leaf, new_leaf)
        record.leaf = new_leaf
        self.stats.counter_updates += cost
        self.stats.cell_changes += 1
        self._maybe_split(new_leaf)
        self._maybe_merge(old_leaf)
        return cost

    def update_batch(self, moves: list[tuple[object, Point]]) -> list[int]:
        """Apply a tick of location updates; returns per-move costs.

        The incomplete pyramid reshapes (split/merge) after *every*
        move, so updates do not commute and the batch is applied in
        arrival order — this method exists so batch seams address both
        anonymizer kinds uniformly.
        """
        return [self.update(uid, point) for uid, point in moves]

    # ------------------------------------------------------------------
    # Cloaking
    # ------------------------------------------------------------------
    def cloak(self, uid: object) -> CloakedRegion:
        """Blur ``uid``'s location, starting Algorithm 1 from their
        lowest *maintained* cell."""
        record = self._record(uid)
        return self._cloak_cell(record.profile, record.leaf)

    def cloak_location(self, point: Point, profile: PrivacyProfile) -> CloakedRegion:
        """One-shot cloak of an arbitrary location (query anonymization)."""
        return self._cloak_cell(profile, self.leaf_for_point(point))

    def _cloak_cell(self, profile: PrivacyProfile, leaf: CellId) -> CloakedRegion:
        return self._cloak_via(
            self.cloak_cache, self.cell_count, self._gen_of, self._epoch,
            profile, leaf,
        )

    # ------------------------------------------------------------------
    # Crash recovery (snapshot/restore of incomplete pyramid + users)
    # ------------------------------------------------------------------
    def snapshot(self) -> object:
        """An opaque deep copy of the maintained cut and the user table
        for crash recovery.  Generation counters and statistics are
        excluded — they are monotone observability state."""
        return _AdaptiveSnapshot(
            cells={
                cid: CutCell(cell.count, cell.is_leaf, set(cell.users))
                for cid, cell in self._cells.items()
            },
            users={
                uid: _UserRecord(rec.profile, rec.point, rec.leaf)
                for uid, rec in self._users.items()
            },
        )

    def restore(self, state: object) -> None:
        """Replace the population state with a :meth:`snapshot` copy.

        The snapshot is copied again so it can restore repeated crashes.
        Generations stay monotone and the cloak cache is dropped — the
        maintained cut changed without generation bumps, so every cached
        entry is suspect.
        """
        if not isinstance(state, _AdaptiveSnapshot):
            raise TypeError("not an AdaptiveAnonymizer snapshot")
        self._cells = {
            cid: CutCell(cell.count, cell.is_leaf, set(cell.users))
            for cid, cell in state.cells.items()
        }
        self._users = {
            uid: _UserRecord(rec.profile, rec.point, rec.leaf)
            for uid, rec in state.users.items()
        }
        self._table.clear()
        for uid, rec in self._users.items():
            self._table.add(
                uid, rec.point.x, rec.point.y,
                rec.profile.k, rec.profile.a_min, 0,
            )
        self._epoch += 1
        self.cloak_cache.clear()

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert incomplete-pyramid consistency."""
        root = CellId(0, 0, 0)
        assert root in self._cells, "root must always be maintained"
        leaf_population = 0
        for cell, entry in self._cells.items():
            if entry.is_leaf:
                leaf_population += entry.count
                assert entry.count == len(entry.users), f"leaf {cell} count drift"
                for uid in entry.users:
                    rec = self._users[uid]
                    assert rec.leaf == cell, f"hash table stale for {uid!r}"
                    assert cell.is_ancestor_of(
                        self.grid.cell_of(rec.point)
                    ), f"user {uid!r} outside its leaf"
                # Cut property: no child of a leaf is maintained.
                if cell.level < self.height:
                    for child in cell.children():
                        assert child not in self._cells, "leaf with children"
            else:
                children = cell.children()
                assert all(c in self._cells for c in children), "partial split"
                assert entry.count == sum(
                    self._cells[c].count for c in children
                ), f"internal {cell} count != children sum"
                assert not entry.users, "internal cell holds users"
            if not cell.is_root:
                assert cell.parent() in self._cells, "orphan maintained cell"
                assert not self._cells[cell.parent()].is_leaf, "parent is leaf"
        assert leaf_population == len(self._users), "population drift"
        assert self._cells[root].count == len(self._users)
        # The gate table is a derived mirror of the records — any
        # drift would silently skew split/merge decisions.
        assert len(self._table) == len(self._users), "gate table size drift"
        for uid, rec in self._users.items():
            slot = self._table.slot_of(uid)
            assert slot is not None, f"gate table missing {uid!r}"
            # Exact equality on purpose: the table is a bit-copy of
            # the record floats; any representational difference IS
            # the drift this assert exists to catch.
            assert (
                float(self._table.xs[slot]) == rec.point.x  # casperlint: ignore[CSP004] bit-copy audit
                and float(self._table.ys[slot]) == rec.point.y  # casperlint: ignore[CSP004] bit-copy audit
                and int(self._table.ks[slot]) == rec.profile.k
                and float(self._table.a_mins[slot]) == rec.profile.a_min  # casperlint: ignore[CSP004] bit-copy audit
            ), f"gate table drift for {uid!r}"
