"""Sharded incomplete-pyramid anonymizer (adaptive variant).

Replicates :class:`~repro.anonymizer.adaptive.AdaptiveAnonymizer`'s
*global* quadtree cut across ``N`` shards: cut cells at level ``>= S``
live in the core owning their block, cut cells above the block level
live in the shared spine.  The split/merge decisions are the exact
Section 4.2 predicates of the shared
:class:`~repro.anonymizer.policies.adaptive.CutMaintainer` (the same
code, not a reimplementation), driven by the same global counts, so the
maintained cut is identical for every shard count and cloaks are
byte-for-byte equal to the single-pyramid implementation.

Partition facts that make this sound:

* a cut cell at level ``>= S`` holds only users from its own block,
  hence from one shard — core user sets never mix shards;
* a *spine* leaf (cut above the block level) can cover many blocks, so
  its uid set may span shards; the set lives in the spine while each
  user's record stays in their home core (uids are opaque — no
  coordinate crosses the shard boundary through the spine);
* splitting a spine leaf at level ``S - 1`` materialises block roots
  across several shards — the one maintenance action that fans out,
  and it routes through the spine by construction.

This module is routing glue: the maintenance walk *is* the shared
:class:`~repro.anonymizer.policies.adaptive.CutMaintainer` (its storage
hooks route each cell to its owning core or the spine, and its commit
is the fleet's touched-set epoch rule), the facade is
:class:`~repro.sharding.fleet.ShardedFleet`, and the snapshot/restore
and invariant bodies live in :mod:`repro.sharding.recovery` /
:mod:`repro.sharding.invariants`.
"""

from __future__ import annotations

from repro.anonymizer.adaptive import _Cell, _UserRecord
from repro.anonymizer.cache import CloakCache
from repro.anonymizer.cells import CellId
from repro.anonymizer.cloak import CloakedRegion
from repro.anonymizer.policies.adaptive import CutMaintainer
from repro.anonymizer.profile import PrivacyProfile
from repro.anonymizer.soa import UserTable
from repro.errors import DuplicateUserError
from repro.geometry import Point, Rect
from repro.sharding import invariants, recovery
from repro.sharding.core import AdaptiveShardCore
from repro.sharding.fleet import ShardedFleet

__all__ = ["ShardedAdaptiveAnonymizer"]

_ROOT = CellId(0, 0, 0)


class ShardedAdaptiveAnonymizer(ShardedFleet, CutMaintainer):
    """Incomplete-pyramid anonymizer partitioned across ``num_shards``."""

    kind = "adaptive"
    label = "adaptive"

    def __init__(
        self,
        bounds: Rect,
        height: int = 9,
        num_shards: int = 1,
        cloak_cache_size: int = 8192,
    ) -> None:
        self._init_fleet(bounds, height, num_shards, cloak_cache_size)
        # Fleet-wide numpy gate table mirroring every core's user
        # records (uids are opaque slots; no per-shard partitioning
        # needed — split/merge decisions are global anyway).  The cut
        # itself stays dicts: maintenance walks are pointer-chasing by
        # nature, the wins are in the gate scans.
        self._table = UserTable()
        # The root is always maintained; it is a spine cell whenever a
        # spine exists at all (S > 0), else it belongs to shard 0.
        if self.router.spine_level > 0:
            self._spine.cells[_ROOT] = _Cell()
        else:
            self._cores[0].cells[_ROOT] = _Cell()

    def _make_core(self, index: int, cache: CloakCache) -> AdaptiveShardCore:
        return AdaptiveShardCore(index, cache)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def users_in_rect(self, rect: Rect) -> int:
        """Exact population of an arbitrary rectangle (verification
        aid; one gate-table mask reduction)."""
        return self._table.count_in_rect(rect)

    @property
    def num_maintained_cells(self) -> int:
        return len(self._spine.cells) + sum(
            len(core.cells) for core in self._cores
        )

    def cell_count(self, cell: CellId) -> int:
        entry = self._entry(cell)
        return entry.count if entry is not None else 0

    # ------------------------------------------------------------------
    # Routed cell access (the maintainer's storage hooks)
    # ------------------------------------------------------------------
    def _entry(self, cell: CellId) -> _Cell | None:
        if cell.level < self.router.spine_level:
            return self._spine.cells.get(cell)
        return self._cores[self.router.shard_of(cell)].cells.get(cell)

    def _entry_required(self, cell: CellId) -> _Cell:
        entry = self._entry(cell)
        if entry is None:
            raise KeyError(cell)
        return entry

    def _set_entry(self, cell: CellId, entry: _Cell) -> None:
        if cell.level < self.router.spine_level:
            self._spine.cells[cell] = entry
        else:
            self._cores[self.router.shard_of(cell)].cells[cell] = entry

    def _del_entry(self, cell: CellId) -> None:
        if cell.level < self.router.spine_level:
            del self._spine.cells[cell]
        else:
            del self._cores[self.router.shard_of(cell)].cells[cell]

    def _bump_gen(self, cell: CellId) -> None:
        if cell.level < self.router.spine_level:
            self._spine.bump_gen(cell)
        else:
            gens = self._cores[self.router.shard_of(cell)].gens
            gens[cell] = gens.get(cell, 0) + 1

    def _set_leaf(self, uid: object, leaf: CellId) -> None:
        self._cores[self._directory[uid]].users[uid].leaf = leaf

    # ------------------------------------------------------------------
    # Registration and location updates
    # ------------------------------------------------------------------
    def register(self, uid: object, point: Point, profile: PrivacyProfile) -> None:
        if uid in self._directory:
            raise DuplicateUserError(uid)
        leaf = self.leaf_for_point(point)
        home = self.router.shard_of(self.grid.cell_of(point))
        self._cores[home].users[uid] = _UserRecord(profile, point, leaf)
        self._directory[uid] = home
        self._table.add(uid, point.x, point.y, profile.k, profile.a_min, 0)
        self._add_to_leaf(uid, leaf)
        self.stats.registrations += 1
        self._notify_op(home, "register")
        self._maybe_split(leaf)

    def deregister(self, uid: object) -> None:
        record = self._record(uid)
        home = self._directory[uid]
        self._remove_from_leaf(uid, record.leaf)
        del self._cores[home].users[uid]
        del self._directory[uid]
        self._table.remove(uid)
        self.stats.deregistrations += 1
        self._notify_op(home, "deregister")
        self._maybe_merge(record.leaf)

    def set_profile(self, uid: object, profile: PrivacyProfile) -> None:
        record = self._record(uid)
        record.profile = profile
        slot = self._table.slot_of(uid)
        assert slot is not None
        self._table.ks[slot] = profile.k
        self._table.a_mins[slot] = profile.a_min
        self._maybe_split(record.leaf)
        self._maybe_merge(record.leaf)

    def update(self, uid: object, point: Point) -> int:
        """Process a location update; returns its counter-update cost
        (identical to the single-pyramid cost)."""
        return self._update_routed(uid, point, None)

    def _update_routed(
        self, uid: object, point: Point, home_hint: int | None
    ) -> int:
        record = self._record(uid)
        home = self._directory[uid]
        record.point = point
        slot = self._table.slot_of(uid)
        assert slot is not None
        self._table.xs[slot] = point.x
        self._table.ys[slot] = point.y
        self.stats.location_updates += 1
        new_leaf = self.leaf_for_point(point)
        new_home = (
            home_hint
            if home_hint is not None
            else self.router.shard_of(self.grid.cell_of(point))
        )
        self._notify_op(home, "update", occupancy=False)
        if new_leaf == record.leaf:
            # Same cut leaf (possibly a spine leaf spanning blocks); the
            # record may still need rehoming even though no count moved.
            if new_home != home:
                self._rehome(uid, record, home, new_home)
            return 0
        old_leaf = record.leaf
        cost = self._move_between_leaves(uid, old_leaf, new_leaf)
        record.leaf = new_leaf
        if new_home != home:
            self._rehome(uid, record, home, new_home)
        self.stats.counter_updates += cost
        self.stats.cell_changes += 1
        self._maybe_split(new_leaf)
        self._maybe_merge(old_leaf)
        return cost

    def update_batch(self, moves: list[tuple[object, Point]]) -> list[int]:
        """Apply a tick's worth of location updates.

        Adaptive updates do *not* commute — split/merge cascades depend
        on the interleaving — so the batch applies strictly in arrival
        order; :meth:`~repro.sharding.router.ShardRouter.route_batch`
        still resolves every move's destination shard in one memoized
        pass, replacing the per-move ``shard_of`` walk :meth:`update`
        would otherwise do, and its grouping is what the process pool
        ships one frame per shard with.
        """
        cells = [self.grid.cell_of(point) for _, point in moves]
        owners, _by_shard = self.router.route_batch(cells)
        return [
            self._update_routed(uid, point, owner)
            for (uid, point), owner in zip(moves, owners)
        ]

    def _rehome(
        self, uid: object, record: _UserRecord, home: int, new_home: int
    ) -> None:
        del self._cores[home].users[uid]
        self._cores[new_home].users[uid] = record
        self._directory[uid] = new_home
        self._notify_op(new_home, "rehome")

    # ------------------------------------------------------------------
    # Cloaking
    # ------------------------------------------------------------------
    def cloak(self, uid: object) -> CloakedRegion:
        record = self._record(uid)
        return self._cloak_cell(record.profile, record.leaf, self._directory[uid])

    def cloak_location(self, point: Point, profile: PrivacyProfile) -> CloakedRegion:
        leaf = self.leaf_for_point(point)
        shard = self.router.shard_of(self.grid.cell_of(point))
        return self._cloak_cell(profile, leaf, shard)

    # ------------------------------------------------------------------
    # Crash recovery and diagnostics
    # ------------------------------------------------------------------
    def snapshot(self) -> object:
        """Atomic whole-fleet snapshot (cut + user tables + directory)."""
        return recovery.adaptive_snapshot(self)

    def restore(self, state: object) -> None:
        """Replace the whole fleet's population state atomically."""
        recovery.adaptive_restore(self, state)

    def snapshot_shard(self, shard: int) -> object:
        """Deep copy of one core's population state."""
        return recovery.copy_adaptive_core(self._cores[shard])

    def restore_shard(self, shard: int, state: object) -> list[object]:
        """Restore one crashed core, reconciling it with the surviving
        fleet; returns the purged uids (see
        :func:`repro.sharding.recovery.adaptive_restore_shard`)."""
        return recovery.adaptive_restore_shard(self, shard, state)

    def check_invariants(self) -> None:
        """Assert incomplete-pyramid + partition consistency."""
        invariants.check_adaptive_fleet(self)
