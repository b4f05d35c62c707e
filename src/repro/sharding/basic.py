"""Sharded complete-pyramid anonymizer (basic variant).

Implements the exact :class:`~repro.anonymizer.basic.BasicAnonymizer`
interface over ``N`` shard cores and a shared spine: every pyramid
counter lives in exactly one place (the owning core for levels
``>= S``, the spine for levels ``< S``), every user record lives in the
core owning their lowest-level cell, and a directory maps each uid to
its home shard.  The spine is maintained *eagerly* — each update walks
the same cells, in the same order, with the same cost accounting as the
single-pyramid implementation — which is how the byte-for-byte cloak
equivalence across shard counts is achieved rather than approximated:
Algorithm 1 sees identical counters no matter how they are partitioned.

What sharding buys is *invalidation locality*, not fewer counter
writes: a location update confined to one shard's blocks bumps only
that shard's epoch, so every other shard keeps serving memoized cloaks
through the single-probe epoch fast path (see
:mod:`repro.sharding.core`).

This module is routing glue: the maintenance walk is the shared
:class:`~repro.anonymizer.policies.basic.CompletePyramidMaintainer`
(hooked up to route each touched cell to its owning core or the spine),
the facade is :class:`~repro.sharding.fleet.ShardedFleet`, and the
snapshot/restore and invariant bodies live in
:mod:`repro.sharding.recovery` / :mod:`repro.sharding.invariants`.
"""

from __future__ import annotations

import numpy as np

from repro.anonymizer.basic import _UserRecord
from repro.anonymizer.cells import CellId, branch_pairs
from repro.anonymizer.cloak import CloakedRegion
from repro.anonymizer.policies.basic import CompletePyramidMaintainer
from repro.anonymizer.profile import PrivacyProfile
from repro.anonymizer.soa import check_soa_height
from repro.errors import DuplicateUserError
from repro.geometry import Point, Rect
from repro.morton import morton_of_xy
from repro.observability import runtime as _telemetry
from repro.sharding import invariants, recovery
from repro.sharding.fleet import ShardedFleet
from repro.sharding.soa import scatter_confined_moves

__all__ = ["ShardedBasicAnonymizer"]


class ShardedBasicAnonymizer(ShardedFleet, CompletePyramidMaintainer):
    """Complete-pyramid anonymizer partitioned across ``num_shards``."""

    kind = "basic"
    label = "basic"

    def __init__(
        self,
        bounds: Rect,
        height: int = 9,
        num_shards: int = 1,
        cloak_cache_size: int = 8192,
    ) -> None:
        # The slices are complete arrays over the owned blocks, so the
        # fleet shares the single pyramid's height cap.
        check_soa_height(height)
        self._init_fleet(bounds, height, num_shards, cloak_cache_size)

    def users_in_rect(self, rect: Rect) -> int:
        """Exact population of an arbitrary rectangle (verification
        aid; a scan of every core's records)."""
        return sum(
            1
            for core in self._cores
            for rec in core.users.values()
            if rect.contains_point(rec.point)
        )

    # ------------------------------------------------------------------
    # Routed counter access (the maintainer's storage hook)
    # ------------------------------------------------------------------
    def cell_count(self, cell: CellId) -> int:
        """The number of users currently inside ``cell`` (routed to the
        owning core, or to the spine above the block level)."""
        if cell.level < self.router.spine_level:
            return self._spine.counts.get(cell, 0)
        return self._cores[self.router.shard_of(cell)].counts.get(cell, 0)

    def _apply_cell(self, cell: CellId, delta: int) -> None:
        if cell.level < self.router.spine_level:
            self._spine.apply(cell, delta)
        else:
            self._cores[self.router.shard_of(cell)].apply(cell, delta)

    # ------------------------------------------------------------------
    # Registration and location updates
    # ------------------------------------------------------------------
    def register(self, uid: object, point: Point, profile: PrivacyProfile) -> None:
        if uid in self._directory:
            raise DuplicateUserError(uid)
        cell = self.grid.cell_of(point)
        shard = self.router.shard_of(cell)
        self._cores[shard].users[uid] = _UserRecord(profile, point, cell)
        self._set_home(uid, shard)
        self._apply_delta(cell, +1)
        self.stats.registrations += 1

    def deregister(self, uid: object) -> None:
        record = self._record(uid)
        self._apply_delta(record.cell, -1)
        shard = self._drop_home(uid)
        del self._cores[shard].users[uid]
        self.stats.deregistrations += 1
        self._notify_op(shard, "deregister")

    def set_profile(self, uid: object, profile: PrivacyProfile) -> None:
        self._record(uid).profile = profile

    def update(self, uid: object, point: Point) -> int:
        """Process a location update; returns the number of counter
        updates it required (identical to the single-pyramid cost)."""
        record = self._record(uid)
        shard = self._directory[uid]
        new_cell = self.grid.cell_of(point)
        record.point = point
        self.stats.location_updates += 1
        if new_cell == record.cell:
            return 0
        ancestor_level = self.grid.common_ancestor_level(record.cell, new_cell)
        if not self.router.crosses_boundary(ancestor_level):
            # Confined move: both branches stay strictly below the spine
            # inside the record's level-S block, so every delta lands on
            # the home core — no per-cell shard routing, no boundary or
            # spine effects, no rehome.
            core = self._cores[shard]
            cost = 0
            for old, new in branch_pairs(record.cell, new_cell, ancestor_level):
                core.apply(old, -1)
                core.apply(new, +1)
                cost += 2
            record.cell = new_cell
            core.epoch += 1
            self._notify_op(shard, "update", occupancy=False)
        else:
            # Crossing move: per-cell routing through the shared walk;
            # the commit bumps every touched core and the boundary
            # epoch, then the user may need rehoming to another core.
            cost = self._apply_branches(record.cell, new_cell, ancestor_level)
            record.cell = new_cell
            self._notify_op(shard, "update", occupancy=False)
            new_shard = self.router.shard_of(new_cell)
            if new_shard != shard:
                del self._cores[shard].users[uid]
                self._cores[new_shard].users[uid] = record
                self._set_home(uid, new_shard)
        self.stats.counter_updates += cost
        self.stats.cell_changes += 1
        return cost

    def update_batch(self, moves: list[tuple[object, Point]]) -> list[int]:
        """Apply a tick's worth of location updates, routed per shard in
        one :meth:`~repro.sharding.router.ShardRouter.route_batch` pass.

        Per-shard groups are applied in shard order.  Distinct users'
        updates commute — counter deltas, generation bumps and epoch
        advances are all additive and no cloak interleaves — so the end
        state and the returned per-move costs are identical to the
        sequential loop.  A batch naming the same user twice is
        order-sensitive and falls back to arrival order.
        """
        if len({uid for uid, _ in moves}) != len(moves):
            return [self.update(uid, point) for uid, point in moves]
        cells = [self.grid.cell_of(point) for _, point in moves]
        if (
            len(moves) >= 2
            and _telemetry.active() is None
            and all(uid in self._directory for uid, _ in moves)
        ):
            return self._update_batch_vec(moves, cells)
        _owners, by_shard = self.router.route_batch(cells)
        costs = [0] * len(moves)
        for shard in sorted(by_shard):
            for index in by_shard[shard]:
                uid, point = moves[index]
                costs[index] = self.update(uid, point)
        return costs

    def _update_batch_vec(
        self, moves: list[tuple[object, Point]], cells: list[CellId]
    ) -> list[int]:
        """The batched-update kernel: confined moves (the common case)
        become per-level ``np.add.at`` scatters on the home core's
        Morton slices (:func:`~repro.sharding.soa.scatter_confined_moves`);
        boundary-crossing moves take the scalar routed path.  All uids
        are distinct and known, and all points are in bounds — checked
        by the caller — so deltas, gens and epochs commute and the end
        state matches the sequential loop."""
        n = len(moves)
        records = [self._record(uid) for uid, _ in moves]
        height = self.height
        spine_level = self.router.spine_level
        old_ms = np.fromiter(
            (morton_of_xy(rec.cell.ix, rec.cell.iy) for rec in records),
            dtype=np.int64, count=n,
        )
        new_ms = np.fromiter(
            (morton_of_xy(cell.ix, cell.iy) for cell in cells),
            dtype=np.int64, count=n,
        )
        diff = old_ms ^ new_ms
        _mant, exp = np.frexp(diff.astype(np.float64))
        ancestor_level = height - ((exp.astype(np.int64) + 1) >> 1)
        costs = [0] * n
        by_home: dict[int, list[int]] = {}
        for index, (uid, point) in enumerate(moves):
            if not diff[index]:
                # Same lowest-level cell: point refresh only.
                records[index].point = point
                self.stats.location_updates += 1
                continue
            if ancestor_level[index] < spine_level:
                # Boundary-crossing move: spine counters, boundary
                # epoch and possibly a rehome — the scalar path handles
                # all of it, cost accounting included.
                costs[index] = self.update(uid, point)
                continue
            by_home.setdefault(self._directory[uid], []).append(index)
        for shard in sorted(by_home):
            group = np.asarray(by_home[shard], dtype=np.int64)
            core = self._cores[shard]
            group_costs = scatter_confined_moves(
                core.counts, core.gens, old_ms[group], new_ms[group],
                ancestor_level[group], height,
            )
            for index, cost in zip(by_home[shard], group_costs.tolist()):
                uid, point = moves[index]
                record = records[index]
                record.point = point
                record.cell = cells[index]
                costs[index] = cost
            # One epoch bump per cell-changing move, as in the scalar
            # walk (advances are additive across a tick).
            core.epoch += len(group)
            self.stats.location_updates += len(group)
            self.stats.counter_updates += int(group_costs.sum())
            self.stats.cell_changes += len(group)
        return costs

    # ------------------------------------------------------------------
    # Cloaking
    # ------------------------------------------------------------------
    def cloak(self, uid: object) -> CloakedRegion:
        record = self._record(uid)
        return self._cloak_cell(record.profile, record.cell, self._directory[uid])

    def cloak_location(self, point: Point, profile: PrivacyProfile) -> CloakedRegion:
        cell = self.grid.cell_of(point)
        return self._cloak_cell(profile, cell, self.router.shard_of(cell))

    # ------------------------------------------------------------------
    # Crash recovery and diagnostics
    # ------------------------------------------------------------------
    def snapshot(self) -> object:
        """Atomic whole-fleet snapshot (all cores + spine + directory).
        Generations, epochs and statistics are excluded: monotone
        observability state, exactly as in the single-pyramid
        implementations."""
        return recovery.basic_snapshot(self)

    def restore(self, state: object) -> None:
        """Replace the whole fleet's population state with a
        :meth:`snapshot` copy (re-copied, so one snapshot serves many
        crashes).  Every epoch advances and every cache drops."""
        recovery.basic_restore(self, state)

    def snapshot_shard(self, shard: int) -> object:
        """Deep copy of one core's population state."""
        return recovery.copy_basic_core(self._cores[shard])

    def restore_shard(self, shard: int, state: object) -> list[object]:
        """Restore one crashed core from a :meth:`snapshot_shard` copy,
        reconciling it with the surviving fleet; returns the purged
        uids (see :func:`repro.sharding.recovery.basic_restore_shard`)."""
        return recovery.basic_restore_shard(self, shard, state)

    def check_invariants(self) -> None:
        """Assert fleet-wide pyramid + partition consistency."""
        invariants.check_basic_fleet(self)
