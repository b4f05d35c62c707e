"""The sharded deployment of every policy.

Every registered :class:`~repro.anonymizer.policy.CloakingPolicy` — the
complete and adaptive pyramids, the related-work baselines, a
user-registered cloaker — runs behind ``make_sharded`` and the parallel
worker runtime through this adapter: it wraps one *whole*
single-instance policy and adds the sharded surface on top
(:class:`~repro.sharding.surface.ShardSurface`: homes, occupancy and
per-shard telemetry; plus shard-count-tagged snapshots).  In process it
is the deployment; on the worker pool it is every worker's replica and
the parent's mirror.  A policy gains process parallelism from nothing
but its registry entry.

Shard homes are geometric (the level-``S`` block of the user's lowest
level cell) so occupancy, routing and telemetry stay meaningful even
though the wrapped policy keeps no per-shard state.  The wrapper holds
no per-user state of its own: who is registered, where and under which
profile is the wrapped policy's user table (``PyramidEngine.table``),
read — never written — from here.  Cloaks, costs, statistics and
cache counters are the wrapped policy's own: one cache, one epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.anonymizer.cells import CellGrid, CellId
from repro.anonymizer.cloak import CloakedRegion
from repro.anonymizer.policy import CloakingPolicy, PolicySpec
from repro.anonymizer.profile import PrivacyProfile
from repro.anonymizer.soa import IntArray, UserTable
from repro.anonymizer.stats import MaintenanceStats
from repro.errors import CasperError
from repro.geometry import Point, Rect
from repro.observability import runtime as _telemetry
from repro.sharding.surface import CACHE_KEYS, ShardSurface, cache_counters

__all__ = ["ReplicatedShardedAnonymizer"]


@dataclass(frozen=True)
class _ReplicatedSnapshot:
    policy: str
    num_shards: int
    inner: object


class ReplicatedShardedAnonymizer(ShardSurface):
    """One whole-policy replica with the sharded-anonymizer surface."""

    def __init__(
        self,
        spec: PolicySpec,
        bounds: Rect,
        height: int = 9,
        num_shards: int = 1,
        cloak_cache_size: int = 8192,
    ) -> None:
        self.kind = spec.name
        self.grid = CellGrid(bounds, height)
        self._init_surface(num_shards, height)
        self._inner: CloakingPolicy = spec.single(bounds, height, cloak_cache_size)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def table(self) -> UserTable:
        return self._inner.table

    @property
    def stats(self) -> MaintenanceStats:
        return self._inner.stats

    def cell_count(self, cell: CellId) -> int:
        """Population of one grid cell.  Most wrapped policies keep no
        cell index, so this falls back to a rect count."""
        counter = getattr(self._inner, "cell_count", None)
        if counter is not None:
            return counter(cell)
        return self._inner.users_in_rect(self.grid.cell_rect(cell))

    def cache_stats(self) -> dict[str, int]:
        """The wrapped policy's cloak-cache counters (zeros for a
        policy that keeps no cache)."""
        cache = getattr(self._inner, "cloak_cache", None)
        if cache is not None:
            return cache_counters(cache)
        return dict.fromkeys(CACHE_KEYS, 0)

    def _home_of(self, point: Point) -> int:
        return self.router.shard_of(self.grid.cell_of(point))

    # ------------------------------------------------------------------
    # Population maintenance
    # ------------------------------------------------------------------
    def register(self, uid: object, point: Point, profile: PrivacyProfile) -> None:
        self._inner.register(uid, point, profile)
        self._homed(self.shard_of_user(uid))

    def deregister(self, uid: object) -> None:
        home = self.shard_of_user(uid)
        self._inner.deregister(uid)
        self._unhomed(home)

    def set_profile(self, uid: object, profile: PrivacyProfile) -> None:
        self._inner.set_profile(uid, profile)

    def update(self, uid: object, point: Point) -> int:
        table = self.table
        slot = table.require(uid)
        old = table.cells.item(slot)
        # A refused point raises here, before the policy wrote anything.
        cost = self._inner.update(uid, point)
        router, new = self.router, table.cells.item(slot)
        if _telemetry.active() is not None:
            self._notify_op(router.owner_of_leaf(old), "update", occupancy=False)
        if (old ^ new) >> router.leaf_shift:
            home, new_home = router.owner_of_leaf(old), router.owner_of_leaf(new)
            if new_home != home:
                self._rehomed(home, new_home)
        return cost

    def update_batch(self, moves: list[tuple[object, Point]]) -> list[int]:
        """The wrapped policy's ``update_batch``, with homes, occupancy
        and shard telemetry derived from the rows before and after it:
        one ``update`` on each applied move's old home, one rehome per
        move whose home changed.  Costs, end state and, on the first
        refused point, the exception and the applied prefix are the
        :meth:`update` loop's.  A batch naming a stranger or one user
        twice runs that loop (its net re-homes would differ)."""
        slots = self._distinct_slots(moves)
        if slots is None:
            return [self.update(uid, point) for uid, point in moves]
        return self._update_distinct(moves, slots)

    def _update_distinct(
        self, moves: list[tuple[object, Point]], slots: IntArray
    ) -> list[int]:
        """:meth:`update_batch` of a batch of distinct registered users
        whose rows are ``slots`` (the worker-pool parent resolves them
        once for itself and its mirror)."""
        table = self.table
        old = table.cells[slots]
        applied = len(moves)
        try:
            costs: list[int] = self._inner.update_batch(moves)
        except CasperError:
            applied = len(table.locate_moves(moves)[0])
            raise
        finally:
            old, new = old[:applied], table.cells[slots[:applied]]
            router = self.router
            self._notify_updates(old)
            crossing = np.flatnonzero((old ^ new) >> router.leaf_shift)
            homes = router.owners_of_leaves(old[crossing]).tolist()
            new_homes = router.owners_of_leaves(new[crossing]).tolist()
            for home, new_home in zip(homes, new_homes):
                if home != new_home:
                    self._rehomed(home, new_home)
        return costs

    # ------------------------------------------------------------------
    # Cloaking
    # ------------------------------------------------------------------
    def cloak(self, uid: object) -> CloakedRegion:
        region = self._inner.cloak(uid)
        if _telemetry.active() is not None:
            self._note_cloak(self.shard_of_user(uid), region)
        return region

    def cloak_many(
        self, uids: Iterable[object], unsatisfiable: CloakedRegion | None = None
    ) -> list[CloakedRegion]:
        """The wrapped policy's own ``cloak_many`` (the complete
        pyramid's batch kernel), then, under telemetry, one routing
        record per served cloak on its user's home shard.  Under
        telemetry without a stand-in it is the loop of :meth:`cloak`
        (the batch's contract), which records a batch that raises."""
        if _telemetry.active() is None:
            return self._inner.cloak_many(uids, unsatisfiable)
        if unsatisfiable is None:
            return super().cloak_many(uids)
        uids = list(uids)
        regions = self._inner.cloak_many(uids, unsatisfiable)
        table = self.table
        cells = table.cells[table.slots_array(uids)]
        homes = self.router.owners_of_leaves(cells).tolist()
        for home, region in zip(homes, regions):
            if region is not unsatisfiable:
                self._note_cloak(home, region)
        return regions

    def cloak_location(self, point: Point, profile: PrivacyProfile) -> CloakedRegion:
        shard = self._home_of(point)
        region = self._inner.cloak_location(point, profile)
        self._note_cloak(shard, region)
        return region

    def _note_cloak(self, shard: int, region: CloakedRegion) -> None:
        if _telemetry.active() is not None:
            _telemetry.count(
                "casper_shard_cloaks_total", shard, self._route_of(region)
            )

    # ------------------------------------------------------------------
    # Crash recovery and diagnostics
    # ------------------------------------------------------------------
    def snapshot(self) -> object:
        return _ReplicatedSnapshot(
            self.kind, self.num_shards, self._inner.snapshot()
        )

    def restore(self, state: object) -> None:
        if (
            not isinstance(state, _ReplicatedSnapshot)
            or state.policy != self.kind
        ):
            raise TypeError("not a ReplicatedShardedAnonymizer snapshot")
        if state.num_shards != self.num_shards:
            # A fleet's snapshot restores into a fleet of its own shape.
            raise ValueError("snapshot shard count mismatch")
        self._inner.restore(state.inner)
        self._occupancy = self._recount()

    def check_invariants(self) -> None:
        self._inner.check_invariants()
        self._check_homes()
