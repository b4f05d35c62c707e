"""The sharded deployment of every policy without a native fleet.

The complete pyramid ships a purpose-built sharded deployment
(:mod:`repro.sharding.basic`) whose shards are slices of the actual
counter arrays.  Every other registered
:class:`~repro.anonymizer.policy.CloakingPolicy` — the adaptive
pyramid, whose cut is reshaped from *global* counts and therefore has
no partitioned form, the related-work baselines, or a user-registered
cloaker — runs behind ``make_sharded`` and the parallel worker runtime
through this adapter: it wraps one *whole* single-instance policy per
replica and adds the sharded surface on top
(:class:`~repro.sharding.surface.ShardSurface`: homes, occupancy,
per-shard cache stats; plus shard-count-tagged snapshots), using
broadcast replication — every worker applies every mutation, so every
replica answers every question.  A policy gains process parallelism
from nothing but its registry entry.

Shard homes are geometric (the level-``S`` block of the user's lowest
level cell, same as the fleets) so occupancy, routing and telemetry
stay meaningful even though the wrapped policy keeps no per-shard
state.  The wrapper holds no per-user state of its own: who is
registered, where and under which profile is the wrapped policy's user
table (``PyramidEngine.table``), read — never written — from here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.anonymizer.cells import CellGrid, CellId
from repro.anonymizer.cloak import CloakedRegion
from repro.anonymizer.policy import CloakingPolicy, PolicySpec
from repro.anonymizer.profile import PrivacyProfile
from repro.anonymizer.soa import UserTable
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
    """One whole-policy replica with the sharded-anonymizer surface.

    ``shard`` tags which worker this replica serves (its cloak-cache
    traffic reports under that key); ``None`` for the in-process
    deployment, which owns every shard at once.
    """

    def __init__(
        self,
        spec: PolicySpec,
        bounds: Rect,
        height: int = 9,
        num_shards: int = 1,
        cloak_cache_size: int = 8192,
        shard: int | None = None,
    ) -> None:
        self.kind = spec.name
        self.grid = CellGrid(bounds, height)
        self._init_surface(num_shards, height)
        self.shard = shard
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

    @property
    def num_maintained_cells(self) -> int:
        """Size of the wrapped policy's maintained structure;
        ``AttributeError`` for policies that keep none."""
        return self._inner.num_maintained_cells  # type: ignore[attr-defined]

    def cell_count(self, cell: CellId) -> int:
        """Population of one grid cell.  Most wrapped policies keep no
        cell index, so this falls back to a rect count."""
        counter = getattr(self._inner, "cell_count", None)
        if counter is not None:
            return counter(cell)
        return self._inner.users_in_rect(self.grid.cell_rect(cell))

    def cache_stats(self) -> dict[str, int]:
        cache = getattr(self._inner, "cloak_cache", None)
        if cache is not None:
            return cache_counters(cache)
        return dict.fromkeys(CACHE_KEYS, 0)

    def cache_stats_per_shard(self) -> dict[str, dict[str, int]]:
        """Per-shard traffic in the fleet shape (``"0"``..``"N-1"`` +
        ``"spine"``).  The single wrapped cache reports under this
        replica's worker shard; everything else is zero."""
        if self.shard is None:
            return self._shard_rows({})
        return self._shard_rows({self.shard: self.cache_stats()})

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
        home = self.shard_of_user(uid)
        # A refused point raises here, before the policy wrote anything.
        cost = self._inner.update(uid, point)
        self._notify_op(home, "update", occupancy=False)
        new_home = self.shard_of_user(uid)
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
        table, slots = self.table, self._distinct_slots(moves)
        if slots is None:
            return [self.update(uid, point) for uid, point in moves]
        homes = self.router.owners_of_leaves(table.cells[slots])
        applied = len(moves)
        try:
            costs: list[int] = self._inner.update_batch(moves)
        except CasperError:
            applied = len(table.locate_moves(moves)[0])
            raise
        finally:
            homes, slots = homes[:applied], slots[:applied]
            self._notify_updates(homes)
            new_homes = self.router.owners_of_leaves(table.cells[slots])
            for index in np.flatnonzero(new_homes != homes).tolist():
                self._rehomed(int(homes[index]), int(new_homes[index]))
        return costs

    # ------------------------------------------------------------------
    # Cloaking
    # ------------------------------------------------------------------
    def cloak(self, uid: object) -> CloakedRegion:
        shard = self.shard_of_user(uid)
        region = self._inner.cloak(uid)
        self._note_cloak(shard, region)
        return region

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
