"""Facade half of the partitioned (complete-pyramid) fleet.

:class:`ShardedFleet` is everything the partitioned anonymizer needs
besides the maintenance walk: the router, the shard cores plus the
shared spine, the uid -> home-shard directory, the per-shard cloak
caches with their composite-epoch keying, cache and occupancy
introspection, and the shard-op telemetry hooks.
:mod:`repro.sharding.basic` stays pure routing glue: it hosts the
shared maintenance mixin from :mod:`repro.anonymizer.policies.basic` by
routing each touched cell to its owning core or the spine.

The one rule that makes the composite epochs sound lives here, in
:meth:`ShardedFleet._commit`: after any maintenance primitive touching
cell set ``T``, bump the core epoch of every shard owning a touched
cell at level ``>= S``, and the boundary epoch iff any touched cell
sits at level ``<= S``.  Every primitive reduces to this rule, which is
why the mixin can drive the single pyramid and the fleet with the same
walk.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.anonymizer.cache import CloakCache
from repro.anonymizer.cells import CellId
from repro.anonymizer.cloak import CloakedRegion
from repro.anonymizer.engine import PyramidEngine
from repro.anonymizer.profile import PrivacyProfile
from repro.errors import UnknownUserError
from repro.geometry import Point, Rect
from repro.observability import runtime as _telemetry
from repro.sharding.core import (
    CACHE_KEYS,
    BasicShardCore,
    SpineState,
    cache_counters,
)
from repro.sharding.router import ShardRouter
from repro.sharding.soa import MortonSlice

__all__ = ["ShardedFleet"]


class ShardedFleet(PyramidEngine):
    """Routing/spine glue of the partitioned anonymizer."""

    def _init_fleet(
        self, bounds: Rect, height: int, num_shards: int, cloak_cache_size: int
    ) -> None:
        self._init_engine(bounds, height)
        self.router = ShardRouter(num_shards, height)
        self._spine = SpineState()
        # Counters as contiguous Morton slices over each shard's blocks
        # (the spine stays a dict: it holds at most 4**S / 3 cells, far
        # too few to be worth arrays).
        spine_level = self.router.spine_level
        self._cores: list[BasicShardCore] = []
        for index in range(num_shards):
            lo, hi = self.router.block_rank_range(index)
            self._cores.append(
                BasicShardCore(
                    index,
                    CloakCache(cloak_cache_size, shard_label=str(index)),
                    counts=MortonSlice(height, spine_level, lo, hi),
                    gens=MortonSlice(height, spine_level, lo, hi),
                )
            )
        self._directory: dict[object, int] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.router.num_shards

    @property
    def num_users(self) -> int:
        return len(self._directory)

    def __contains__(self, uid: object) -> bool:
        return uid in self._directory

    def shard_of_user(self, uid: object) -> int:
        """The shard currently homing ``uid`` (the routing seam the
        server facade exposes)."""
        try:
            return self._directory[uid]
        except KeyError:
            raise UnknownUserError(uid) from None

    def shard_occupancy(self) -> list[int]:
        """Registered users homed per shard, indexed by shard id."""
        return [len(core.users) for core in self._cores]

    def cache_stats(self) -> dict[str, int]:
        """Aggregate cloak-cache traffic across all cores."""
        return {
            key: sum(getattr(core.cache, key) for core in self._cores)
            for key in CACHE_KEYS
        }

    def cache_stats_per_shard(self) -> dict[str, dict[str, int]]:
        """Cloak-cache traffic per shard core, keyed ``"0"``..``"N-1"``
        — the unblended numbers the ``shard_scaling`` bench and the
        ``metrics`` CLI report.  The ``"spine"`` row is part of the
        report shape and always zero: every cloak starts at a
        lowest-level cell, which some core owns."""
        stats = {
            str(core.index): cache_counters(core.cache)
            for core in self._cores
        }
        stats["spine"] = dict.fromkeys(CACHE_KEYS, 0)
        return stats

    def profile_of(self, uid: object) -> PrivacyProfile:
        return self._record(uid).profile

    def location_of(self, uid: object) -> Point:
        return self._record(uid).point

    def _record(self, uid: object) -> Any:
        try:
            return self._cores[self._directory[uid]].users[uid]
        except KeyError:
            raise UnknownUserError(uid) from None

    # ------------------------------------------------------------------
    # Epochs, generations and telemetry
    # ------------------------------------------------------------------
    def _commit(self, touched: Sequence[CellId]) -> None:
        """Epoch effects of one completed maintenance primitive: bump
        each owning core's epoch for touched cells at level ``>= S``,
        and the boundary epoch iff any touched cell has level
        ``<= S`` (block roots included — every cell a cloak starting in
        another shard can read)."""
        spine_level = self.router.spine_level
        shards: set[int] = set()
        boundary = False
        for cell in touched:
            if cell.level >= spine_level:
                shards.add(self.router.shard_of(cell))
            if cell.level <= spine_level:
                boundary = True
        for shard in shards:
            self._cores[shard].epoch += 1
        if boundary:
            self._spine.boundary_epoch += 1

    def _gen_of(self, cell: CellId) -> int:
        if cell.level < self.router.spine_level:
            return self._spine.gens.get(cell, 0)
        return self._cores[self.router.shard_of(cell)].gens.get(cell, 0)

    def _notify_op(self, shard: int, op: str, *, occupancy: bool = True) -> None:
        """Record one shard operation (and, for population-changing
        ops, the resulting occupancy) when telemetry is active."""
        obs = _telemetry.active()
        if obs is not None:
            _telemetry.record_shard_op(obs, shard, op)
            if occupancy:
                _telemetry.record_shard_occupancy(obs, self.shard_occupancy())

    # ------------------------------------------------------------------
    # Cloaking
    # ------------------------------------------------------------------
    def _cloak_cell(
        self, profile: PrivacyProfile, cell: CellId, shard: int
    ) -> CloakedRegion:
        core = self._cores[shard]
        return self._cloak_via(
            core.cache, self.cell_count, self._gen_of,
            (core.epoch, self._spine.boundary_epoch), profile, cell,
            shard=shard,
        )

    def _route_of(self, region: CloakedRegion) -> str:
        settled = min(c.level for c in region.cells)
        if settled > self.router.spine_level:
            return "local"
        if settled == self.router.spine_level:
            return "boundary"
        return "spine"
