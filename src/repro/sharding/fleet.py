"""Facade half of the partitioned (complete-pyramid) fleet.

:class:`ShardedFleet` is everything the partitioned anonymizer needs
besides the maintenance walk: the shard cores plus the shared spine,
the per-shard cloak caches with their composite-epoch keying, and —
through :class:`~repro.sharding.surface.ShardSurface`, shared with the
other sharded deployments — the router, the uid -> home-shard
directory, occupancy and the shard-op telemetry hooks.
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
from repro.sharding.core import BasicShardCore, SpineState, cache_counters
from repro.sharding.soa import MortonSlice
from repro.sharding.surface import ShardSurface

__all__ = ["ShardedFleet"]


class ShardedFleet(ShardSurface, PyramidEngine):
    """Routing/spine glue of the partitioned anonymizer."""

    def _init_fleet(
        self, bounds: Rect, height: int, num_shards: int, cloak_cache_size: int
    ) -> None:
        self._init_engine(bounds, height)
        self._init_surface(num_shards, height)
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

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cache_stats_per_shard(self) -> dict[str, dict[str, int]]:
        """Cloak-cache traffic per shard core, keyed ``"0"``..``"N-1"``
        — the unblended numbers the ``shard_scaling`` bench and the
        ``metrics`` CLI report (plus the always-zero ``"spine"`` row of
        the report shape)."""
        return self._shard_rows(
            {core.index: cache_counters(core.cache) for core in self._cores}
        )

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
    # Epochs and generations
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
