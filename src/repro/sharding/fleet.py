"""Shared facade for sharded anonymizer fleets.

:class:`ShardedFleet` is everything a partitioned anonymizer needs that
does *not* depend on which pyramid variant it maintains: the router, the
shard cores plus the shared spine, the uid -> home-shard directory, the
per-shard/spine cloak caches with their composite-epoch keying, cache
and occupancy introspection, and the shard-op telemetry hooks.  The
variant modules (:mod:`repro.sharding.basic`,
:mod:`repro.sharding.adaptive`) stay pure routing glue: they host the
shared maintenance mixins from :mod:`repro.anonymizer.policies` by
routing each touched cell to its owning core or the spine.

The one rule that makes the composite epochs sound lives here, in
:meth:`ShardedFleet._commit`: after any maintenance primitive touching
cell set ``T``, bump the core epoch of every shard owning a touched
cell at level ``>= S``, and the boundary epoch iff any touched cell
sits at level ``<= S``.  Every primitive of both variants reduces to
this rule, which is why the mixins can drive single pyramids and fleets
with the same walk.
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
from repro.sharding.core import SpineState, cache_counters
from repro.sharding.router import ShardRouter

__all__ = ["ShardedFleet"]


class ShardedFleet(PyramidEngine):
    """Routing/spine glue shared by every sharded anonymizer."""

    def _init_fleet(
        self, bounds: Rect, height: int, num_shards: int, cloak_cache_size: int
    ) -> None:
        self._init_engine(bounds, height)
        self.router = ShardRouter(num_shards, height)
        self._spine = SpineState(
            cache=CloakCache(cloak_cache_size, shard_label="spine")
        )
        self._cores = [
            self._make_core(i, CloakCache(cloak_cache_size, shard_label=str(i)))
            for i in range(num_shards)
        ]
        self._directory: dict[object, int] = {}

    def _make_core(self, index: int, cache: CloakCache) -> Any:
        """Build shard ``index``'s state core (the router is already
        in place); each variant supplies its own core type."""
        raise NotImplementedError

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
        """Aggregate cloak-cache traffic across all cores + spine."""
        caches = [core.cache for core in self._cores] + [self._spine.cache]
        return {
            "hits": sum(c.hits for c in caches),
            "misses": sum(c.misses for c in caches),
            "invalidations": sum(c.invalidations for c in caches),
            "evictions": sum(c.evictions for c in caches),
        }

    def cache_stats_per_shard(self) -> dict[str, dict[str, int]]:
        """Cloak-cache traffic per shard core (plus the spine cache),
        keyed ``"0"``..``"N-1"`` / ``"spine"`` — the unblended numbers
        the ``shard_scaling`` bench and the ``metrics`` CLI report."""
        stats = {
            str(core.index): cache_counters(core.cache)
            for core in self._cores
        }
        stats["spine"] = cache_counters(self._spine.cache)
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
        if cell.level < self.router.spine_level:
            # Cut sits above the block level: the climb reads boundary
            # state only, so the shared spine cache serves every shard.
            cache = self._spine.cache
            epoch: tuple[int, int] = (-1, self._spine.boundary_epoch)
        else:
            core = self._cores[shard]
            cache = core.cache
            epoch = (core.epoch, self._spine.boundary_epoch)
        return self._cloak_via(
            cache, self.cell_count, self._gen_of, epoch, profile, cell,
            shard=shard,
        )

    def _route_of(self, region: CloakedRegion) -> str:
        settled = min(c.level for c in region.cells)
        if settled > self.router.spine_level:
            return "local"
        if settled == self.router.spine_level:
            return "boundary"
        return "spine"
