"""The shard surface every sharded deployment exposes, stated once.

Where a user is homed, how many users each shard homes, which routing
class a cloak answer falls in and how per-shard cache traffic is
reported are the same facts for the partitioned fleet
(:class:`~repro.sharding.basic.ShardedBasicAnonymizer`), the broadcast
replica (:class:`~repro.sharding.replicated.ReplicatedShardedAnonymizer`)
and the worker-pool parent (:class:`~repro.sharding.workers
.ParallelShardedAnonymizer`); all three mix this class in.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.anonymizer.cache import CloakCache
from repro.anonymizer.cells import CellGrid
from repro.anonymizer.cloak import BatchCloaking, CloakedRegion
from repro.anonymizer.soa import IntArray, UserTable
from repro.errors import UnknownUserError
from repro.geometry import Rect
from repro.observability import runtime as _telemetry
from repro.sharding.router import ShardRouter

__all__ = ["CACHE_KEYS", "ShardSurface", "cache_counters"]

#: The counters of one ``cache_stats()`` row.
CACHE_KEYS = ("hits", "misses", "invalidations", "evictions")


def cache_counters(cache: CloakCache) -> dict[str, int]:
    """One cache's traffic counters in the ``cache_stats()`` shape."""
    return {key: getattr(cache, key) for key in CACHE_KEYS}


class ShardSurface(BatchCloaking):
    """Router, uid -> home-shard directory and per-shard reporting
    over the host's ``grid``."""

    grid: CellGrid

    def _init_surface(self, num_shards: int, height: int) -> None:
        self.router = ShardRouter(num_shards, height)
        self._directory: dict[object, int] = {}
        # Kept in step with the directory so occupancy is O(shards).
        self._occupancy = [0] * num_shards

    @property
    def bounds(self) -> Rect:
        return self.grid.bounds

    @property
    def height(self) -> int:
        return self.grid.height

    @property
    def num_shards(self) -> int:
        return self.router.num_shards

    @property
    def num_users(self) -> int:
        return len(self._directory)

    def __contains__(self, uid: object) -> bool:
        return uid in self._directory

    def cache_stats(self) -> dict[str, int]:
        """Aggregate cloak-cache traffic: the per-shard rows, summed."""
        rows = self.cache_stats_per_shard().values()
        return {key: sum(row[key] for row in rows) for key in CACHE_KEYS}

    def shard_of_user(self, uid: object) -> int:
        """The shard currently homing ``uid`` (the routing seam the
        server facade exposes)."""
        try:
            return self._directory[uid]
        except KeyError:
            raise UnknownUserError(uid) from None

    def shard_occupancy(self) -> list[int]:
        """Registered users homed per shard, indexed by shard id."""
        return list(self._occupancy)

    def _set_home(self, uid: object, shard: int) -> None:
        """Home ``uid`` in ``shard`` and record it: a ``register`` for a
        new user, a ``rehome`` for one homed elsewhere, nothing for one
        already there."""
        previous = self._directory.get(uid)
        if previous == shard:
            return
        if previous is not None:
            self._occupancy[previous] -= 1
        self._directory[uid] = shard
        self._occupancy[shard] += 1
        self._notify_op(shard, "register" if previous is None else "rehome")

    def _drop_home(self, uid: object) -> int:
        """Forget ``uid``; returns the shard that homed them."""
        shard = self._directory.pop(uid)
        self._occupancy[shard] -= 1
        return shard

    def _recount(self) -> list[int]:
        occupancy = [0] * self.num_shards
        for shard in self._directory.values():
            occupancy[shard] += 1
        return occupancy

    def _load_directory(self, directory: Mapping[object, int]) -> None:
        """Replace the whole directory (snapshot restore)."""
        self._directory = dict(directory)
        self._occupancy = self._recount()

    def _check_directory(self) -> None:
        """Assert the occupancy counters still match the directory."""
        assert self._recount() == self._occupancy, (
            "occupancy drifted from the directory"
        )

    def _check_homes(self, table: UserTable) -> None:
        """Assert the directory, its occupancy counters and the host's
        user table agree on who is registered, and that every user is
        homed where their lowest-level cell lives."""
        directory = self._directory
        assert set(table.uids()) == set(directory), "directory population drift"
        self._check_directory()
        homes = np.fromiter(
            directory.values(), dtype=np.int64, count=len(directory)
        )
        leaves = table.cells[table.slots_array(list(directory))]
        assert np.array_equal(self.router.owners_of_leaves(leaves), homes), (
            "user homed in the wrong shard"
        )

    def _notify_op(
        self, shard: int, op: str, *, occupancy: bool = True, times: int = 1
    ) -> None:
        """Record ``times`` shard operations of one kind (and, for
        population-changing ops, the resulting occupancy) when
        telemetry is active."""
        obs = _telemetry.active()
        if obs is not None:
            _telemetry.record_shard_op(obs, shard, op, times)
            if occupancy:
                _telemetry.record_shard_occupancy(obs, self._occupancy)

    def _notify_updates(self, homes: IntArray) -> list[int]:
        """Record one ``update`` per entry of ``homes`` — the home
        shards of a batch's cell-changing moves — and return the
        per-shard counts."""
        counts = np.bincount(homes, minlength=self.num_shards).tolist()
        for shard, count in enumerate(counts):
            if count:
                self._notify_op(shard, "update", occupancy=False, times=count)
        return counts

    def _route_of(self, region: CloakedRegion) -> str:
        """Routing class of a cloak answer: settled inside one shard's
        blocks, at a block root, or up in the shared spine."""
        if not region.cells:
            # Non-pyramid answer (no settled cells): one whole replica
            # served it, which is what "local" means.
            return "local"
        settled = min(c.level for c in region.cells)
        if settled > self.router.spine_level:
            return "local"
        if settled == self.router.spine_level:
            return "boundary"
        return "spine"

    def _shard_rows(
        self, own: Mapping[int, Mapping[str, int]]
    ) -> dict[str, dict[str, int]]:
        """``cache_stats_per_shard()`` in the one report shape: a row
        per shard ``"0"``..``"N-1"`` (zero where ``own`` has none) plus
        the ``"spine"`` row, which is always zero — every cloak starts
        at a lowest-level cell, which some shard owns."""
        zero = dict.fromkeys(CACHE_KEYS, 0)
        rows = {
            str(shard): dict(own.get(shard, zero))
            for shard in range(self.num_shards)
        }
        rows["spine"] = zero
        return rows
