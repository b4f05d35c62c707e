"""The shard surface every sharded deployment exposes, stated once.

Who is registered (the host's one user table), where a user is homed,
how many users each shard homes and which routing class a cloak answer
falls in are the same facts for the in-process deployment
(:class:`~repro.sharding.replicated.ReplicatedShardedAnonymizer`) and
the worker-pool parent (:class:`~repro.sharding.workers
.ParallelShardedAnonymizer`, whose table and occupancy are those of the
in-process deployment it keeps); both mix this class in.
"""

from __future__ import annotations

import numpy as np

from repro.anonymizer.cache import CloakCache
from repro.anonymizer.cells import CellGrid
from repro.anonymizer.cloak import BatchCloaking, CloakedRegion
from repro.anonymizer.soa import IntArray, Population
from repro.errors import UnknownUserError
from repro.geometry import Point, Rect
from repro.observability import runtime as _telemetry
from repro.sharding.router import ShardRouter

__all__ = ["CACHE_KEYS", "ShardSurface", "cache_counters"]

#: The counters of one ``cache_stats()`` row.
CACHE_KEYS = ("hits", "misses", "invalidations", "evictions")


def cache_counters(cache: CloakCache) -> dict[str, int]:
    """One cache's traffic counters in the ``cache_stats()`` shape."""
    return {key: getattr(cache, key) for key in CACHE_KEYS}


class ShardSurface(Population, BatchCloaking):
    """Router, per-shard occupancy and per-shard telemetry over the
    host's ``grid`` and ``table``.

    A user's home shard is a function of their row — the owner of the
    level-``S`` block over ``table.cells[slot]`` — so no host keeps a
    directory.  Occupancy is ``num_shards`` counters, moved at the three
    places a home can change (:meth:`_homed`, :meth:`_rehomed`,
    :meth:`_unhomed`) and recounted from the table only after a restore.
    """

    grid: CellGrid

    def _init_surface(self, num_shards: int, height: int) -> None:
        self.router = ShardRouter(num_shards, height)
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

    def shard_of_user(self, uid: object) -> int:
        """The shard currently homing ``uid`` (the routing seam the
        server facade exposes)."""
        table = self.table
        return self.router.owner_of_leaf(int(table.cells[table.require(uid)]))

    def shard_occupancy(self) -> list[int]:
        """Registered users homed per shard, indexed by shard id."""
        return list(self._occupancy)

    def _homed(self, shard: int) -> None:
        """A user registered into ``shard``."""
        self._occupancy[shard] += 1
        self._notify_op(shard, "register")

    def _rehomed(self, previous: int, shard: int) -> None:
        """A move took a user from ``previous`` into ``shard``."""
        self._occupancy[previous] -= 1
        self._occupancy[shard] += 1
        self._notify_op(shard, "rehome")

    def _unhomed(self, shard: int) -> None:
        """A user homed in ``shard`` deregistered."""
        self._occupancy[shard] -= 1
        self._notify_op(shard, "deregister")

    def _recount(self) -> list[int]:
        """Occupancy from scratch: one ``bincount`` over the homes of
        the live rows."""
        table = self.table
        homes = self.router.owners_of_leaves(table.cells[table.active])
        counts: list[int] = np.bincount(homes, minlength=self.num_shards).tolist()
        return counts

    def _check_homes(self) -> None:
        """Assert the occupancy counters still match the table."""
        assert self._recount() == self._occupancy, (
            "occupancy drifted from the user table"
        )

    def _distinct_slots(self, moves: list[tuple[object, Point]]) -> IntArray | None:
        """The slots of a batch's users, or ``None`` for a batch naming
        a stranger or one user twice — the batches a host runs as its
        per-move loop."""
        uids = [uid for uid, _ in moves]
        if len(set(uids)) != len(uids):
            return None
        try:
            return self.table.slots_array(uids)
        except UnknownUserError:
            return None

    def _notify_op(
        self, shard: int, op: str, *, occupancy: bool = True, times: int = 1
    ) -> None:
        """Record ``times`` shard operations of one kind (and, for
        population-changing ops, the resulting occupancy) when
        telemetry is active."""
        if _telemetry.active() is not None:
            _telemetry.count("casper_shard_ops_total", shard, op, n=times)
            if occupancy:
                for home, users in enumerate(self._occupancy):
                    _telemetry.set_gauge("casper_shard_users", users, home)

    def _notify_updates(self, old: IntArray) -> None:
        """Record one ``update`` per applied move of a batch, on the
        home of its old leaf (the Morton codes ``old``), when telemetry
        is active."""
        if _telemetry.active() is None:
            return
        homes = self.router.owners_of_leaves(old)
        counts = np.bincount(homes, minlength=self.num_shards).tolist()
        for shard, count in enumerate(counts):
            if count:
                self._notify_op(shard, "update", occupancy=False, times=count)

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
