"""Sharded complete-pyramid anonymizer (basic variant).

A shard of a Morton-ordered array is a slice.  The router deals the
level-``S`` blocks to shards in contiguous Morton-rank runs, so shard
``i``'s part of level ``S + d`` is the view
``counts[S + d][lo << 2d : hi << 2d]`` of the *one* complete pyramid,
and a lowest-level cell's owner is ``owner_by_rank[m >> 2(H - S)]``.
:class:`ShardedBasicAnonymizer` is therefore
:class:`~repro.anonymizer.basic.BasicAnonymizer` — its arrays, user
table, update kernels and Algorithm 1, inherited, which is why cloaks,
costs and statistics are byte-for-byte the single pyramid's at any
shard count — plus only what sharding *means*: per-shard occupancy
(:class:`~repro.sharding.surface.ShardSurface`; a user's home is the
owner of their row's cell), one cloak cache and one epoch per shard,
and the partition audits.  A crash restores the whole fleet: one
process has no smaller unit that can fail.

What sharding buys is *invalidation locality*.  Cache-invalidation
state is two-tier:

* each shard has a **shard epoch**, bumped whenever a count it owns
  (level ``>= S`` inside its blocks) changes;
* the fleet has a **boundary epoch**, bumped whenever a count at level
  ``<= S`` changes (spine cells *and* block roots — every cell a cloak
  starting in one shard can read outside that shard).

A cloak served from shard ``i`` is cached under the composite epoch
``(shard_epoch[i], boundary_epoch)``: an unchanged composite proves
every cell the cloak read is unchanged, so a move confined to another
shard's blocks never evicts shard ``i``'s single-probe fast path — the
effect the ``shard_scaling`` benchmark measures.  Which epochs a
mutation bumps is arithmetic on Morton codes (the ``_touched_*``
overrides below); ``tests/reference_pyramid.py`` keeps the cell-set
statement of the rule as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.anonymizer.basic import BasicAnonymizer
from repro.anonymizer.cache import CloakCache, Epoch
from repro.anonymizer.soa import IntArray
from repro.geometry import Rect
from repro.sharding.surface import ShardSurface, cache_counters

__all__ = ["ShardedBasicAnonymizer"]


@dataclass(frozen=True)
class _FleetSnapshot:
    """Atomic copy of the whole fleet, taken in one call so no
    cross-shard move can straddle it."""

    num_shards: int
    pyramid: object


class ShardedBasicAnonymizer(ShardSurface, BasicAnonymizer):
    """Complete-pyramid anonymizer partitioned across ``num_shards``."""

    kind = "basic"

    def __init__(
        self,
        bounds: Rect,
        height: int = 9,
        num_shards: int = 1,
        cloak_cache_size: int = 8192,
    ) -> None:
        self._init_pyramid(bounds, height)
        self._init_surface(num_shards, height)
        self._caches = [
            CloakCache(cloak_cache_size, shard_label=str(shard))
            for shard in range(num_shards)
        ]
        self._shard_epochs = [0] * num_shards
        self._boundary_epoch = 0

    def cache_stats_per_shard(self) -> dict[str, dict[str, int]]:
        """Cloak-cache traffic per shard, keyed ``"0"``..``"N-1"`` — the
        unblended numbers the ``shard_scaling`` bench and the
        ``metrics`` CLI report (plus the always-zero ``"spine"`` row of
        the report shape)."""
        return self._shard_rows(
            {
                shard: cache_counters(cache)
                for shard, cache in enumerate(self._caches)
            }
        )

    # ------------------------------------------------------------------
    # The composite-epoch rule (the engine's mutation seam)
    # ------------------------------------------------------------------
    def _touched_chain(self, m: int, delta: int) -> None:
        # A whole chain: the owner's cells below the block root, the
        # block root and the spine.
        shard = self.router.owner_of_leaf(m)
        self._shard_epochs[shard] += 1
        self._boundary_epoch += 1
        if delta > 0:
            self._homed(shard)
        else:
            self._unhomed(shard)

    def _touched_move(self, old_m: int, new_m: int) -> None:
        router = self.router
        home = router.owner_of_leaf(old_m)
        self._shard_epochs[home] += 1
        self._notify_op(home, "update", occupancy=False)
        if (old_m ^ new_m) >> router.leaf_shift:
            # The move left its level-S block: both block roots and the
            # spine below their common ancestor changed, and the new
            # block may be another shard's.
            self._boundary_epoch += 1
            new_home = router.owner_of_leaf(new_m)
            if new_home != home:
                self._shard_epochs[new_home] += 1
                self._rehomed(home, new_home)

    def _touched_moves(self, old_ms: IntArray, new_ms: IntArray) -> None:
        # The scalar rule for a whole tick: epochs are only ever
        # compared for equality between cloaks, so they may be added in
        # any order — one bincount for the homes, a python loop over
        # the (rare) block-crossing moves only.
        router = self.router
        homes = router.owners_of_leaves(old_ms)
        differing = old_ms ^ new_ms
        for shard, count in enumerate(self._notify_updates(homes[differing != 0])):
            self._shard_epochs[shard] += count
        crossing = np.flatnonzero(differing >> router.leaf_shift)
        self._boundary_epoch += len(crossing)
        new_homes = router.owners_of_leaves(new_ms[crossing]).tolist()
        for index, new_home in zip(crossing.tolist(), new_homes):
            if new_home != homes[index]:
                self._shard_epochs[new_home] += 1
                self._rehomed(int(homes[index]), new_home)

    def _touched_all(self) -> None:
        self._shard_epochs = [epoch + 1 for epoch in self._shard_epochs]
        self._boundary_epoch += 1
        for cache in self._caches:
            cache.clear()

    def _owners_of(self, ms: Any) -> Any:
        return self.router.owners_of_leaves(ms)

    def _cache_of(self, owner: int) -> tuple[CloakCache, Epoch, int | None]:
        epoch = (self._shard_epochs[owner], self._boundary_epoch)
        return self._caches[owner], epoch, owner

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def snapshot(self) -> object:
        """Atomic whole-fleet snapshot (the pyramid's own snapshot,
        tagged with the shard count).  Generations, epochs and
        statistics are excluded: monotone observability state, exactly
        as in the single pyramid."""
        return _FleetSnapshot(self.num_shards, super().snapshot())

    def restore(self, state: object) -> None:
        """Replace the whole fleet's population state with a
        :meth:`snapshot` copy (re-copied, so one snapshot serves many
        crashes).  Every epoch advances and every cache drops."""
        if not isinstance(state, _FleetSnapshot):
            raise TypeError("not a ShardedBasicAnonymizer snapshot")
        if state.num_shards != self.num_shards:
            raise ValueError("snapshot shard count mismatch")
        super().restore(state.pyramid)
        self._occupancy = self._recount()

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert pyramid + partition consistency: the one pyramid's
        own audit (which includes the table's: every row's cell — and
        so its home — is where its point locates), then that the
        occupancy counters match the rows.

        A partition-mode worker replica passes the same audit.  It sees
        every broadcast mutation but only its own confined moves, so
        foreign users' rows go stale — point and cell *together*, and
        always inside their true block, so a home derived from a stale
        cell is still the true home — and its foreign interior counts
        stay consistent with exactly those rows: a replica is a whole,
        self-consistent fleet of the operations it was sent.
        """
        super().check_invariants()
        self._check_homes()
