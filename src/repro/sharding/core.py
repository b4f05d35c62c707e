"""Per-shard state cores and the shared spine aggregator.

These are deliberately *dumb* state holders: all maintenance logic
(Algorithm 1, update walks) lives in the sharded anonymizer, which
routes each touched cell either to its owning core or to the spine.
Splitting state from logic this way keeps the sharded implementation
line-for-line comparable with the single-pyramid one — the equivalence
property the whole design is gated on.

Cache-invalidation state is two-tier:

* each core has a **shard epoch**, bumped whenever any count owned by
  that shard changes;
* the spine has a **boundary epoch**, bumped whenever any count at
  level ``<= S`` changes (spine cells *and* block roots — every cell a
  cloak starting in one shard can read outside that shard).

A cloak served from shard ``i`` is cached under the composite epoch
``(core_i.epoch, boundary_epoch)``: unchanged composite epoch proves
every cell the cloak read is unchanged, so mutations confined to other
shards never evict shard ``i``'s single-probe fast path.  That locality
is what the ``shard_scaling`` benchmark measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.anonymizer.cache import CloakCache
from repro.anonymizer.cells import CellId
from repro.sharding.soa import MortonSlice

if TYPE_CHECKING:
    from repro.anonymizer.basic import _UserRecord as BasicRecord

__all__ = [
    "BasicShardCore",
    "CACHE_KEYS",
    "SpineState",
    "cache_counters",
]

#: The counters of one ``cache_stats()`` row.
CACHE_KEYS = ("hits", "misses", "invalidations", "evictions")


def cache_counters(cache: CloakCache) -> dict[str, int]:
    """One cache's traffic counters in the ``cache_stats()`` shape."""
    return {key: getattr(cache, key) for key in CACHE_KEYS}


@dataclass
class BasicShardCore:
    """One shard's slice of the complete pyramid: counts and user
    records for the cells at level ``>= S`` inside its blocks.  Zero
    counts read as absent; generation counters are monotone and outlive
    the counts they describe.

    ``counts``/``gens`` are :class:`~repro.sharding.soa.MortonSlice`
    arrays sharing one layout, so the batch kernel scatters both with
    one index computation; they speak the ``dict[CellId, int]`` mapping
    protocol the snapshots and replica audits read."""

    index: int
    cache: CloakCache
    counts: MortonSlice
    gens: MortonSlice
    users: "dict[object, BasicRecord]" = field(default_factory=dict)
    epoch: int = 0

    def apply(self, cell: CellId, delta: int) -> None:
        """Apply a population delta to an owned cell, bumping its gen."""
        self.counts[cell] = self.counts.get(cell, 0) + delta
        self.gens[cell] = self.gens.get(cell, 0) + 1


@dataclass
class SpineState:
    """The replicated top of the pyramid (levels ``0 .. S-1``) shared by
    every shard, maintained *eagerly* so aggregate reads and maintenance
    cost accounting match the single-pyramid implementations exactly.

    ``boundary_epoch`` covers every cell at level ``<= S``; see the
    module docstring.
    """

    counts: dict[CellId, int] = field(default_factory=dict)
    gens: dict[CellId, int] = field(default_factory=dict)
    boundary_epoch: int = 0

    def apply(self, cell: CellId, delta: int) -> None:
        """Apply a population delta to a spine cell, bumping its gen."""
        total = self.counts.get(cell, 0) + delta
        if total:
            self.counts[cell] = total
        else:
            self.counts.pop(cell, None)
        self.gens[cell] = self.gens.get(cell, 0) + 1

    def bump_gen(self, cell: CellId) -> None:
        self.gens[cell] = self.gens.get(cell, 0) + 1
