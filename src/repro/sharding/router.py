"""Deterministic spatial routing of pyramid cells to shards.

The pyramid of height ``H`` is partitioned at a single **spine level**
``S`` — the shallowest level with at least as many cells as shards
(``4**S >= N``).  Levels ``0 .. S-1`` are the **spine**: replicated
aggregate state shared by every shard (for ``N = 1`` the spine is
empty).  Every cell at level ``>= S`` belongs to exactly one shard: the
shard that owns its level-``S`` ancestor (its **block**).

Blocks are assigned to shards by Morton (Z-order) rank, each shard
receiving a contiguous rank range.  Morton order keeps each shard's
blocks spatially clustered, and — because same-parent neighbours at any
level ``> S`` share their level-``S`` ancestor — guarantees that
Algorithm 1's sibling reads stay inside one shard everywhere below the
spine.  Only reads at level ``S`` itself (block roots) and above can
cross shards; those route through the spine aggregator.

Routing is pure arithmetic on ``(level, ix, iy)``: no randomness, no
state, so any two deployments with the same ``(N, H)`` route
identically — the foundation of the shard-count-invariance guarantee.
"""

from __future__ import annotations

import numpy as np

from repro.anonymizer.cells import CellId
from repro.anonymizer.soa import IntArray
from repro.morton import morton_rank

__all__ = ["ShardRouter"]


class ShardRouter:
    """Maps pyramid cells to owning shards for a fixed ``(N, H)``.

    Parameters
    ----------
    num_shards:
        Number of shards ``N >= 1``.
    height:
        Pyramid height ``H``; needs ``4**H >= N`` so every shard owns at
        least one block.
    """

    def __init__(self, num_shards: int, height: int) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        spine_level = 0
        while 4**spine_level < num_shards:
            spine_level += 1
        if spine_level > height:
            raise ValueError(
                f"{num_shards} shards need a pyramid of height >= {spine_level}"
            )
        self.num_shards = num_shards
        self.height = height
        self.spine_level = spine_level
        self.num_blocks = 4**spine_level
        # Owner of every block, indexed by Morton rank (contiguous
        # ranges; block counts per shard differ by at most one).
        self._owner_by_rank = [
            rank * num_shards // self.num_blocks for rank in range(self.num_blocks)
        ]
        # The same table as an array, for routing a whole tick at once
        # (the list stays: scalar lookups want python ints).
        self._owner_array: IntArray = np.array(self._owner_by_rank, dtype=np.int64)
        #: Right shift taking a lowest-level Morton code to the rank of
        #: its level-``S`` block.
        self.leaf_shift = 2 * (height - spine_level)

    def owner_of(self, cell: CellId) -> int | None:
        """The shard owning ``cell``, or ``None`` for spine cells."""
        if cell.level < self.spine_level:
            return None
        block = cell.ancestor(self.spine_level)
        return self._owner_by_rank[morton_rank(block)]

    def shard_of(self, cell: CellId) -> int:
        """The shard owning ``cell``; raises for spine cells."""
        owner = self.owner_of(cell)
        if owner is None:
            raise ValueError(f"{cell} is a spine cell, owned by no shard")
        return owner

    def owner_of_leaf(self, m: int) -> int:
        """The shard owning the lowest-level cell with Morton code
        ``m``: its block's rank is the code's top ``2S`` bits."""
        return self._owner_by_rank[m >> self.leaf_shift]

    def owners_of_leaves(self, ms: IntArray) -> IntArray:
        """:meth:`owner_of_leaf` for an array of Morton codes — a whole
        tick routed in one pass."""
        return self._owner_array[ms >> self.leaf_shift]
