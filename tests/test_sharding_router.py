"""Unit tests for the deterministic spatial shard router."""

from __future__ import annotations

import pytest

from repro.anonymizer.cells import CellId
from repro.morton import morton_cell, morton_rank
from repro.sharding import ShardRouter


class TestMorton:
    def test_roundtrip_every_cell_of_small_levels(self) -> None:
        for level in range(4):
            seen = set()
            for ix in range(2**level):
                for iy in range(2**level):
                    rank = morton_rank(CellId(level, ix, iy))
                    assert 0 <= rank < 4**level
                    assert morton_cell(rank, level) == CellId(level, ix, iy)
                    seen.add(rank)
            assert len(seen) == 4**level

    def test_siblings_share_contiguous_rank_block(self) -> None:
        # The four children of any cell occupy one aligned rank quad —
        # the property that keeps shard blocks spatially clustered.
        for parent_rank in range(16):
            parent = morton_cell(parent_rank, 2)
            child_ranks = sorted(morton_rank(c) for c in parent.children())
            assert child_ranks == [
                4 * parent_rank,
                4 * parent_rank + 1,
                4 * parent_rank + 2,
                4 * parent_rank + 3,
            ]


class TestShardRouter:
    @pytest.mark.parametrize(
        ("num_shards", "spine_level"),
        [(1, 0), (2, 1), (3, 1), (4, 1), (5, 2), (8, 2), (16, 2), (17, 3)],
    )
    def test_spine_level_is_minimal(self, num_shards: int, spine_level: int) -> None:
        router = ShardRouter(num_shards, height=6)
        assert router.spine_level == spine_level
        assert 4**spine_level >= num_shards
        assert spine_level == 0 or 4 ** (spine_level - 1) < num_shards

    def test_rejects_bad_shapes(self) -> None:
        with pytest.raises(ValueError):
            ShardRouter(0, height=4)
        with pytest.raises(ValueError):
            ShardRouter(5, height=1)  # needs spine level 2 > height

    @staticmethod
    def _blocks_per_shard(router: ShardRouter) -> list[int]:
        owners = [
            router.shard_of(morton_cell(rank, router.spine_level))
            for rank in range(router.num_blocks)
        ]
        assert owners == sorted(owners), "shards own contiguous rank runs"
        return [owners.count(shard) for shard in range(router.num_shards)]

    def test_blocks_partition_exactly(self) -> None:
        router = ShardRouter(5, height=6)
        sizes = self._blocks_per_shard(router)
        assert min(sizes) > 0, "every shard owns at least one block"
        assert sum(sizes) == router.num_blocks

    def test_block_counts_balanced(self) -> None:
        for num_shards in (2, 3, 5, 7, 8):
            sizes = self._blocks_per_shard(ShardRouter(num_shards, height=6))
            assert max(sizes) - min(sizes) <= 1

    def test_ownership_follows_the_block(self) -> None:
        router = ShardRouter(4, height=5)
        for ix in range(8):
            for iy in range(8):
                cell = CellId(3, ix, iy)
                assert router.shard_of(cell) == router.shard_of(
                    cell.ancestor(router.spine_level)
                )
                assert router.owner_of(cell) == router.shard_of(cell)

    def test_spine_cells_have_no_owner(self) -> None:
        router = ShardRouter(5, height=6)  # spine levels 0 and 1
        assert router.owner_of(CellId(0, 0, 0)) is None
        with pytest.raises(ValueError):
            router.shard_of(CellId(1, 1, 0))
        assert router.owner_of(CellId(2, 3, 1)) is not None

    def test_same_parent_neighbours_below_spine_never_cross(self) -> None:
        router = ShardRouter(4, height=5)  # spine level 1
        for ix in range(4):
            for iy in range(4):
                parent = CellId(2, ix, iy)
                owners = {router.shard_of(c) for c in parent.children()}
                assert len(owners) == 1

    def test_routing_is_deployment_independent(self) -> None:
        a = ShardRouter(6, height=5)
        b = ShardRouter(6, height=5)
        cells = [CellId(3, ix, iy) for ix in range(8) for iy in range(8)]
        assert [a.owner_of(c) for c in cells] == [b.owner_of(c) for c in cells]
