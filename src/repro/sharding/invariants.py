"""Fleet-wide consistency checks for the partitioned anonymizer.

Each function asserts one deployment shape's full invariant set —
pyramid consistency *plus* the partition discipline (which cells and
users may live on which shard/spine store).  They are plain functions
over a fleet so both the in-process anonymizer and the worker replicas
expose them without carrying the bodies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.anonymizer.cells import CellId

if TYPE_CHECKING:
    from repro.sharding.basic import ShardedBasicAnonymizer

__all__ = [
    "check_basic_fleet",
    "check_basic_replica",
]

_ROOT = CellId(0, 0, 0)


def check_basic_fleet(fleet: "ShardedBasicAnonymizer") -> None:
    """Assert fleet-wide pyramid + partition consistency."""
    spine_level = fleet.router.spine_level
    expected: list[dict[CellId, int]] = [dict() for _ in fleet._cores]
    expected_spine: dict[CellId, int] = {}
    population = 0
    for shard, core in enumerate(fleet._cores):
        for uid, rec in core.users.items():
            assert fleet._directory.get(uid) == shard, (
                f"directory disagrees with core {shard} about {uid!r}"
            )
            assert rec.cell == fleet.grid.cell_of(rec.point), (
                f"stale cell for {uid!r}"
            )
            assert fleet.router.shard_of(rec.cell) == shard, (
                f"user {uid!r} homed in the wrong shard"
            )
            population += 1
            for ancestor in fleet.grid.path_to_root(rec.cell):
                if ancestor.level < spine_level:
                    expected_spine[ancestor] = (
                        expected_spine.get(ancestor, 0) + 1
                    )
                else:
                    expected[shard][ancestor] = (
                        expected[shard].get(ancestor, 0) + 1
                    )
    assert population == len(fleet._directory), "directory population drift"
    fleet._check_directory()
    for shard, core in enumerate(fleet._cores):
        assert core.counts == expected[shard], (
            f"shard {shard} counters inconsistent with its user table"
        )
        for cell in core.counts:
            assert cell.level >= spine_level, (
                f"shard {shard} holds spine cell {cell}"
            )
            assert fleet.router.shard_of(cell) == shard, (
                f"shard {shard} holds foreign cell {cell}"
            )
    assert fleet._spine.counts == expected_spine, (
        "spine counters inconsistent with core populations"
    )
    root_count = fleet.cell_count(_ROOT)
    assert root_count == len(fleet._directory), "root count != population"


def check_basic_replica(replica: "ShardedBasicAnonymizer", shard: int) -> None:
    """Invariant check for a *partially replicated* basic worker.

    A worker receives every boundary-crossing mutation but only its own
    confined moves, so foreign records' lowest-level cells may be stale
    — always within the record's true block, never across it.  What
    must therefore be exact on every replica, and what this asserts:

    * the worker's own core: fresh records, correct homing, counts
      rebuilt from its own users' paths at levels ``>= S``;
    * the spine and every block root: rebuilt from *all* records'
      block ancestry (stale cells share the true block, so block-level
      aggregation is immune to the staleness).
    """
    grid = replica.grid
    router = replica.router
    spine_level = router.spine_level
    core = replica._cores[shard]
    expected_own: dict[CellId, int] = {}
    for uid, rec in core.users.items():
        assert replica._directory.get(uid) == shard, (
            f"worker {shard}: directory disagrees about own user {uid!r}"
        )
        assert rec.cell == grid.cell_of(rec.point), (
            f"worker {shard}: stale cell for own user {uid!r}"
        )
        assert router.shard_of(rec.cell) == shard, (
            f"worker {shard}: own user {uid!r} homed in a foreign block"
        )
        for ancestor in grid.path_to_root(rec.cell):
            if ancestor.level >= spine_level:
                expected_own[ancestor] = expected_own.get(ancestor, 0) + 1
    assert core.counts == expected_own, (
        f"worker {shard}: own-core counters inconsistent with its users"
    )
    expected_spine: dict[CellId, int] = {}
    expected_roots: dict[CellId, int] = {}
    population = 0
    for other in replica._cores:
        for rec in other.users.values():
            population += 1
            block = rec.cell.ancestor(spine_level)
            expected_roots[block] = expected_roots.get(block, 0) + 1
            cell = block
            while cell.level > 0:
                cell = cell.parent()
                expected_spine[cell] = expected_spine.get(cell, 0) + 1
    assert population == len(replica._directory), (
        f"worker {shard}: directory population drift"
    )
    assert replica._spine.counts == expected_spine, (
        f"worker {shard}: spine counters inconsistent with block ancestry"
    )
    for block, count in expected_roots.items():
        assert replica.cell_count(block) == count, (
            f"worker {shard}: block root {block} count drift"
        )
