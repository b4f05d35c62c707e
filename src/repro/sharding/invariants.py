"""Fleet-wide consistency checks for the sharded anonymizers.

Each function asserts one deployment shape's full invariant set —
pyramid consistency *plus* the partition discipline (which cells and
users may live on which shard/spine store).  They are plain functions
over a fleet so both the in-process anonymizers and the worker replicas
expose them without carrying the bodies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.anonymizer.cells import CellId

if TYPE_CHECKING:
    from repro.sharding.adaptive import ShardedAdaptiveAnonymizer
    from repro.sharding.basic import ShardedBasicAnonymizer

__all__ = [
    "check_adaptive_fleet",
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


def check_adaptive_fleet(fleet: "ShardedAdaptiveAnonymizer") -> None:
    """Assert incomplete-pyramid + partition consistency."""
    spine_level = fleet.router.spine_level
    assert fleet._entry(_ROOT) is not None, "root must always be maintained"
    items = list(fleet._spine.cells.items())
    for core in fleet._cores:
        items.extend(core.cells.items())
    leaf_population = 0
    for cell, entry in items:
        if entry.is_leaf:
            leaf_population += entry.count
            assert entry.count == len(entry.users), f"leaf {cell} count drift"
            for uid in entry.users:
                rec = fleet._record(uid)
                assert rec.leaf == cell, f"hash table stale for {uid!r}"
                assert cell.is_ancestor_of(
                    fleet.grid.cell_of(rec.point)
                ), f"user {uid!r} outside its leaf"
            if cell.level < fleet.height:
                for child in cell.children():
                    assert fleet._entry(child) is None, "leaf with children"
        else:
            children = cell.children()
            child_entries = [fleet._entry(c) for c in children]
            assert all(e is not None for e in child_entries), "partial split"
            assert entry.count == sum(
                e.count for e in child_entries if e is not None
            ), f"internal {cell} count != children sum"
            assert not entry.users, "internal cell holds users"
        if not cell.is_root:
            parent_entry = fleet._entry(cell.parent())
            assert parent_entry is not None, "orphan maintained cell"
            assert not parent_entry.is_leaf, "parent is leaf"
    assert leaf_population == len(fleet._directory), "population drift"
    assert fleet.cell_count(_ROOT) == len(fleet._directory)
    # Partition discipline.
    for cell in fleet._spine.cells:
        assert cell.level < spine_level, f"core cell {cell} in the spine"
    for shard, core in enumerate(fleet._cores):
        for cell, entry in core.cells.items():
            assert cell.level >= spine_level, (
                f"spine cell {cell} in shard {shard}"
            )
            assert fleet.router.shard_of(cell) == shard, (
                f"shard {shard} holds foreign cell {cell}"
            )
            if entry.is_leaf:
                for uid in entry.users:
                    assert fleet._directory.get(uid) == shard, (
                        f"foreign user {uid!r} on shard {shard}'s leaf"
                    )
        for uid, rec in core.users.items():
            assert fleet._directory.get(uid) == shard, (
                f"directory disagrees with core {shard} about {uid!r}"
            )
            assert fleet.router.shard_of(
                fleet.grid.cell_of(rec.point)
            ) == shard, f"user {uid!r} homed in the wrong shard"
    assert len(fleet._table) == len(fleet._directory), "gate table size drift"
    for core in fleet._cores:
        for uid, rec in core.users.items():
            slot = fleet._table.slot_of(uid)
            assert slot is not None, f"{uid!r} missing from gate table"
            # Exact equality on purpose: the table is a bit-copy of the
            # record floats; any representational difference IS the
            # drift this assert catches.
            assert (
                float(fleet._table.xs[slot]) == rec.point.x  # casperlint: ignore[CSP004] bit-copy audit
                and float(fleet._table.ys[slot]) == rec.point.y  # casperlint: ignore[CSP004] bit-copy audit
                and int(fleet._table.ks[slot]) == rec.profile.k
                and float(fleet._table.a_mins[slot]) == rec.profile.a_min  # casperlint: ignore[CSP004] bit-copy audit
            ), f"gate table stale for {uid!r}"
