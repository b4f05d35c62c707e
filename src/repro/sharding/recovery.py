"""Crash-recovery state for the partitioned fleet: snapshot formats and
the restore/reconciliation logic.

Snapshots are plain dataclasses over canonical dict state (the
wire/pickle format; Morton-slice counters are copied out to dicts and
loaded back on restore); all functions here operate on a
:class:`~repro.sharding.basic.ShardedBasicAnonymizer` host, which
exposes them as one-line methods.  Whole-fleet snapshots are atomic
(taken in one call, so no cross-shard move can straddle them);
per-shard restores reconcile the crashed core against the surviving
fleet — the directory is authoritative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.anonymizer.basic import _UserRecord as _BasicRecord
from repro.anonymizer.cells import CellId
from repro.sharding.core import BasicShardCore

if TYPE_CHECKING:
    from repro.sharding.basic import ShardedBasicAnonymizer

__all__ = [
    "BasicCoreSnapshot",
    "BasicFleetSnapshot",
]


@dataclass(frozen=True)
class BasicCoreSnapshot:
    """Deep copy of one shard core's population state."""

    counts: dict[CellId, int]
    users: dict[object, _BasicRecord]


@dataclass(frozen=True)
class BasicFleetSnapshot:
    """Atomic deep copy of the whole fleet (all cores + spine +
    directory), taken in one call so no cross-shard move can straddle
    it."""

    cores: tuple[BasicCoreSnapshot, ...]
    spine_counts: dict[CellId, int]
    directory: dict[object, int]


def copy_basic_core(core: BasicShardCore) -> BasicCoreSnapshot:
    return BasicCoreSnapshot(
        counts=dict(core.counts),
        users={
            uid: _BasicRecord(rec.profile, rec.point, rec.cell)
            for uid, rec in core.users.items()
        },
    )


def basic_snapshot(fleet: "ShardedBasicAnonymizer") -> BasicFleetSnapshot:
    return BasicFleetSnapshot(
        cores=tuple(copy_basic_core(core) for core in fleet._cores),
        spine_counts=dict(fleet._spine.counts),
        directory=dict(fleet._directory),
    )


def basic_restore(fleet: "ShardedBasicAnonymizer", state: object) -> None:
    if not isinstance(state, BasicFleetSnapshot):
        raise TypeError("not a ShardedBasicAnonymizer snapshot")
    if len(state.cores) != fleet.num_shards:
        raise ValueError("snapshot shard count mismatch")
    for core, snap in zip(fleet._cores, state.cores):
        core.counts.load(snap.counts)
        core.users = {
            uid: _BasicRecord(rec.profile, rec.point, rec.cell)
            for uid, rec in snap.users.items()
        }
        core.epoch += 1
        core.cache.clear()
    fleet._spine.counts = dict(state.spine_counts)
    fleet._spine.boundary_epoch += 1
    fleet._load_directory(state.directory)


def basic_restore_shard(
    fleet: "ShardedBasicAnonymizer", shard: int, state: object
) -> list[object]:
    """Restore one crashed core from a core snapshot, reconciling it
    with the surviving fleet.

    Users the directory says have since moved *away* are dropped from
    the restored copy (the destination shard's live record wins);
    directory entries pointing here with no restored record are purged
    and returned — those users lost state and heal through the normal
    re-registration path.  Counters are rebuilt from the surviving
    records and the spine is recomputed from all cores' block
    contributions, so fleet-wide invariants hold immediately after the
    restore.
    """
    if not isinstance(state, BasicCoreSnapshot):
        raise TypeError("not a ShardedBasicAnonymizer shard snapshot")
    core = fleet._cores[shard]
    users = {
        uid: _BasicRecord(rec.profile, rec.point, rec.cell)
        for uid, rec in state.users.items()
        if fleet._directory.get(uid) == shard
    }
    purged = [
        uid
        for uid, home in fleet._directory.items()
        if home == shard and uid not in users
    ]
    for uid in purged:
        fleet._drop_home(uid)
    # Rebuild this core's counters from the surviving records.
    spine_level = fleet.router.spine_level
    counts: dict[CellId, int] = {}
    for rec in users.values():
        cell = rec.cell
        while cell.level >= spine_level:
            counts[cell] = counts.get(cell, 0) + 1
            if cell.level == 0:
                break
            cell = cell.parent()
    for cell in set(core.counts) | set(counts):
        if core.counts.get(cell, 0) != counts.get(cell, 0):
            core.gens[cell] = core.gens.get(cell, 0) + 1
    core.counts.load(counts)
    core.users = users
    core.epoch += 1
    core.cache.clear()
    rebuild_spine_counts(fleet)
    fleet._spine.boundary_epoch += 1
    fleet._notify_op(shard, "restore")
    return purged


def rebuild_spine_counts(fleet: "ShardedBasicAnonymizer") -> None:
    """Recompute spine counts from every core's block populations,
    bumping generations only where the count actually changed."""
    new_counts: dict[CellId, int] = {}
    for core in fleet._cores:
        for block in fleet.router.blocks_of(core.index):
            population = core.counts.get(block, 0)
            if not population:
                continue
            cell = block
            while cell.level > 0:
                cell = cell.parent()
                new_counts[cell] = new_counts.get(cell, 0) + population
    for cell in set(fleet._spine.counts) | set(new_counts):
        if fleet._spine.counts.get(cell, 0) != new_counts.get(cell, 0):
            fleet._spine.bump_gen(cell)
    fleet._spine.counts = new_counts
