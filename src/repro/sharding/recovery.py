"""Crash-recovery state for sharded fleets: snapshot formats and the
restore/reconciliation logic, for both pyramid variants.

Snapshots are plain dataclasses over canonical dict state (the
wire/pickle format; Morton-slice counters are copied out to dicts and
loaded back on restore); all functions here operate on a
:class:`~repro.sharding.fleet.ShardedFleet` host, so the variant
modules expose them as one-line methods.  Whole-fleet snapshots
are atomic (taken in one call, so no cross-shard move can straddle
them); per-shard restores reconcile the crashed core against the
surviving fleet — the directory and (for adaptive) the spine structure
are authoritative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.anonymizer.adaptive import _UserRecord as _AdaptiveRecord
from repro.anonymizer.basic import _UserRecord as _BasicRecord
from repro.anonymizer.cells import CellId
from repro.anonymizer.policies.adaptive import CutCell
from repro.sharding.core import AdaptiveShardCore, BasicShardCore

if TYPE_CHECKING:
    from repro.sharding.adaptive import ShardedAdaptiveAnonymizer
    from repro.sharding.basic import ShardedBasicAnonymizer

__all__ = [
    "AdaptiveCoreSnapshot",
    "AdaptiveFleetSnapshot",
    "BasicCoreSnapshot",
    "BasicFleetSnapshot",
]


# ----------------------------------------------------------------------
# Basic (complete pyramid)
# ----------------------------------------------------------------------
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
    fleet._spine.cache.clear()
    fleet._directory = dict(state.directory)


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
        del fleet._directory[uid]
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


# ----------------------------------------------------------------------
# Adaptive (incomplete pyramid)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AdaptiveCoreSnapshot:
    """Deep copy of one adaptive core's population state."""

    cells: dict[CellId, CutCell]
    users: dict[object, _AdaptiveRecord]


@dataclass(frozen=True)
class AdaptiveFleetSnapshot:
    """Atomic deep copy of the whole adaptive fleet."""

    cores: tuple[AdaptiveCoreSnapshot, ...]
    spine_cells: dict[CellId, CutCell]
    directory: dict[object, int]


def copy_cut_cells(cells: dict[CellId, CutCell]) -> dict[CellId, CutCell]:
    return {
        cid: CutCell(cell.count, cell.is_leaf, set(cell.users))
        for cid, cell in cells.items()
    }


def _copy_users(
    users: dict[object, _AdaptiveRecord],
) -> dict[object, _AdaptiveRecord]:
    return {
        uid: _AdaptiveRecord(rec.profile, rec.point, rec.leaf)
        for uid, rec in users.items()
    }


def copy_adaptive_core(core: AdaptiveShardCore) -> AdaptiveCoreSnapshot:
    return AdaptiveCoreSnapshot(
        copy_cut_cells(core.cells), _copy_users(core.users)
    )


def adaptive_snapshot(fleet: "ShardedAdaptiveAnonymizer") -> AdaptiveFleetSnapshot:
    return AdaptiveFleetSnapshot(
        cores=tuple(copy_adaptive_core(core) for core in fleet._cores),
        spine_cells=copy_cut_cells(fleet._spine.cells),
        directory=dict(fleet._directory),
    )


def adaptive_restore(fleet: "ShardedAdaptiveAnonymizer", state: object) -> None:
    if not isinstance(state, AdaptiveFleetSnapshot):
        raise TypeError("not a ShardedAdaptiveAnonymizer snapshot")
    if len(state.cores) != fleet.num_shards:
        raise ValueError("snapshot shard count mismatch")
    for core, snap in zip(fleet._cores, state.cores):
        core.cells = copy_cut_cells(snap.cells)
        core.users = _copy_users(snap.users)
        core.epoch += 1
        core.cache.clear()
    fleet._spine.cells = copy_cut_cells(state.spine_cells)
    fleet._spine.boundary_epoch += 1
    fleet._spine.cache.clear()
    fleet._directory = dict(state.directory)
    rebuild_gate_table(fleet)


def adaptive_restore_shard(
    fleet: "ShardedAdaptiveAnonymizer", shard: int, state: object
) -> list[object]:
    """Restore one crashed adaptive core, reconciling it with the
    surviving fleet.

    The spine's structure is authoritative: the restored shard's part of
    the cut is *rebuilt* from its surviving user records — one leaf per
    still-maintained block, re-deepened through the standard split rule
    — rather than trusting a snapshot cut that may contradict
    post-snapshot spine splits/merges.  Users whose directory entry
    moved away keep their live record elsewhere; directory entries
    pointing here with no restored record are purged and returned (they
    heal via re-registration).
    """
    if not isinstance(state, AdaptiveCoreSnapshot):
        raise TypeError("not a ShardedAdaptiveAnonymizer shard snapshot")
    core = fleet._cores[shard]
    spine_level = fleet.router.spine_level
    users = {
        uid: _AdaptiveRecord(rec.profile, rec.point, rec.leaf)
        for uid, rec in state.users.items()
        if fleet._directory.get(uid) == shard
    }
    purged = [
        uid
        for uid, home in fleet._directory.items()
        if home == shard and uid not in users
    ]
    for uid in purged:
        del fleet._directory[uid]
    # Strip this shard's (and the purged) uids from every spine leaf;
    # survivors are re-attached below.
    for entry in fleet._spine.cells.values():
        if entry.is_leaf and entry.users:
            entry.users = {
                u
                for u in entry.users
                if u in fleet._directory and fleet._directory[u] != shard
            }
    old_cells = core.cells
    core.cells = {}
    core.users = users
    # Gate table resyncs to the post-reconciliation fleet before the
    # split/merge passes below consult it.
    rebuild_gate_table(fleet)
    # Rebuild one leaf per block the spine still maintains.
    maintained: list[CellId] = []
    for block in fleet.router.blocks_of(shard):
        if spine_level == 0:
            is_maintained = True  # the root block always exists
        else:
            parent_entry = fleet._spine.cells.get(block.parent())
            is_maintained = (
                parent_entry is not None and not parent_entry.is_leaf
            )
        if is_maintained:
            members = {
                uid
                for uid, rec in users.items()
                if block.is_ancestor_of(fleet.grid.cell_of(rec.point))
            }
            core.cells[block] = CutCell(
                count=len(members), is_leaf=True, users=members
            )
            maintained.append(block)
    # Re-attach every survivor to its cut leaf (a rebuilt block, or a
    # spine leaf when the cut sits above the block level).
    for uid, rec in users.items():
        leaf = fleet.leaf_for_point(rec.point)
        rec.leaf = leaf
        if leaf.level < spine_level:
            fleet._spine.cells[leaf].users.add(uid)
    for cell in set(old_cells) | set(core.cells):
        core.gens[cell] = core.gens.get(cell, 0) + 1
    recompute_spine_counts(fleet)
    core.epoch += 1
    fleet._spine.boundary_epoch += 1
    core.cache.clear()
    fleet._spine.cache.clear()
    # Let the standard criteria re-deepen the rebuilt cut, and let
    # underpopulated sibling groups merge upward.
    for block in maintained:
        fleet._maybe_split(block)
    for cell in [c for c, e in fleet._spine.cells.items() if e.is_leaf]:
        fleet._maybe_split(cell)
    for block in maintained:
        fleet._maybe_merge(block)
    fleet._notify_op(shard, "restore")
    return purged


def rebuild_gate_table(fleet: "ShardedAdaptiveAnonymizer") -> None:
    """Resync the fleet-wide gate table from every core's live user
    records."""
    fleet._table.clear()
    for core in fleet._cores:
        for uid, rec in core.users.items():
            fleet._table.add(
                uid,
                rec.point.x,
                rec.point.y,
                rec.profile.k,
                rec.profile.a_min,
                0,
            )


def recompute_spine_counts(fleet: "ShardedAdaptiveAnonymizer") -> None:
    """Recompute every spine cell's count bottom-up (leaves from their
    user sets, split cells from their children), bumping generations
    only where the count changed."""
    for level in range(fleet.router.spine_level - 1, -1, -1):
        for cell, entry in fleet._spine.cells.items():
            if cell.level != level:
                continue
            if entry.is_leaf:
                count = len(entry.users)
            else:
                count = sum(fleet.cell_count(c) for c in cell.children())
            if count != entry.count:
                entry.count = count
                fleet._spine.bump_gen(cell)
