"""The *adaptive* location anonymizer (Section 4.2).

Maintains an *incomplete* pyramid [Aref & Samet 1990]: only cells that
could actually serve as cloaking regions for the current user population
exist.  The maintained cells form a quadtree cut — the root always
exists, and a cell is either a *leaf* (its children are not maintained)
or fully split (all four children maintained).  The per-user hash table
points at the lowest *maintained* cell, so both location updates and
Algorithm 1 touch far fewer cells than the basic anonymizer when users
have strict privacy profiles.

The split/merge decisions and the cut-maintenance walk live in
:mod:`repro.anonymizer.policies.adaptive`; this class is its host: it
holds the cell dict, generations, mutation epoch and leaf pointers the
walk works on, and the engine's population and instrumented cloak.
Sharded deployments run whole replicas of this class (see
:mod:`repro.sharding.replicated`) — the cut is shaped by global counts,
so there is no partitioned form.

The maintained cut stays a dict — it is sparse by design, so the only
height cap is the user table's (``MAX_TABLE_HEIGHT`` = 31: a row's
lowest-level Morton code is an int64) — but every per-user scan (the split gate and exact check,
the merge blocker, ``users_in_rect``) runs as a numpy reduction over
the engine's :class:`~repro.anonymizer.soa.UserTable`.  The one
adaptive-only per-user fact, the hash table's pointer at the user's
lowest *maintained* cell, is a list indexed by the table's slot.  The
per-user scalar decisions live on in the test oracle
``tests/reference_pyramid.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.anonymizer.cache import CloakCache
from repro.anonymizer.cells import CellId
from repro.anonymizer.cloak import CloakedRegion
from repro.anonymizer.engine import PyramidEngine
from repro.anonymizer.policies.adaptive import ROOT, CutCell, CutMaintainer
from repro.anonymizer.profile import PrivacyProfile
from repro.anonymizer.soa import TableSnapshot
from repro.geometry import Point, Rect

__all__ = ["AdaptiveAnonymizer"]


@dataclass(frozen=True)
class _AdaptiveSnapshot:
    """Deep copy of an :class:`AdaptiveAnonymizer`'s population state:
    the maintained cut (whose leaves name their users, so the leaf
    pointers are a function of it) and the user table's rows."""

    cells: dict[CellId, CutCell]
    population: TableSnapshot


def _copy_cut(cells: dict[CellId, CutCell]) -> dict[CellId, CutCell]:
    return {
        cid: CutCell(cell.count, cell.is_leaf, set(cell.users))
        for cid, cell in cells.items()
    }


class AdaptiveAnonymizer(CutMaintainer, PyramidEngine):
    """Incomplete-pyramid location anonymizer."""

    label = "adaptive"

    def __init__(
        self,
        bounds: Rect,
        height: int = 9,
        cloak_cache_size: int = 8192,
    ) -> None:
        self._init_engine(bounds, height)
        self._cells: dict[CellId, CutCell] = {ROOT: CutCell()}
        # slot -> the user's lowest maintained cell, sized to the
        # table's capacity.
        self._leaves: list[CellId] = []
        # Generation counters outlive the cells they describe: a merged
        # (deleted) cell's count reads as 0, which is still a change the
        # cloak cache must observe, so gens live in their own dict.
        self._gens: dict[CellId, int] = {}
        self._epoch = 0
        self.cloak_cache = CloakCache(cloak_cache_size)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_maintained_cells(self) -> int:
        """Size of the incomplete pyramid (the adaptive structure's
        memory footprint; the basic anonymizer's equivalent is fixed at
        ``sum(4**level)``)."""
        return len(self._cells)

    def cell_count(self, cell: CellId) -> int:
        """Population of a *maintained* cell (0 for absent cells, which
        only occurs below the maintained cut, where the population would
        indeed require splitting to know)."""
        entry = self._cells.get(cell)
        return entry.count if entry is not None else 0

    def _gen_of(self, cell: CellId) -> int:
        return self._gens.get(cell, 0)

    def _set_leaf(self, uids: Iterable[object], leaf: CellId) -> None:
        leaves, slot_of = self._leaves, self.table.require
        for uid in uids:
            leaves[slot_of(uid)] = leaf

    # ------------------------------------------------------------------
    # Registration and location updates
    # ------------------------------------------------------------------
    def register(self, uid: object, point: Point, profile: PrivacyProfile) -> None:
        slot, lowest = self.table.admit(uid, point, profile)
        leaves = self._leaves
        if slot >= len(leaves):
            leaves.extend([ROOT] * (self.table.capacity - len(leaves)))
        leaf = leaves[slot] = self.leaf_above(lowest)
        self._add_to_leaf(uid, leaf)
        self.stats.registrations += 1
        self._maybe_split(leaf)

    def deregister(self, uid: object) -> None:
        leaf = self._leaves[self.table.remove(uid)]
        self._remove_from_leaf(uid, leaf)
        self.stats.deregistrations += 1
        self._maybe_merge(leaf)

    def set_profile(self, uid: object, profile: PrivacyProfile) -> None:
        """Change a user's profile; may reshape the pyramid around them."""
        slot = self.table.set_profile(uid, profile)
        self._maybe_split(self._leaves[slot])
        # Re-read: the split may have moved the user one or more levels down.
        self._maybe_merge(self._leaves[slot])

    def update(self, uid: object, point: Point) -> int:
        """Process a location update; returns its counter-update cost.

        The point is located once, at the lowest level; the descent
        through the cut takes that cell's ancestors (a shift each)
        instead of locating the point again at every level.  The batch
        form is the engine's arrival-order loop: the cut reshapes after
        *every* move and the split gate reads the other users' rows, so
        moves neither commute nor may be written ahead.
        """
        slot, _old_m, _new_m, lowest = self.table.move(uid, point)
        self.stats.location_updates += 1
        new_leaf = self.leaf_above(lowest)
        old_leaf = self._leaves[slot]
        if new_leaf == old_leaf:
            return 0
        cost = self._move_between_leaves(uid, old_leaf, new_leaf)
        self._leaves[slot] = new_leaf
        self.stats.counter_updates += cost
        self.stats.cell_changes += 1
        self._maybe_split(new_leaf)
        self._maybe_merge(old_leaf)
        return cost

    # ------------------------------------------------------------------
    # Cloaking
    # ------------------------------------------------------------------
    def cloak(self, uid: object) -> CloakedRegion:
        """Blur ``uid``'s location, starting Algorithm 1 from their
        lowest *maintained* cell."""
        slot = self.table.require(uid)
        return self._cloak_cell(self.table.profile_at(slot), self._leaves[slot])

    def cloak_location(self, point: Point, profile: PrivacyProfile) -> CloakedRegion:
        """One-shot cloak of an arbitrary location (query anonymization)."""
        return self._cloak_cell(profile, self.leaf_for_point(point))

    def _cloak_cell(self, profile: PrivacyProfile, leaf: CellId) -> CloakedRegion:
        return self._cloak_via(
            self.cloak_cache, self.cell_count, self._gen_of, self._epoch,
            profile, leaf,
        )

    # ------------------------------------------------------------------
    # Crash recovery (snapshot/restore of incomplete pyramid + users)
    # ------------------------------------------------------------------
    def snapshot(self) -> object:
        """An opaque deep copy of the maintained cut and the user table
        for crash recovery.  Generation counters and statistics are
        excluded — they are monotone observability state."""
        return _AdaptiveSnapshot(_copy_cut(self._cells), self.table.snapshot())

    def restore(self, state: object) -> None:
        """Replace the population state with a :meth:`snapshot` copy.

        The snapshot is copied again so it can restore repeated crashes.
        Generations stay monotone and the cloak cache is dropped — the
        maintained cut changed without generation bumps, so every cached
        entry is suspect.
        """
        if not isinstance(state, _AdaptiveSnapshot):
            raise TypeError("not an AdaptiveAnonymizer snapshot")
        self._cells = _copy_cut(state.cells)
        self.table.restore(state.population)
        self._leaves = [ROOT] * self.table.capacity
        for cell, entry in self._cells.items():
            self._set_leaf(entry.users, cell)
        self._epoch += 1
        self.cloak_cache.clear()

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert incomplete-pyramid consistency."""
        table = self.table
        table.check()
        assert ROOT in self._cells, "root must always be maintained"
        leaf_population = 0
        for cell, entry in self._cells.items():
            if entry.is_leaf:
                leaf_population += entry.count
                assert entry.count == len(entry.users), f"leaf {cell} count drift"
                for uid in entry.users:
                    slot = table.require(uid)
                    assert self._leaves[slot] == cell, f"hash table stale for {uid!r}"
                    assert cell.is_ancestor_of(
                        self.grid.cell_of(table.point_at(slot))
                    ), f"user {uid!r} outside its leaf"
                # Cut property: no child of a leaf is maintained.
                if cell.level < self.height:
                    for child in cell.children():
                        assert child not in self._cells, "leaf with children"
            else:
                children = cell.children()
                assert all(c in self._cells for c in children), "partial split"
                assert entry.count == sum(
                    self._cells[c].count for c in children
                ), f"internal {cell} count != children sum"
                assert not entry.users, "internal cell holds users"
            if not cell.is_root:
                assert cell.parent() in self._cells, "orphan maintained cell"
                assert not self._cells[cell.parent()].is_leaf, "parent is leaf"
        assert leaf_population == len(table), "population drift"
        assert self._cells[ROOT].count == len(table)
