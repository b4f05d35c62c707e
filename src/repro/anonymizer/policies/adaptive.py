"""The adaptive (incomplete-pyramid) cloaking policy — Section 4.2.

This module is the single definition site of the adaptive pyramid's
*algorithm*: :class:`CutMaintainer`, the maintenance mixin that keeps a
quadtree cut consistent under registration, deregistration and
movement, deciding splits and merges with the user-table reductions of
:mod:`repro.anonymizer.soa`.
``repro.anonymizer.adaptive`` (the single pyramid) is its one
production host.  The cut is reshaped from *global* counts, so it has
no partitioned form — sharded deployments run whole replicas of that
host behind :mod:`repro.sharding.replicated`.

State a host holds, which the walk reads and writes directly:

* ``_cells`` — the maintained cut, ``dict[CellId, CutCell]``;
* ``_gens`` — per-cell generation counters for cache invalidation
  (they outlive the cells they describe);
* ``_epoch`` — the mutation epoch, ticked once per maintenance
  primitive;
* ``table`` — the engine's user table, whose ``(x, y, k, A_min)``
  columns the production split/merge decisions scan.

Two seams let the reference pyramid in ``tests/reference_pyramid.py``
drive this same walk over a plain record dict: the decisions are
methods (:meth:`CutMaintainer._split_decision`,
:meth:`CutMaintainer._merge_blocked`, scalar per-user functions there),
and the per-user pointer at the lowest maintained cell is written
through one hook, :meth:`CutMaintainer._set_leaf`, wherever a split or
merge re-points a cell's users.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.anonymizer.cells import CellGrid, CellId
from repro.anonymizer.policy import CloakingPolicy, PolicySpec, register_policy
from repro.anonymizer.soa import UserTable, choose_split_vec, merge_blocked_vec
from repro.anonymizer.stats import MaintenanceStats
from repro.geometry import Point, Rect

__all__ = ["ROOT", "CutCell", "CutMaintainer"]

ROOT = CellId(0, 0, 0)


@dataclass
class CutCell:
    """One maintained pyramid cell.

    ``count`` is the user population under the cell.  ``users`` is
    populated only while the cell is a leaf; internal cells keep just the
    counter (mirroring the paper's ``(cid, N)`` contents).
    """

    count: int = 0
    is_leaf: bool = True
    users: set[object] = field(default_factory=set)


class CutMaintainer:
    """Quadtree-cut maintenance over the host's cut, generation and
    epoch state."""

    grid: CellGrid
    stats: MaintenanceStats
    table: UserTable
    _cells: dict[CellId, CutCell]
    _gens: dict[CellId, int]
    _epoch: int

    def _bump_gen(self, cell: CellId) -> None:
        self._gens[cell] = self._gens.get(cell, 0) + 1

    def _set_leaf(self, uids: Iterable[object], leaf: CellId) -> None:
        """Point every user of ``uids`` at ``leaf``, now their lowest
        maintained cell."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Leaf location
    # ------------------------------------------------------------------
    def leaf_for_point(self, point: Point) -> CellId:
        """Descend the maintained cut to the leaf containing ``point``."""
        return self.leaf_above(self.grid.cell_of(point))

    def leaf_above(self, lowest: CellId) -> CellId:
        """Descend the maintained cut to the leaf over the lowest-level
        cell ``lowest``.  A point's cell at level ``L`` is the level-``L``
        ancestor of its lowest-level cell — scaling by a power of two is
        exact and ``cell_of``'s clamp commutes with the shift — so one
        point location serves the whole descent."""
        cells, level, cell = self._cells, 0, ROOT
        while not cells[cell].is_leaf:
            level += 1
            cell = lowest.ancestor(level)
        return cell

    # ------------------------------------------------------------------
    # Counter maintenance
    # ------------------------------------------------------------------
    def _move_between_leaves(self, uid: object, old: CellId, new: CellId) -> int:
        """Transfer one user between leaves, updating branch counters;
        returns the number of counters touched."""
        self._cells[old].users.discard(uid)
        self._cells[new].users.add(uid)
        # Walk both branches up to the common ancestor (exclusive).
        old_path = self.grid.path_to_root(old)
        new_path = self.grid.path_to_root(new)
        common = {c for c in new_path}
        cost = 0
        for cell in old_path:
            if cell in common:
                break
            self._cells[cell].count -= 1
            self._bump_gen(cell)
            cost += 1
        stop_at = None
        for cell in old_path:
            if cell in common:
                stop_at = cell
                break
        for cell in new_path:
            if cell == stop_at:
                break
            self._cells[cell].count += 1
            self._bump_gen(cell)
            cost += 1
        self._epoch += 1
        return cost

    def _add_to_leaf(self, uid: object, leaf: CellId) -> None:
        self._cells[leaf].users.add(uid)
        path = self.grid.path_to_root(leaf)
        for cell in path:
            self._cells[cell].count += 1
            self._bump_gen(cell)
        self._epoch += 1
        self.stats.counter_updates += len(path)

    def _remove_from_leaf(self, uid: object, leaf: CellId) -> None:
        self._cells[leaf].users.discard(uid)
        path = self.grid.path_to_root(leaf)
        for cell in path:
            self._cells[cell].count -= 1
            self._bump_gen(cell)
        self._epoch += 1
        self.stats.counter_updates += len(path)

    # ------------------------------------------------------------------
    # Splitting and merging
    # ------------------------------------------------------------------
    def _split_decision(
        self, leaf: CellId, entry: CutCell
    ) -> tuple[dict[CellId, set[object]], CellId] | None:
        """Section 4.2's split criterion for one leaf: the user
        distribution over its children plus the first satisfiable
        child, or ``None`` when the leaf stays."""
        return choose_split_vec(
            self.grid, leaf, entry.count, entry.users, self.table
        )

    def _merge_blocked(
        self, child_area: float, child_stats: list[tuple[int, set[object]]]
    ) -> bool:
        """Section 4.2's merge blocker for one sibling-leaf group."""
        return merge_blocked_vec(self.table, child_area, child_stats)

    def _maybe_split(self, leaf: CellId) -> None:
        """Split ``leaf`` (recursively) while Section 4.2's criterion
        holds: some user inside could be satisfied one level deeper."""
        while True:
            entry = self._cells.get(leaf)
            if entry is None or not entry.is_leaf or leaf.level >= self.grid.height:
                return
            decision = self._split_decision(leaf, entry)
            if decision is None:
                return
            child_users, satisfiable = decision
            self._split(leaf, child_users)
            # A fresh leaf may itself be splittable; continue there.
            leaf = satisfiable

    def _split(self, leaf: CellId, child_users: dict[CellId, set[object]]) -> None:
        entry = self._cells[leaf]
        entry.is_leaf = False
        entry.users = set()
        for child, members in child_users.items():
            self._cells[child] = CutCell(
                count=len(members), is_leaf=True, users=members
            )
            # The child's count was readable as 0 while unmaintained;
            # materialising it is a visible change for cached cloaks.
            self._bump_gen(child)
            self._set_leaf(members, child)
        self._epoch += 1
        self.stats.splits += 1
        # Restructuring cost: four new counters plus one hash-table
        # relocation per affected user.
        self.stats.counter_updates += 4 + sum(len(m) for m in child_users.values())

    def _maybe_merge(self, leaf: CellId) -> None:
        """Merge ``leaf``'s sibling group (recursively upward) while no
        user under the parent needs cells at the leaves' level."""
        while leaf.level > 0:
            parent = leaf.parent()
            children = parent.children()
            entries = [self._cells.get(c) for c in children]
            if any(e is None or not e.is_leaf for e in entries):
                return
            child_area = self.grid.cell_area(leaf.level)
            # A child level is still needed if any user in any child has
            # a profile that child satisfies.
            child_stats = [
                (entry.count, entry.users) for entry in entries if entry is not None
            ]
            if self._merge_blocked(child_area, child_stats):
                return
            merged_users: set[object] = set()
            for _, users in child_stats:
                merged_users |= users
            parent_entry = self._cells[parent]
            parent_entry.is_leaf = True
            parent_entry.users = merged_users
            self._set_leaf(merged_users, parent)
            for child in children:
                del self._cells[child]
                # Deleted cells read as count 0 from now on.
                self._bump_gen(child)
            self._epoch += 1
            self.stats.merges += 1
            self.stats.counter_updates += 4 + len(merged_users)
            leaf = parent


def _single(bounds: Rect, height: int, cloak_cache_size: int) -> CloakingPolicy:
    from repro.anonymizer.adaptive import AdaptiveAnonymizer

    return AdaptiveAnonymizer(bounds, height, cloak_cache_size)


register_policy(
    PolicySpec(
        name="adaptive",
        single=_single,
        description="Incomplete pyramid with cell splitting/merging (Section 4.2)",
    )
)
