"""The scalar reference pyramids — test oracles, not production code.

The per-object implementations the structure-of-arrays anonymizers
replaced: one python record per user, one ``CellId`` walk per update,
per-user profile checks.  They speak the production API the differential
driver exercises and the production snapshot formats (the population
half is the user table's by-value ``TableSnapshot``, built here from
the record dict), so ``test_reference_equivalence.py`` runs oracle and
production in lockstep.

:class:`ReferenceBasic` is also the oracle of the partitioned fleet's
composite cache epochs: built with ``num_shards=N`` it keeps N cloak
caches and epochs plus the boundary epoch, and bumps them by the
*cell-set* statement of the rule (:meth:`ReferenceBasic._commit`),
where production does arithmetic on Morton codes.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass

from repro.anonymizer.adaptive import _AdaptiveSnapshot
from repro.anonymizer.basic import _BasicSnapshot
from repro.anonymizer.cache import CloakCache
from repro.anonymizer.cells import CellId
from repro.anonymizer.engine import PyramidEngine
from repro.anonymizer.policies.adaptive import ROOT, CutCell, CutMaintainer
from repro.anonymizer.profile import PrivacyProfile
from repro.anonymizer.soa import TableSnapshot
from repro.errors import DuplicateUserError, UnknownUserError
from repro.geometry import Point, Rect
from repro.morton import morton_of_cell
from repro.sharding.router import ShardRouter
from repro.sharding.surface import cache_counters


@dataclass
class _Record:
    """One user: profile, exact point and the hash table's cell pointer
    (lowest-level cell in the basic oracle, lowest *maintained* cell in
    the adaptive one)."""

    profile: PrivacyProfile
    point: Point
    cell: CellId


class _ReferenceHost(PyramidEngine):
    """What both oracles share: a user-record dict (the engine's user
    table stays empty), one cloak cache and one mutation epoch (the
    basic oracle adds one of each per extra shard)."""

    def _init_host(self, bounds: Rect, height: int, cloak_cache_size: int) -> None:
        self._init_engine(bounds, height)
        self._users: dict = {}
        self._epoch = 0
        self.cloak_cache = CloakCache(cloak_cache_size)

    @property
    def num_users(self) -> int:
        return len(self._users)

    def __contains__(self, uid: object) -> bool:
        return uid in self._users

    def _record(self, uid: object):
        try:
            return self._users[uid]
        except KeyError:
            raise UnknownUserError(uid) from None

    def location_of(self, uid: object) -> Point:
        return self._record(uid).point

    def profile_of(self, uid: object) -> PrivacyProfile:
        return self._record(uid).profile

    def users_in_rect(self, rect: Rect) -> int:
        return sum(1 for rec in self._users.values() if rect.contains_point(rec.point))

    def _population(self) -> TableSnapshot:
        """The record dict in the user table's snapshot shape."""
        records = self._users.values()
        lowest = [morton_of_cell(self.grid.cell_of(r.point)) for r in records]
        return TableSnapshot(
            tuple(self._users),
            np.array([r.point.x for r in records], dtype=np.float64),
            np.array([r.point.y for r in records], dtype=np.float64),
            np.array([r.profile.k for r in records], dtype=np.int64),
            np.array([r.profile.a_min for r in records], dtype=np.float64),
            np.array(lowest, dtype=np.int64),
        )


def branch_pairs(a: CellId, b: CellId, ancestor_level: int):
    """The ``(a-branch, b-branch)`` cell pairs at every level strictly
    below ``ancestor_level``, deepest first: exactly the counters a
    location update from cell ``a`` to cell ``b`` must touch (decrement
    the first of each pair, increment the second)."""
    for level in range(a.level, ancestor_level, -1):
        yield a, b
        if level - 1 > ancestor_level:
            a = a.parent()
            b = b.parent()


class CompletePyramidMaintainer:
    """The per-cell maintenance walk over a complete pyramid, moved out
    of production with its last host: apply a population delta along
    one root-to-leaf path, or move a user between two lowest-level
    cells by adjusting both branches below their common ancestor.  The
    host supplies ``_apply_cell(cell, delta)`` (one counter + its
    generation) and ``_commit(touched)`` (the epoch effects of the
    completed primitive)."""

    def _apply_delta(self, cell: CellId, delta: int) -> None:
        """Register/deregister: one delta along the root-to-leaf path."""
        path = self.grid.path_to_root(cell)
        for ancestor in path:
            self._apply_cell(ancestor, delta)
        self._commit(path)
        self.stats.counter_updates += cell.level + 1

    def _apply_branches(self, old: CellId, new: CellId, ancestor_level: int) -> int:
        """Movement: counters change on both branches strictly below the
        common ancestor; returns the counter-update cost."""
        touched: list[CellId] = []
        cost = 0
        for old_cell, new_cell in branch_pairs(old, new, ancestor_level):
            self._apply_cell(old_cell, -1)
            self._apply_cell(new_cell, +1)
            touched += (old_cell, new_cell)
            cost += 2
        self._commit(touched)
        return cost


class ReferenceBasic(_ReferenceHost, CompletePyramidMaintainer):
    """Complete pyramid as per-level ``(side, side)`` arrays ``[ix, iy]``
    plus a record dict, maintained by the per-cell walk, with one cloak
    cache and epoch per shard (``num_shards=1``: the single pyramid)."""

    label = "basic"

    def __init__(
        self,
        bounds: Rect,
        height: int = 9,
        cloak_cache_size: int = 8192,
        num_shards: int = 1,
    ):
        self._init_host(bounds, height, cloak_cache_size)
        self._counts = [
            np.zeros((1 << level, 1 << level), dtype=np.int64)
            for level in range(height + 1)
        ]
        self._gens = [np.zeros_like(arr) for arr in self._counts]
        self.router = ShardRouter(num_shards, height)
        self._caches = [self.cloak_cache] + [
            CloakCache(cloak_cache_size) for _ in range(num_shards - 1)
        ]
        self._shard_epochs = [0] * num_shards
        self._boundary_epoch = 0

    def _commit(self, touched: list[CellId]) -> None:
        """The composite-epoch rule, as a statement about cell sets:
        bump each shard owning a touched cell at level ``>= S``, and
        the boundary epoch iff any touched cell has level ``<= S``
        (block roots included — every cell a cloak starting in another
        shard can read)."""
        spine_level = self.router.spine_level
        for shard in {
            self.router.shard_of(c) for c in touched if c.level >= spine_level
        }:
            self._shard_epochs[shard] += 1
        if any(c.level <= spine_level for c in touched):
            self._boundary_epoch += 1

    def cloak(self, uid: object):
        record = self._record(uid)
        return self.cloak_location(record.point, record.profile)

    def cloak_location(self, point: Point, profile: PrivacyProfile):
        cell = self.grid.cell_of(point)
        shard = self.router.shard_of(cell)
        return self._cloak_via(
            self._caches[shard], self.cell_count, self._gen_of,
            (self._shard_epochs[shard], self._boundary_epoch), profile, cell,
        )

    def cache_stats_per_shard(self) -> dict[str, dict[str, int]]:
        rows = {str(i): cache_counters(c) for i, c in enumerate(self._caches)}
        rows["spine"] = dict.fromkeys(rows["0"], 0)
        return rows

    def cell_count(self, cell: CellId) -> int:
        return int(self._counts[cell.level][cell.ix, cell.iy])

    def _gen_of(self, cell: CellId) -> int:
        return int(self._gens[cell.level][cell.ix, cell.iy])

    def _apply_cell(self, cell: CellId, delta: int) -> None:
        self._counts[cell.level][cell.ix, cell.iy] += delta
        self._gens[cell.level][cell.ix, cell.iy] += 1

    def register(self, uid: object, point: Point, profile: PrivacyProfile) -> None:
        if uid in self._users:
            raise DuplicateUserError(uid)
        cell = self.grid.cell_of(point)
        self._users[uid] = _Record(profile, point, cell)
        self._apply_delta(cell, +1)
        self.stats.registrations += 1

    def deregister(self, uid: object) -> None:
        self._apply_delta(self._record(uid).cell, -1)
        del self._users[uid]
        self.stats.deregistrations += 1

    def set_profile(self, uid: object, profile: PrivacyProfile) -> None:
        self._record(uid).profile = profile

    def update(self, uid: object, point: Point) -> int:
        record = self._record(uid)
        new_cell = self.grid.cell_of(point)
        record.point = point
        self.stats.location_updates += 1
        if new_cell == record.cell:
            return 0
        ancestor_level = self.grid.common_ancestor_level(record.cell, new_cell)
        cost = self._apply_branches(record.cell, new_cell, ancestor_level)
        record.cell = new_cell
        self.stats.counter_updates += cost
        self.stats.cell_changes += 1
        return cost

    def snapshot(self) -> object:
        return _BasicSnapshot([arr.copy() for arr in self._counts], self._population())

    def restore(self, state: object) -> None:
        if not isinstance(state, _BasicSnapshot):
            raise TypeError("not a basic snapshot")
        self._counts = [arr.copy() for arr in state.counts]
        self._users = {
            uid: _Record(profile, point, self.grid.cell_of(point))
            for uid, point, profile in state.population.rows()
        }
        self._shard_epochs = [epoch + 1 for epoch in self._shard_epochs]
        self._boundary_epoch += 1
        for cache in self._caches:
            cache.clear()

    def check_invariants(self) -> None:
        for level, counts in enumerate(self._counts[:-1]):
            side = 1 << level
            summed = self._counts[level + 1].reshape(side, 2, side, 2).sum(axis=(1, 3))
            assert np.array_equal(counts, summed), f"level {level} != children sums"
        assert int(self._counts[0][0, 0]) == len(self._users)
        for uid, rec in self._users.items():
            assert rec.cell == self.grid.cell_of(rec.point), f"stale cell for {uid!r}"


# Section 4.2's decisions, one user at a time: bodies moved verbatim from
# production, where repro.anonymizer.soa's gate-table reductions
# (choose_split_vec / merge_blocked_vec, which carry the contract's
# docstrings) replaced them.
def choose_split(grid, leaf, count, users, point_of, profile_of):
    if not users:
        return None
    child_area = grid.cell_area(leaf.level + 1)
    # Cheap gate via the most relaxed user: if even the minimum
    # requirements in this cell rule out level i+1, skip the exact check.
    min_a = min(profile_of(u).a_min for u in users)
    min_k = min(profile_of(u).k for u in users)
    if child_area < min_a - 1e-15 or count < min_k:
        return None
    # Exact check: distribute users over the four children and test each
    # user against the child that would contain them.
    child_users: dict[CellId, set[object]] = {c: set() for c in leaf.children()}
    for uid in users:
        child_users[grid.cell_of(point_of(uid), leaf.level + 1)].add(uid)
    for child, members in child_users.items():
        for uid in members:
            if profile_of(uid).is_satisfied_by(len(members), child_area):
                return child_users, child
    return None


def merge_is_blocked(child_area, child_stats, profile_of):
    for count, users in child_stats:
        for uid in users:
            if profile_of(uid).is_satisfied_by(count, child_area):
                return True
    return False


class ReferenceAdaptive(_ReferenceHost, CutMaintainer):
    """The production cut maintainer over local dicts, deciding splits
    and merges with the scalar functions above (no gate table)."""

    label = "adaptive"

    def __init__(self, bounds: Rect, height: int = 9, cloak_cache_size: int = 8192):
        self._init_host(bounds, height, cloak_cache_size)
        self._cells: dict[CellId, CutCell] = {ROOT: CutCell()}
        self._gens: dict[CellId, int] = {}

    def cloak(self, uid: object):
        record = self._record(uid)
        return self._cloak_at(record.profile, record.cell)

    def cloak_location(self, point: Point, profile: PrivacyProfile):
        return self._cloak_at(profile, self.leaf_for_point(point))

    def _cloak_at(self, profile: PrivacyProfile, leaf: CellId):
        return self._cloak_via(
            self.cloak_cache, self.cell_count, self._gen_of, self._epoch, profile, leaf,
        )

    def _set_leaf(self, uids, leaf: CellId) -> None:
        for uid in uids:
            self._users[uid].cell = leaf

    def _profile_of(self, uid: object) -> PrivacyProfile:
        return self._users[uid].profile

    def _split_decision(self, leaf: CellId, entry: CutCell):
        return choose_split(
            self.grid, leaf, entry.count, entry.users,
            lambda uid: self._users[uid].point, self._profile_of,
        )

    def _merge_blocked(self, child_area: float, child_stats) -> bool:
        return merge_is_blocked(child_area, child_stats, self._profile_of)

    def cell_count(self, cell: CellId) -> int:
        entry = self._cells.get(cell)
        return entry.count if entry is not None else 0

    def _gen_of(self, cell: CellId) -> int:
        return self._gens.get(cell, 0)

    def register(self, uid: object, point: Point, profile: PrivacyProfile) -> None:
        if uid in self._users:
            raise DuplicateUserError(uid)
        leaf = self.leaf_for_point(point)
        self._users[uid] = _Record(profile, point, leaf)
        self._add_to_leaf(uid, leaf)
        self.stats.registrations += 1
        self._maybe_split(leaf)

    def deregister(self, uid: object) -> None:
        record = self._record(uid)
        self._remove_from_leaf(uid, record.cell)
        del self._users[uid]
        self.stats.deregistrations += 1
        self._maybe_merge(record.cell)

    def set_profile(self, uid: object, profile: PrivacyProfile) -> None:
        record = self._record(uid)
        record.profile = profile
        self._maybe_split(record.cell)
        self._maybe_merge(record.cell)

    def update(self, uid: object, point: Point) -> int:
        record = self._record(uid)
        new_leaf = self.leaf_for_point(point)  # locate, then write
        record.point = point
        self.stats.location_updates += 1
        if new_leaf == record.cell:
            return 0
        old_leaf = record.cell
        cost = self._move_between_leaves(uid, old_leaf, new_leaf)
        record.cell = new_leaf
        self.stats.counter_updates += cost
        self.stats.cell_changes += 1
        self._maybe_split(new_leaf)
        self._maybe_merge(old_leaf)
        return cost

    @staticmethod
    def _copy(cells: dict) -> dict:
        return {c: CutCell(e.count, e.is_leaf, set(e.users)) for c, e in cells.items()}

    def snapshot(self) -> object:
        return _AdaptiveSnapshot(self._copy(self._cells), self._population())

    def restore(self, state: object) -> None:
        if not isinstance(state, _AdaptiveSnapshot):
            raise TypeError("not an adaptive snapshot")
        self._cells = self._copy(state.cells)
        # The maintained-leaf pointers are a function of the cut: each
        # leaf names its users.
        self._users = {
            uid: _Record(profile, point, ROOT)
            for uid, point, profile in state.population.rows()
        }
        for cell, entry in self._cells.items():
            self._set_leaf(entry.users, cell)
        self._epoch += 1
        self.cloak_cache.clear()

    def check_invariants(self) -> None:
        """Cut consistency, stated independently of production."""
        under: dict[CellId, set] = {}  # every cell on a user's path -> its users
        for uid, rec in self._users.items():
            for cell in self.grid.path_to_root(self.grid.cell_of(rec.point)):
                under.setdefault(cell, set()).add(uid)
        for cell, entry in self._cells.items():
            below = under.get(cell, set())
            assert entry.count == len(below), f"{cell} count drift"
            assert entry.users == (below if entry.is_leaf else set()), f"{cell} users"
            assert entry.is_leaf or all(c in self._cells for c in cell.children())
            assert cell.is_root or not self._cells[cell.parent()].is_leaf
        for uid, rec in self._users.items():
            assert rec.cell == self.leaf_for_point(rec.point), f"stale leaf for {uid!r}"
