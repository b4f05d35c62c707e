"""The scalar reference pyramids — test oracles, not production code.

The per-object implementations the structure-of-arrays anonymizers
replaced: one python record per user, one ``CellId`` walk per update,
per-user profile checks.  They speak the production API the differential
driver exercises and the production snapshot formats (the population
half is the user table's by-value ``TableSnapshot``, built here from
the record dict), so ``test_reference_equivalence.py`` runs oracle and
production in lockstep.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass, field

from repro.anonymizer.adaptive import _AdaptiveSnapshot
from repro.anonymizer.basic import _BasicSnapshot
from repro.anonymizer.cache import CloakCache
from repro.anonymizer.cells import CellId
from repro.anonymizer.engine import PyramidEngine
from repro.anonymizer.profile import PrivacyProfile
from repro.anonymizer.soa import TableSnapshot
from repro.errors import DuplicateUserError, UnknownUserError
from repro.geometry import Point, Rect
from repro.morton import cell_of_morton, morton_of_cell


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
    table stays empty), one cloak cache and one mutation epoch."""

    def _init_host(self, bounds: Rect, height: int, cloak_cache_size: int) -> None:
        self._init_engine(bounds, height)
        self._users: dict = {}
        self._epoch = 0
        self.cloak_cache = CloakCache(cloak_cache_size)

    def _cloak_at(self, profile: PrivacyProfile, start: CellId):
        """The engine's memo path, the key's leaf ``(level, Morton code)``."""
        leaf = start.level, morton_of_cell(start)
        return self._cloak_key(leaf, profile.k, profile.a_min)

    def _start(self, leaf):
        return leaf

    def _count_at(self, level: int, m: int) -> int:
        return self.cell_count(cell_of_morton(level, m))

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
    generation) and an ``_epoch`` that each completed primitive
    bumps."""

    def _apply_delta(self, cell: CellId, delta: int) -> None:
        """Register/deregister: one delta along the root-to-leaf path."""
        path = self.grid.path_to_root(cell)
        for ancestor in path:
            self._apply_cell(ancestor, delta)
        self._epoch += 1
        self.stats.counter_updates += cell.level + 1

    def _apply_branches(self, old: CellId, new: CellId, ancestor_level: int) -> int:
        """Movement: counters change on both branches strictly below the
        common ancestor; returns the counter-update cost."""
        cost = 0
        for old_cell, new_cell in branch_pairs(old, new, ancestor_level):
            self._apply_cell(old_cell, -1)
            self._apply_cell(new_cell, +1)
            cost += 2
        self._epoch += 1
        return cost


class ReferenceBasic(_ReferenceHost, CompletePyramidMaintainer):
    """Complete pyramid as per-level ``(side, side)`` arrays ``[ix, iy]``
    plus a record dict, maintained by the per-cell walk."""

    label = "basic"

    def __init__(self, bounds: Rect, height: int = 9, cloak_cache_size: int = 8192):
        self._init_host(bounds, height, cloak_cache_size)
        self._counts = [
            np.zeros((1 << level, 1 << level), dtype=np.int64)
            for level in range(height + 1)
        ]
        self._gens = [np.zeros_like(arr) for arr in self._counts]

    def cloak(self, uid: object):
        record = self._record(uid)
        return self.cloak_location(record.point, record.profile)

    def cloak_location(self, point: Point, profile: PrivacyProfile):
        return self._cloak_at(profile, self.grid.cell_of(point))

    def cell_count(self, cell: CellId) -> int:
        return int(self._counts[cell.level][cell.ix, cell.iy])

    def _gen_at(self, level: int, m: int) -> int:
        cell = cell_of_morton(level, m)
        return int(self._gens[level][cell.ix, cell.iy])

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
        self._epoch += 1
        self.cloak_cache.clear()

    def check_invariants(self) -> None:
        for level, counts in enumerate(self._counts[:-1]):
            side = 1 << level
            summed = self._counts[level + 1].reshape(side, 2, side, 2).sum(axis=(1, 3))
            assert np.array_equal(counts, summed), f"level {level} != children sums"
        assert int(self._counts[0][0, 0]) == len(self._users)
        for uid, rec in self._users.items():
            assert rec.cell == self.grid.cell_of(rec.point), f"stale cell for {uid!r}"


@dataclass
class CutCell:
    """One maintained cell of the reference cut: its population and,
    while it is a leaf, its users (internal cells keep just the count,
    the paper's ``(cid, N)``)."""

    count: int = 0
    is_leaf: bool = True
    users: set = field(default_factory=set)


ROOT = CellId(0, 0, 0)


class ReferenceAdaptive(_ReferenceHost):
    """The incomplete pyramid as a ``dict[CellId, CutCell]`` walked one
    cell at a time, deciding splits and merges one user at a time — an
    independent statement of what production does on integer keys and
    table columns."""

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

    def cell_count(self, cell: CellId) -> int:
        entry = self._cells.get(cell)
        return entry.count if entry is not None else 0

    def _gen_at(self, level: int, m: int) -> int:
        return self._gens.get(cell_of_morton(level, m), 0)

    def _bump(self, cell: CellId) -> None:
        self._gens[cell] = self._gens.get(cell, 0) + 1

    def leaf_for_point(self, point: Point) -> CellId:
        """Descend the cut, locating the point afresh at every level
        (the root too: that is the bounds check)."""
        cell = self.grid.cell_of(point, 0)
        while not self._cells[cell].is_leaf:
            cell = self.grid.cell_of(point, cell.level + 1)
        return cell

    # -- the walk --------------------------------------------------------
    def _add_path(self, uid: object, leaf: CellId, delta: int) -> None:
        if delta > 0:
            self._cells[leaf].users.add(uid)
        else:
            self._cells[leaf].users.discard(uid)
        path = self.grid.path_to_root(leaf)
        for cell in path:
            self._cells[cell].count += delta
            self._bump(cell)
        self._epoch += 1
        self.stats.counter_updates += len(path)

    def _move_between_leaves(self, uid: object, old: CellId, new: CellId) -> int:
        self._cells[old].users.discard(uid)
        self._cells[new].users.add(uid)
        new_path = self.grid.path_to_root(new)
        old_path = self.grid.path_to_root(old)
        common = next(cell for cell in old_path if cell in new_path)
        cost = 0
        for path, delta in ((old_path, -1), (new_path, +1)):
            for cell in path[: path.index(common)]:
                self._cells[cell].count += delta
                self._bump(cell)
                cost += 1
        self._epoch += 1
        return cost

    def _maybe_split(self, leaf: CellId) -> None:
        while True:
            entry = self._cells.get(leaf)
            if entry is None or not entry.is_leaf or leaf.level >= self.height:
                return
            decision = self._split_decision(leaf, entry)
            if decision is None:
                return
            child_users, leaf = decision
            entry.is_leaf, entry.users = False, set()
            for child, members in child_users.items():
                self._cells[child] = CutCell(len(members), True, members)
                self._bump(child)
                for uid in members:
                    self._users[uid].cell = child
            self._epoch += 1
            self.stats.splits += 1
            self.stats.counter_updates += 4 + sum(map(len, child_users.values()))

    def _split_decision(self, leaf: CellId, entry: CutCell):
        """Section 4.2's split criterion: the users over the children
        and the first child satisfying one of its own, or ``None``."""
        users, profile_of = entry.users, self.profile_of
        if not users:
            return None
        child_area = self.grid.cell_area(leaf.level + 1)
        # Cheap gate via the most relaxed user: if even the minimum
        # requirements in this cell rule out level i+1, skip the exact check.
        min_a = min(profile_of(u).a_min for u in users)
        min_k = min(profile_of(u).k for u in users)
        if child_area < min_a - 1e-15 or entry.count < min_k:
            return None
        # Exact check: distribute users over the four children and test each
        # user against the child that would contain them.
        child_users: dict[CellId, set] = {c: set() for c in leaf.children()}
        for uid in users:
            child_users[self.grid.cell_of(self.location_of(uid), leaf.level + 1)].add(uid)
        for child, members in child_users.items():
            for uid in members:
                if profile_of(uid).is_satisfied_by(len(members), child_area):
                    return child_users, child
        return None

    def _maybe_merge(self, leaf: CellId) -> None:
        while leaf.level > 0:
            parent = leaf.parent()
            children = parent.children()
            entries = [self._cells.get(c) for c in children]
            if any(e is None or not e.is_leaf for e in entries):
                return
            # A child level is still needed if any user in any child has
            # a profile that child satisfies.
            child_area = self.grid.cell_area(leaf.level)
            if any(
                self.profile_of(uid).is_satisfied_by(e.count, child_area)
                for e in entries for uid in e.users
            ):
                return
            merged = set().union(*(e.users for e in entries))
            self._cells[parent].is_leaf, self._cells[parent].users = True, merged
            for uid in merged:
                self._users[uid].cell = parent
            for child in children:
                del self._cells[child]
                self._bump(child)
            self._epoch += 1
            self.stats.merges += 1
            self.stats.counter_updates += 4 + len(merged)
            leaf = parent

    # -- the production API ------------------------------------------------
    def register(self, uid: object, point: Point, profile: PrivacyProfile) -> None:
        if uid in self._users:
            raise DuplicateUserError(uid)
        leaf = self.leaf_for_point(point)
        self._users[uid] = _Record(profile, point, leaf)
        self._add_path(uid, leaf, +1)
        self.stats.registrations += 1
        self._maybe_split(leaf)

    def deregister(self, uid: object) -> None:
        record = self._record(uid)
        self._add_path(uid, record.cell, -1)
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

    def snapshot(self) -> object:
        leaves = frozenset(c for c, e in self._cells.items() if e.is_leaf)
        return _AdaptiveSnapshot(leaves, self._population())

    def restore(self, state: object) -> None:
        """Rebuild the cut from its leaves: each user belongs to the
        leaf their point lies in, and every ancestor of a leaf is an
        internal cell counting the users below it."""
        if not isinstance(state, _AdaptiveSnapshot):
            raise TypeError("not an adaptive snapshot")
        self._cells = {leaf: CutCell() for leaf in state.leaves}
        for leaf in state.leaves:
            for cell in self.grid.path_to_root(leaf)[1:]:
                self._cells.setdefault(cell, CutCell(is_leaf=False))
        self._users = {}
        for uid, point, profile in state.population.rows():
            leaf = self.leaf_for_point(point)
            self._users[uid] = _Record(profile, point, leaf)
            self._cells[leaf].users.add(uid)
            for cell in self.grid.path_to_root(leaf):
                self._cells[cell].count += 1
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
