"""The *adaptive* location anonymizer (Section 4.2).

Maintains an *incomplete* pyramid [Aref & Samet 1990]: only cells that
could actually serve as cloaking regions for the current user population
exist.  The maintained cells form a quadtree cut — the root always
exists, and a cell is either a *leaf* (its children are not maintained)
or fully split (all four children maintained).  The per-user hash table
points at the lowest *maintained* cell, so both location updates and
Algorithm 1 touch far fewer cells than the basic anonymizer when users
have strict privacy profiles.

The cut is held on integer *locational keys*: the cell with Morton code
``m`` at level ``L`` is ``4**L + m``, so the root is ``1``, a parent is
``key >> 2``, the children are ``4 * key + i`` in
:meth:`~repro.anonymizer.cells.CellId.children` order, a key's level is
half its bit length, and a lowest-level key shifted right by
``2 * (H - L)`` is its level-``L`` ancestor.  A level-31 key is below
``2**63``, so the only height cap is the user table's
(``MAX_TABLE_HEIGHT``).  Four dicts hold the cut — every maintained
cell's population, every leaf's member slots (a key is a leaf iff it is
there), every leaf's gate summary and the cloak cache's generations —
and two columns of the user table's length hold each user's leaf key
and reach.  Algorithm 1 and the cloak cache speak the keys too: a
cache key starts at the user's leaf key, and the shared walk's cell
``(level, m)`` is read at ``4**level | m`` — its neighbours ``key ^ 1``
/ ``key ^ 2`` and its parent ``key >> 2`` are the walk's own ``m``
arithmetic.  ``CellId`` appears only in the regions returned and the
introspection and snapshot surface.

Section 4.2's two gates read a per-leaf summary before any member: the
least ``k`` among members whose *reach* (the deepest level whose cells
meet their ``A_min``) is the leaf's level or deeper, and the least among
those reaching below it.  The merge gate is one compare per sibling; a
leaf whose second number exceeds its population cannot split, and only
the leaves past that prune make one pass over their member set, where a
member's child index comes straight off its lowest-level Morton code
(``cells >> 2(H-L-1) & 3``, the locate-once identity); numpy builds
the children of a split that happens.  ``update_batch`` runs only the
moves that leave their leaf through that scalar path; after a split or
merge it re-tests only the later moves of the users it re-pointed.  The
per-user scalar decisions and the dict walk over ``CellId`` live on as
the test oracle ``tests/reference_pyramid.py``.  Sharded deployments
run whole replicas of this class (see :mod:`repro.sharding.replicated`)
— the cut is shaped by global counts, so there is no partitioned form.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from repro.anonymizer.cache import CloakCache
from repro.anonymizer.cells import CellId
from repro.anonymizer.cloak import CloakedRegion
from repro.anonymizer.engine import PyramidEngine
from repro.anonymizer.profile import PrivacyProfile
from repro.anonymizer.soa import IntArray, TableSnapshot
from repro.geometry import Point, Rect
from repro.morton import cell_of_morton, morton_rank

__all__ = ["AdaptiveAnonymizer"]

#: The root's key: level 0, Morton code 0.
ROOT = 1
#: A summary's "no such member": above every ``k`` and every population.
NONE = 1 << 62


def _key(cell: CellId) -> int:
    return (1 << 2 * cell.level) | morton_rank(cell)


def _level(key: int) -> int:
    return (key.bit_length() - 1) >> 1


def _cell(key: int) -> CellId:
    level = _level(key)
    return cell_of_morton(level, key ^ (1 << 2 * level))


def _levels(keys: IntArray) -> IntArray:
    """:func:`_level` of many keys.  ``frexp`` reads a bit length
    exactly below ``2**53``; a key at or above ``2**26`` is measured on
    its high part ``key >> 26`` instead, which is below ``2**37``."""
    high = keys >> 26
    low_bits = np.frexp(keys.astype(np.float64))[1]
    high_bits = np.frexp(high.astype(np.float64))[1] + 26
    return (np.where(high > 0, high_bits, low_bits) - 1) >> 1


@dataclass(frozen=True)
class _AdaptiveSnapshot:
    """By-value copy of an adaptive pyramid's population state.  A cut
    is fixed by its leaves; every count, member set and leaf pointer
    follows from them and the user table's rows."""

    leaves: frozenset[CellId]
    population: TableSnapshot


class AdaptiveAnonymizer(PyramidEngine):
    """Incomplete-pyramid location anonymizer."""

    label = "adaptive"

    def __init__(
        self,
        bounds: Rect,
        height: int = 9,
        cloak_cache_size: int = 8192,
    ) -> None:
        self._init_engine(bounds, height)
        #: The lowest level's key offset, ``4**H``.
        self._top = 1 << 2 * height
        #: The level areas ascending, the order :meth:`_reach_of` searches.
        self._ascending = self.grid.areas[::-1]
        self._counts: dict[int, int] = {ROOT: 0}
        self._members: dict[int, set[int]] = {ROOT: set()}
        #: leaf -> (least ``k`` among members reaching the leaf's level,
        #: least ``k`` among members reaching the level below), ``NONE``
        #: where no member does: the merge and split gates' summaries.
        self._least: dict[int, tuple[int, int]] = {ROOT: (NONE, NONE)}
        # Generation counters outlive the cells they describe: a merged
        # (deleted) cell's count reads as 0, which is still a change the
        # cloak cache must observe, so gens live in their own dict.
        self._gens: dict[int, int] = {}
        #: slot -> key of the user's lowest maintained cell.
        self._leaf: IntArray = np.full(self.table.capacity, ROOT, dtype=np.int64)
        #: slot -> the user's reach (see :meth:`_reach_of`).
        self._reach = np.zeros(self.table.capacity, dtype=np.int8)
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
        return len(self._counts)

    def leaf_cells(self) -> dict[CellId, int]:
        """The maintained cut's leaves and their populations."""
        return {_cell(key): len(slots) for key, slots in self._members.items()}

    def cell_count(self, cell: CellId) -> int:
        """Population of a *maintained* cell (0 for absent cells, which
        only occurs below the maintained cut, where the population would
        indeed require splitting to know)."""
        return self._counts.get(_key(cell), 0)

    def leaf_for_point(self, point: Point) -> CellId:
        """The maintained leaf containing ``point``."""
        lowest = self._top | morton_rank(self.grid.cell_of(point))
        return _cell(self._leaf_over(lowest))

    def _leaf_over(self, lowest: int) -> int:
        """Descend the cut to the leaf over the lowest-level key
        ``lowest``: its ancestor at each level is one shift away."""
        members, shift = self._members, self._top.bit_length() - 1
        while (key := lowest >> shift) not in members:
            shift -= 2
        return key

    # ------------------------------------------------------------------
    # Registration and location updates
    # ------------------------------------------------------------------
    def register(self, uid: object, point: Point, profile: PrivacyProfile) -> None:
        slot, _cell_id = self.table.admit(uid, point, profile)
        if slot >= len(self._leaf):
            extra = self.table.capacity - len(self._leaf)
            self._leaf = np.append(self._leaf, np.full(extra, ROOT, dtype=np.int64))
            self._reach = np.append(self._reach, np.zeros(extra, dtype=np.int8))
        reach = self._reach[slot] = self._reach_of(profile.a_min)
        leaf = self._leaf_over(self._top | int(self.table.cells[slot]))
        self._leaf[slot] = leaf
        self._members[leaf].add(slot)
        self._join(leaf, profile.k, reach)
        self._add_path(leaf, +1)
        self.stats.registrations += 1
        self._maybe_split(leaf)

    def deregister(self, uid: object) -> None:
        slot = self.table.remove(uid)
        leaf = int(self._leaf[slot])
        self._members[leaf].discard(slot)
        self._leave(leaf, slot)
        self._add_path(leaf, -1)
        self.stats.deregistrations += 1
        self._maybe_merge(leaf)

    def set_profile(self, uid: object, profile: PrivacyProfile) -> None:
        """Change a user's profile; may reshape the pyramid around them."""
        slot = self.table.set_profile(uid, profile)
        self._reach[slot] = self._reach_of(profile.a_min)
        leaf = int(self._leaf[slot])
        self._least[leaf] = self._least_of(self._members[leaf], _level(leaf))
        self._maybe_split(leaf)
        # Re-read: the split may have moved the user one or more levels down.
        self._maybe_merge(int(self._leaf[slot]))

    def update(self, uid: object, point: Point) -> int:
        """Process a location update; returns its counter-update cost."""
        slot, _old_m, new_m, _cell_id = self.table.move(uid, point)
        self.stats.location_updates += 1
        return self._relocate(slot, self._top | new_m)

    def update_batch(self, moves: list[tuple[object, Point]]) -> list[int]:
        """Apply a tick of location updates; returns the per-move costs.

        The end state, statistics and costs are the arrival-order
        :meth:`update` loop's.  A move is *quiet* when its new point
        stays in its user's leaf: the loop writes its row and touches
        nothing else.  The cut reshapes only at a *loud* move, and its
        split gate reads the cells of every earlier move and no later
        one (no gate reads coordinates, so those are written at once).
        So the kernel classifies every move with one vectorised compare,
        writes each run of quiet cells in bulk up to and including the
        next loud one, and runs that move through the scalar path.  A
        split or merge re-points *other* users' leaves, so it can change
        the class of those users' later moves, and only theirs: the
        kernel re-tests exactly those (a slot -> position map) and keeps
        the loud positions in a heap, each marked done when it runs.  A
        batch naming a user twice is the loop.  On the first unknown uid
        or out-of-bounds point every earlier move has been applied and
        the loop's exception is raised.
        """
        if len(moves) < 2 or len({uid for uid, _ in moves}) != len(moves):
            return [self.update(uid, point) for uid, point in moves]
        table, leaf_of = self.table, self._leaf
        slots, xs, ys, ms = table.locate_moves(moves)
        stop = len(slots)
        table.xs[slots], table.ys[slots] = xs, ys
        lowest, leaves = ms + self._top, leaf_of[slots]
        flags = (lowest >> 2 * (self.height - _levels(leaves))) != leaves
        heap, loud = np.flatnonzero(flags).tolist(), flags.tolist()
        slot_of, lowest_of = slots.tolist(), lowest.tolist()
        position = dict(zip(slot_of, range(stop)))
        costs, repointed, written = [0] * stop, [], 0
        width = self._top.bit_length()  # of every lowest-level key
        while heap:
            at = heappop(heap)
            if not loud[at]:
                continue
            loud[at] = False  # done: a re-pushed duplicate must not run again
            table.cells[slots[written : at + 1]] = ms[written : at + 1]
            written = at + 1
            costs[at] = self._relocate(slot_of[at], lowest_of[at], repointed)
            for group in repointed:
                for slot in group:
                    later = position.get(slot, 0)
                    if later > at:
                        leaf = leaf_of.item(slot)
                        shift = width - leaf.bit_length()
                        loud[later] = lowest_of[later] >> shift != leaf
                        if loud[later]:
                            heappush(heap, later)
            repointed.clear()
        table.cells[slots[written:]] = ms[written:]
        self.stats.location_updates += stop
        if stop < len(moves):
            self.update(*moves[stop])
            raise AssertionError("unreachable: single-move replay must raise")
        return costs

    def _relocate(
        self, slot: int, lowest: int, repointed: list[set[int]] | None = None
    ) -> int:
        """The cut's side of one written move; returns its cost.  The
        member sets a split or merge re-points go to ``repointed``."""
        old = self._leaf.item(slot)
        if lowest >> lowest.bit_length() - old.bit_length() == old:
            return 0
        new = self._leaf_over(lowest)
        members = self._members
        members[old].discard(slot)
        self._leave(old, slot)
        members[new].add(slot)
        self._join(new, self.table.ks.item(slot), self._reach.item(slot))
        # Both branches up to the deepest common ancestor (exclusive):
        # a deeper key is a larger one, so step whichever is larger.
        counts, gens, a, b, cost = self._counts, self._gens, old, new, 0
        while a != b:
            if a > b:
                counts[a] -= 1
                gens[a] = gens.get(a, 0) + 1
                a >>= 2
            else:
                counts[b] += 1
                gens[b] = gens.get(b, 0) + 1
                b >>= 2
            cost += 1
        self._epoch += 1
        self._leaf[slot] = new
        self.stats.counter_updates += cost
        self.stats.cell_changes += 1
        self._maybe_split(new, repointed)
        self._maybe_merge(old, repointed)
        return cost

    # ------------------------------------------------------------------
    # The gates' per-leaf summaries
    # ------------------------------------------------------------------
    def _reach_of(self, a_min: float) -> int:
        """The deepest level whose cells meet ``a_min``: the levels
        ``L`` with ``a_min - 1e-15 <= area(L)`` are ``0 .. reach``
        (``-1`` when none is)."""
        return len(self._ascending) - 1 - bisect_left(self._ascending, a_min - 1e-15)

    def _member_slots(self, leaf: int) -> IntArray:
        members = self._members[leaf]
        return np.fromiter(members, dtype=np.int64, count=len(members))

    def _least_of(self, slots: Iterable[int], level: int) -> tuple[int, int]:
        """The summary of a level-``level`` leaf holding ``slots``."""
        ks, reach, own, below = self.table.ks, self._reach, NONE, NONE
        for slot in slots:
            deepest = reach.item(slot)
            if deepest >= level:
                k = ks.item(slot)
                if k < own:
                    own = k
                if deepest > level and k < below:
                    below = k
        return own, below

    def _join(self, leaf: int, k: int, reach: int) -> None:
        """Fold a member of profile ``k`` / ``reach`` into ``leaf``'s
        summary."""
        level = _level(leaf)
        if reach >= level:
            own, below = self._least[leaf]
            if reach > level and k < below:
                self._least[leaf] = (min(own, k), k)
            elif k < own:
                self._least[leaf] = (k, below)

    def _leave(self, leaf: int, slot: int) -> None:
        """``slot`` has left ``leaf``'s members: recompute the summary
        if it held one of its two numbers."""
        level, reach = _level(leaf), self._reach.item(slot)
        if reach >= level and self.table.ks.item(slot) in self._least[leaf]:
            self._least[leaf] = self._least_of(self._members[leaf], level)

    def _add_path(self, leaf: int, delta: int) -> None:
        """``delta`` on ``leaf``'s count and every ancestor's."""
        counts, gens, key = self._counts, self._gens, leaf
        while key:
            counts[key] += delta
            gens[key] = gens.get(key, 0) + 1
            key >>= 2
        self._epoch += 1
        self.stats.counter_updates += _level(leaf) + 1

    # ------------------------------------------------------------------
    # Splitting and merging (Section 4.2's two gates)
    # ------------------------------------------------------------------
    def _maybe_split(self, leaf: int, repointed: list[set[int]] | None = None) -> None:
        """Split ``leaf`` (recursively) while some user inside could be
        satisfied one level deeper; continue at the first child (in
        ``CellId.children`` order) holding such a user.  No child holds
        more than the leaf, so a leaf whose least ``k`` reaching the
        next level exceeds its population cannot split; past that prune
        the gate counts the members per child in one pass over the
        member set.  Both are reductions over that set, so they never
        depend on its iteration order."""
        table, members, least = self.table, self._members, self._least
        cells, ks, reach = table.cells, table.ks, self._reach
        while True:
            group = members[leaf]
            if least[leaf][1] > len(group):
                return
            level, shift = _level(leaf), self._top.bit_length() - leaf.bit_length() - 2
            sizes, deeper = [0, 0, 0, 0], []
            for slot in group:
                child = cells.item(slot) >> shift & 3
                sizes[child] += 1
                if reach.item(slot) > level:
                    deeper.append((child, ks.item(slot)))
            satisfied = [child for child, k in deeper if k <= sizes[child]]
            if not satisfied:
                return
            slots = self._member_slots(leaf)
            order = (cells[slots] >> shift) & 3
            del members[leaf], least[leaf]
            for index in range(4):
                child, part = 4 * leaf + index, slots[order == index]
                members[child] = set(part.tolist())
                least[child] = self._least_of(members[child], level + 1)
                self._counts[child] = len(part)
                # The child's count was readable as 0 while unmaintained;
                # materialising it is a visible change for cached cloaks.
                self._gens[child] = self._gens.get(child, 0) + 1
                self._leaf[part] = child
            if repointed is not None:
                repointed.append(group)
            self._epoch += 1
            self.stats.splits += 1
            # Restructuring cost: four new counters plus one hash-table
            # relocation per affected user.
            self.stats.counter_updates += 4 + len(group)
            leaf = 4 * leaf + min(satisfied)

    def _maybe_merge(self, leaf: int, repointed: list[set[int]] | None = None) -> None:
        """Merge ``leaf``'s sibling group (recursively upward) while no
        user under the parent has a profile their child satisfies: no
        child's least ``k`` reaching its own level is within its
        population."""
        members, least = self._members, self._least
        while leaf != ROOT:
            parent = leaf >> 2
            children = range(4 * parent, 4 * parent + 4)
            for child in children:
                summary = least.get(child)
                if summary is None or summary[0] <= len(members[child]):
                    return
            group = members[parent] = set().union(*(members.pop(c) for c in children))
            least[parent] = self._least_of(group, _level(parent))
            self._leaf[self._member_slots(parent)] = parent
            if repointed is not None:
                repointed.append(group)
            for child in children:
                del least[child], self._counts[child]
                # Deleted cells read as count 0 from now on.
                self._gens[child] = self._gens.get(child, 0) + 1
            self._epoch += 1
            self.stats.merges += 1
            self.stats.counter_updates += 4 + len(group)
            leaf = parent

    # ------------------------------------------------------------------
    # Cloaking
    # ------------------------------------------------------------------
    def cloak(self, uid: object) -> CloakedRegion:
        """Blur ``uid``'s location, starting Algorithm 1 from their
        lowest *maintained* cell."""
        table = self.table
        slot = table.require(uid)
        return self._cloak_key(
            self._leaf.item(slot), table.ks.item(slot), table.a_mins.item(slot)
        )

    def cloak_location(self, point: Point, profile: PrivacyProfile) -> CloakedRegion:
        """One-shot cloak of an arbitrary location (query anonymization)."""
        lowest = self._top | morton_rank(self.grid.cell_of(point))
        return self._cloak_key(self._leaf_over(lowest), profile.k, profile.a_min)

    def _start(self, leaf: int) -> tuple[int, int]:
        level = _level(leaf)
        return level, leaf ^ (1 << 2 * level)

    def _count_at(self, level: int, m: int) -> int:
        return self._counts.get(1 << 2 * level | m, 0)

    def _gen_at(self, level: int, m: int) -> int:
        return self._gens.get(1 << 2 * level | m, 0)

    # ------------------------------------------------------------------
    # Crash recovery (snapshot/restore of incomplete pyramid + users)
    # ------------------------------------------------------------------
    def snapshot(self) -> object:
        """An opaque copy of the cut's leaves and the user table for
        crash recovery.  Generation counters and statistics are
        excluded — they are monotone observability state."""
        leaves = frozenset(_cell(key) for key in self._members)
        return _AdaptiveSnapshot(leaves, self.table.snapshot())

    def restore(self, state: object) -> None:
        """Replace the population state with a :meth:`snapshot` copy.

        Counts, members, leaf pointers, reaches and summaries are
        rebuilt from the leaves and the rows.  Generations stay monotone
        and the cloak cache is dropped — the maintained cut changed
        without generation bumps, so every cached entry is suspect.
        """
        if not isinstance(state, _AdaptiveSnapshot):
            raise TypeError("not an AdaptiveAnonymizer snapshot")
        table = self.table
        table.restore(state.population)
        slots = table.ordered_slots()
        lowest = table.cells[slots] + self._top
        leaves = [_key(cell) for cell in state.leaves]
        self._leaf = np.full(table.capacity, ROOT, dtype=np.int64)
        for level in {_level(key) for key in leaves}:
            under = lowest >> 2 * (self.height - level)
            hit = np.isin(under, [key for key in leaves if _level(key) == level])
            self._leaf[slots[hit]] = under[hit]
        self._members = {key: set() for key in leaves}
        for slot, leaf in zip(slots.tolist(), self._leaf[slots].tolist()):
            self._members[leaf].add(slot)
        self._reach = np.zeros(table.capacity, dtype=np.int8)
        self._reach[slots] = [self._reach_of(a) for a in table.a_mins[slots].tolist()]
        self._least = {
            leaf: self._least_of(members, _level(leaf))
            for leaf, members in self._members.items()
        }
        self._counts = {}
        for leaf, members in self._members.items():
            key = leaf
            while key:
                self._counts[key] = self._counts.get(key, 0) + len(members)
                key >>= 2
        self._epoch += 1
        self.cloak_cache.clear()

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert incomplete-pyramid consistency, every reach and every
        summary against a recount from the profiles."""
        table, counts, height = self.table, self._counts, self.height
        table.check()
        areas = np.array(self.grid.areas)
        floors = table.a_mins[table.active] - 1e-15
        reach = np.count_nonzero(floors[:, None] <= areas, axis=1) - 1
        assert np.array_equal(self._reach[table.active], reach), "stale reach"
        assert self._least.keys() == self._members.keys(), "summary not a leaf's"
        assert counts.get(ROOT) == len(table), "root count != population"
        assert self._members.keys() <= counts.keys(), "leaf not maintained"
        population = 0
        for key, count in counts.items():
            members = self._members.get(key)
            if members is not None:
                assert count == len(members), f"leaf {key} count drift"
                population += count
                slots = self._member_slots(key)
                assert table.active[slots].all(), f"leaf {key} holds a free slot"
                assert (self._leaf[slots] == key).all(), "hash table stale"
                under = (table.cells[slots] + self._top) >> 2 * (height - _level(key))
                assert (under == key).all(), "user outside its leaf"
                assert 4 * key not in counts, "leaf with children"
                # The least k meeting the leaf's level and the next one.
                level, ks = _level(key), table.ks[slots]
                least = [
                    int(ks[table.a_mins[slots] - 1e-15 <= area].min(initial=NONE))
                    for area in self.grid.areas[level : level + 2]
                ] + [NONE]
                assert self._least[key] == tuple(least[:2]), f"leaf {key} summary stale"
            else:
                children = range(4 * key, 4 * key + 4)
                assert all(c in counts for c in children), "partial split"
                assert count == sum(counts[c] for c in children), (
                    f"internal {key} count != children sum"
                )
            if key != ROOT:
                assert key >> 2 in counts, "orphan maintained cell"
                assert key >> 2 not in self._members, "parent is leaf"
        assert population == len(table), "population drift"
