"""The *basic* location anonymizer (Section 4.1).

Maintains a complete pyramid: every level from the root down to the
configured height holds a counter per grid cell, kept consistent under
continuous location updates.  A hash table maps each registered user to
``(profile, lowest-level cell)``.  Cloaking runs Algorithm 1 starting
from the user's lowest-level cell.

The pyramid is held as per-level flat Morton-indexed numpy arrays and
the user table as parallel arrays (:mod:`repro.anonymizer.soa`), with a
batched update kernel (:meth:`BasicAnonymizer.update_batch`) for
per-tick streams.  The per-object scalar pyramid it replaced lives on as
the test oracle ``tests/reference_pyramid.py``; the spec machine
(``tests/test_spec_machine.py``) runs the two as lanes, bit-identical
on every operation, snapshot and cache epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

import numpy as np

from repro.anonymizer.cache import CloakCache, Epoch
from repro.anonymizer.cells import CellId
from repro.anonymizer.cloak import (
    Climbed,
    CloakedRegion,
    bottom_up_cloak,
    bottom_up_cloaks,
)
from repro.anonymizer.engine import PyramidEngine
from repro.anonymizer.profile import PrivacyProfile
from repro.anonymizer.soa import IntArray, PyramidSoA, TableSnapshot
from repro.errors import ProfileUnsatisfiableError
from repro.geometry import Point, Rect
from repro.morton import cell_of_morton, morton_of_xy
from repro.observability import runtime as _telemetry
from repro.utils.timer import monotonic

__all__ = ["BasicAnonymizer"]

#: A cloak-cache key of the complete pyramid: ``(leaf Morton, k, A_min)``.
_Key = tuple[int, int, float]

#: The kernel takes a cache's distinct misses from this many up; fewer
#: are walked one by one.  The measured crossover: ``tools/bench.py``
#: ``cloak.kernel_crossover_rows``.  A batch of fewer rows cannot reach
#: it and skips the grouping too (~8 µs of array set-up, five one-row
#: hits' worth — the ad-hoc cloak of a frame endpoint is such a batch).
_KERNEL_ROWS = 8


@dataclass(frozen=True, eq=False)
class _BasicSnapshot:
    """Deep copy of a :class:`BasicAnonymizer`'s population state.

    The format is representation-independent — counts as per-level
    ``(side, side)`` arrays indexed ``[ix, iy]`` plus the user table's
    own by-value snapshot — so the reference pyramid and this class
    restore each other's snapshots (part of the equivalence contract).
    Snapshots compare by value (the generated dataclass ``==`` cannot
    compare a list of arrays) and, holding mutable state, do not hash.
    """

    counts: list[IntArray]
    population: TableSnapshot

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _BasicSnapshot):
            return NotImplemented
        return (
            self.population == other.population
            and len(self.counts) == len(other.counts)
            and all(map(np.array_equal, self.counts, other.counts))
        )


class BasicAnonymizer(PyramidEngine):
    """Complete-pyramid location anonymizer.

    Parameters
    ----------
    bounds:
        The service area.
    height:
        Pyramid height ``H``; the lowest level has ``4**H`` cells.
        Capped at :data:`~repro.anonymizer.soa.MAX_SOA_HEIGHT` (the
        level arrays are complete); deeper pyramids raise
        ``ValueError`` — use the adaptive policy there.
    """

    label = "basic"

    def __init__(
        self,
        bounds: Rect,
        height: int = 9,
        cloak_cache_size: int = 8192,
    ) -> None:
        self._init_pyramid(bounds, height)
        self._epoch = 0
        self.cloak_cache = CloakCache(cloak_cache_size)

    def _init_pyramid(self, bounds: Rect, height: int) -> None:
        """The population state: the engine's grid, statistics and
        user table plus flat Morton-indexed per-level count/generation
        arrays (the constructor enforces the height cap); see
        :mod:`repro.anonymizer.soa` for the layout.  Cache and epoch
        state is the host's — one of each here, one per shard in
        :class:`~repro.sharding.basic.ShardedBasicAnonymizer`."""
        self._init_engine(bounds, height)
        self._soa = PyramidSoA(height)

    # ------------------------------------------------------------------
    # The mutation seam: what did this mutation touch?
    #
    # Every count write funnels through one of these four calls — once
    # per mutation or per batch, never per level — so a host that keys
    # its caches more finely than "anything changed" (the sharded
    # fleet's per-shard and boundary epochs) overrides them and inherits
    # the kernels untouched.
    # ------------------------------------------------------------------
    def _touched_chain(self, m: int, delta: int) -> None:
        """A user registered (``delta`` +1) or deregistered (-1) at
        leaf ``m``: its whole ancestor chain changed."""
        self._epoch += 1

    def _touched_move(self, old_m: int, new_m: int) -> None:
        """A user moved between two different leaves: both branches
        below their common ancestor changed."""
        self._epoch += 1

    def _touched_moves(self, old_ms: IntArray, new_ms: IntArray) -> None:
        """A batch of distinct users moved (``old_ms[i] == new_ms[i]``
        where a move stayed in its cell)."""
        self._epoch += int(np.count_nonzero(old_ms != new_ms))

    def _touched_all(self) -> None:
        """A restore rewrote counts without generation bumps: every
        cached cloak is suspect."""
        self._epoch += 1
        self.cloak_cache.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cell_count(self, cell: CellId) -> int:
        """The number of users currently inside ``cell``."""
        return self._soa.count_of(cell.level, morton_of_xy(cell.ix, cell.iy))

    # ------------------------------------------------------------------
    # Registration and location updates
    # ------------------------------------------------------------------
    def register(self, uid: object, point: Point, profile: PrivacyProfile) -> None:
        """Register a new user at ``point`` with the given profile."""
        slot, _cell = self.table.admit(uid, point, profile)
        self._chain(int(self.table.cells[slot]), +1)
        self.stats.registrations += 1

    def deregister(self, uid: object) -> None:
        """Remove a user entirely (quitting the service)."""
        slot = self.table.remove(uid)
        self._chain(int(self.table.cells[slot]), -1)
        self.stats.deregistrations += 1

    def _chain(self, m: int, delta: int) -> None:
        self._soa.apply_chain(m, delta)
        self._touched_chain(m, delta)
        self.stats.counter_updates += self.height + 1

    def update(self, uid: object, point: Point) -> int:
        """Process a location update; returns the number of counter
        updates it required (the Figure 10b cost unit)."""
        _slot, old_m, new_m, _cell = self.table.move(uid, point)
        self.stats.location_updates += 1
        if new_m == old_m:
            return 0
        cost = self._soa.move_chain(old_m, new_m)
        self._touched_move(old_m, new_m)
        self.stats.counter_updates += cost
        self.stats.cell_changes += 1
        return cost

    def update_batch(self, moves: list[tuple[object, Point]]) -> list[int]:
        """Apply a tick's worth of location updates in one kernel pass.

        Distinct users' updates commute — counter deltas, generation
        bumps and epoch advances are all additive and no cloak
        interleaves — so the end state and the returned per-move costs
        are identical to the sequential :meth:`update` loop (the
        reference pyramid's implementation).  A batch naming the same
        user twice is order-sensitive and falls back to arrival order.

        Error semantics also match the sequential loop: on the first
        unknown uid or out-of-bounds point, every earlier move has been
        applied and the same exception is raised.
        """
        if len(moves) < 2:
            return [self.update(uid, point) for uid, point in moves]
        if len({uid for uid, _ in moves}) != len(moves):
            return [self.update(uid, point) for uid, point in moves]
        old_ms, new_ms = self.table.apply_moves(moves)
        stop = len(old_ms)
        costs = self._soa.apply_moves(old_ms, new_ms)
        self._touched_moves(old_ms, new_ms)
        self.stats.add_moves(costs)
        if stop < len(moves):
            # Replay the failing move through the single-move path so the
            # exception (unknown uid before out-of-bounds, matching the
            # sequential loop) is raised with applied-prefix state.
            uid, point = moves[stop]
            self.update(uid, point)
            raise AssertionError("unreachable: single-move replay must raise")
        per_move: list[int] = costs.tolist()
        return per_move

    # ------------------------------------------------------------------
    # Cloaking: a function of one table row — ``(leaf Morton, k,
    # A_min)``, as plain numbers the cache key, so a hit builds nothing
    # — and of the counts above that leaf.
    # ------------------------------------------------------------------
    def cloak(self, uid: object) -> CloakedRegion:
        """Blur ``uid``'s current location per their privacy profile."""
        table = self.table
        slot = table.require(uid)
        return self._cloak_row(
            int(table.cells[slot]), int(table.ks[slot]), float(table.a_mins[slot])
        )

    def cloak_location(self, point: Point, profile: PrivacyProfile) -> CloakedRegion:
        """Blur an arbitrary location under ``profile`` without
        registering it — used for one-shot query cloaking."""
        cell = self.grid.cell_of(point)
        return self._cloak_row(morton_of_xy(cell.ix, cell.iy), profile.k, profile.a_min)

    def _cloak_row(self, m: int, k: int, a_min: float) -> CloakedRegion:
        cache, epoch, shard = self._cache_of(int(self._owners_of(m)))
        return self._instrumented_cloak(
            lambda: self._memoized(cache, epoch, (m, k, a_min)), k, a_min, shard
        )

    def cloak_many(
        self, uids: Iterable[object], unsatisfiable: CloakedRegion | None = None
    ) -> list[CloakedRegion]:
        """Cloak a batch of users: the contract — and, below
        :data:`_KERNEL_ROWS` rows, the loop — of :meth:`BatchCloaking
        .cloak_many <repro.anonymizer.cloak.BatchCloaking.cloak_many>`.

        A larger batch is served cache by cache: the keys a cache
        cannot vouch for are climbed together by
        :func:`~repro.anonymizer.cloak.bottom_up_cloaks`, then every
        row takes the step a lone :meth:`cloak` takes, in arrival
        order, and finds its miss computed — so regions, ``stats``,
        cache counters, LRU order and telemetry events are the loop's.
        """
        uids = list(uids)
        if len(uids) < _KERNEL_ROWS:
            return super().cloak_many(uids, unsatisfiable)
        table = self.table
        slots = table.slots_array(uids)
        ms, ks, a_mins = table.cells[slots], table.ks[slots], table.a_mins[slots]
        keys = list(zip(ms.tolist(), ks.tolist(), a_mins.tolist()))
        regions: list[Any] = [unsatisfiable] * len(keys)
        failures: dict[int, ProfileUnsatisfiableError] = {}
        owners = self._owners_of(ms)
        for owner in np.unique(owners).tolist():
            rows = np.flatnonzero(owners == owner).tolist()
            outcomes = self._cloak_rows(owner, [keys[row] for row in rows])
            for row, outcome in zip(rows, outcomes):
                if isinstance(outcome, CloakedRegion):
                    regions[row] = outcome
                else:
                    failures[row] = outcome
        self.stats.cloak_requests += len(keys)
        if failures and unsatisfiable is None:
            raise failures[min(failures)]
        return regions

    def _cloak_rows(
        self, owner: int, keys: list[_Key]
    ) -> list[CloakedRegion | ProfileUnsatisfiableError]:
        """The rows ``owner``'s cache serves, in arrival order; an
        unsatisfiable row yields the exception its :meth:`cloak`
        raises."""
        cache, epoch, shard = self._cache_of(owner)
        started = monotonic()
        missing = [
            key
            for key in dict.fromkeys(keys)
            if not (cache.capacity and cache.holds(key, epoch, self._fresh))
        ]
        climbed: dict[_Key, Climbed | None] = {}
        if len(missing) >= _KERNEL_ROWS:
            soa, columns = self._soa, map(np.array, zip(*missing))
            results = bottom_up_cloaks(self.grid, soa.counts, soa.gens, *columns)
            climbed = dict(zip(missing, results))
        outcomes: list[CloakedRegion | ProfileUnsatisfiableError] = []
        for key in keys:
            try:
                outcomes.append(self._memoized(cache, epoch, key, climbed))
            except ProfileUnsatisfiableError as exc:
                outcomes.append(exc)
        if _telemetry.active() is not None:
            share = (monotonic() - started) / len(keys)
            for (_m, k, a_min), outcome in zip(keys, outcomes):
                if isinstance(outcome, CloakedRegion):
                    self._note_cloak(share, outcome, k, a_min, shard)
        return outcomes

    def _memoized(
        self,
        cache: CloakCache,
        epoch: Epoch,
        key: _Key,
        climbed: Mapping[_Key, Climbed | None] | None = None,
    ) -> CloakedRegion:
        """One row's cloak through its cache: served, or computed
        (by the kernel already, else walked here) and stored."""
        if cache.capacity:
            region = cache.lookup(key, epoch, self._fresh)
            if region is not None:
                return region
        region, reads = (climbed and climbed.get(key)) or self._walk(
            *key, record=cache.capacity > 0
        )
        if cache.capacity:
            cache.store(key, region, reads, epoch)
        return region

    def _walk(self, m: int, k: int, a_min: float, record: bool) -> Climbed:
        """:func:`bottom_up_cloak` from leaf ``m``, with (to ``record``
        in a cache entry) the generation of every count it read."""
        soa = self._soa
        reads: list[int] = []

        def count(cell: CellId) -> int:
            at = morton_of_xy(cell.ix, cell.iy)
            reads.append(soa.gen_of(cell.level, at))
            return soa.count_of(cell.level, at)

        region = bottom_up_cloak(
            self.grid,
            count if record else self.cell_count,
            PrivacyProfile(k, a_min),
            cell_of_morton(self.height, m),
        )
        return region, tuple(reads)

    def _fresh(self, key: _Key, reads: tuple[int, ...]) -> bool:
        """Whether every count an entry read still has the generation
        recorded with it.  The cells follow from the key's leaf: per
        level the cell, then — unless the walk settled there alone,
        the last level only — its two neighbours."""
        m, level = key[0], self.height
        for first in range(0, len(reads), 3):
            gens = self._soa.gens[level]
            if gens[m] != reads[first] or (
                first + 1 < len(reads)
                and (gens[m ^ 1] != reads[first + 1] or gens[m ^ 2] != reads[first + 2])
            ):
                return False
            m, level = m >> 2, level - 1
        return True

    def _owners_of(self, ms: Any) -> Any:
        """Which cache serves the cloaks that start at ``ms`` — one
        leaf Morton code or an array of them: a label per leaf.  One
        cache here, so label 0 in the argument's shape; the fleet
        answers the owning shard."""
        return ms & 0

    def _cache_of(self, owner: int) -> tuple[CloakCache, Epoch, int | None]:
        """The cache :meth:`_owners_of` labels ``owner``, its current
        epoch and the shard to attribute its cloaks to."""
        return self.cloak_cache, self._epoch, None

    # ------------------------------------------------------------------
    # Crash recovery (snapshot/restore of pyramid + user table)
    # ------------------------------------------------------------------
    def snapshot(self) -> object:
        """An opaque, immutable-by-convention copy of the anonymizer's
        state (counters + user table) for crash recovery.  Generation
        counters and statistics are deliberately excluded: they are
        monotone observability state, not population state.  The format
        is the canonical grid arrays + table rows of
        :class:`_BasicSnapshot`."""
        return _BasicSnapshot(self._soa.counts_grid(), self.table.snapshot())

    def restore(self, state: object) -> None:
        """Replace the population state with a :meth:`snapshot` copy.

        The snapshot itself is copied again, so the same snapshot can
        restore any number of later crashes.  Generations are left
        monotone and the cloak cache is dropped wholesale — counters
        changed without generation bumps, so every cached entry is
        suspect.
        """
        if not isinstance(state, _BasicSnapshot):
            raise TypeError("not a BasicAnonymizer snapshot")
        self._soa.load_counts_grid(state.counts)
        self.table.restore(state.population)
        self._touched_all()

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert pyramid consistency; O(cells + users)."""
        # Each non-leaf counter equals the sum of its children, the
        # lowest level counts the table's cells (so the root counts the
        # registered population), and every table cell contains its
        # user's point.
        soa, table = self._soa, self.table
        soa.check_child_sums()
        assert soa.count_of(0, 0) == len(table)
        assert np.array_equal(
            soa.counts[self.height],
            np.bincount(table.cells[table.active], minlength=4**self.height),
        ), "lowest-level counters inconsistent with the user table"
        table.check()
